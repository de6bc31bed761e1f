"""Precision-specialized scalar kernels for the jit engine, one family
for every precision.

:mod:`repro.bigfloat.arith` implements every operation generically: the
precision and rounding mode arrive as arguments, rounding funnels
through :func:`~repro.bigfloat.rounding.round_significand`, and every
result goes through the validating
:class:`~repro.bigfloat.number.BigFloat` constructor.  The jit knows
the precision, rounding mode and destination exponent range when it
binds a call site, so this module compiles one Python function per
``(op, prec, rm, exp_bits)`` that exploits the normalization invariant
(operand significands are exactly ``prec`` bits wide, enforced by a
cheap entry guard):

* **add/sub** use a guard/round/sticky alignment capped at ``prec + 3``
  bits: operands further apart than the cap contribute one shifted limb
  plus a sticky bit, so intermediates never exceed ``2*prec + 4`` bits
  no matter how far the exponents are spread, and the far path skips
  the ``nbits <= prec`` rounding branch entirely (the sum is provably
  wider than ``prec``).
* **mul** exploits the two-valued product width (``2*prec`` or
  ``2*prec - 1``): both rounding cases run under compile-time-constant
  shifts, masks and half-ulp constants.
* **div** needs no width probe or deficit retry: equal operand widths
  pin the quotient shift at ``prec + 2`` and the quotient width to two
  cases, again with constant masks.
* **sqrt** pins the scaling shift to ``prec + 4``/``prec + 5`` by
  exponent parity and rounds under two constant shift cases.
* every kernel constructs results through
  :class:`~repro.bigfloat.number._FastBigFloat`, skipping field
  validation that the rounding tail already guarantees, and folds the
  destination handle's exponent-range clamp (``exp_bits``) into the
  tail with precomputed inf/zero constants.

None of this depends on the limb count: the shapes hold for any
``prec >= 1``, as MPFR's one algorithm does for any limb count.

Zero operands are handled inline (transcribing the exact
:mod:`repro.bigfloat.arith` special-value rules); NaN/inf operands,
negative sqrt and mixed-precision operands fall back to the library
function, optionally reporting the reason through the ``notes`` hooks
so the kernel telemetry can attribute fallbacks.

Bit-exactness is the contract: every result is identical to
``arith.<op>(..., prec, rm)``.  Hypothesis tests cross-check the
inlined rounding against ``round_significand`` and the compiled
kernels against the library across all five modes at 1..600 bits, and
every ``engine.legacy`` certificate compares a jit run's kernels
against the legacy walker's library arithmetic.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

from ..bigfloat import arith
from ..bigfloat.number import BigFloat, Kind, _FastBigFloat
from ..bigfloat.rounding import RoundingMode

#: Operations with a specialized implementation.
KERNEL_OPS = ("add", "sub", "mul", "div", "sqrt")

#: Alignment cap for add/sub beyond the kept significand: guard bits
#: plus the window the rounding tail needs.  Anything shifted further
#: out contributes only a sticky bit.
_ALIGN_GUARD = 3

_CODE_CACHE: Dict[Tuple[str, int, str, Optional[int]], object] = {}
_KERNEL_CACHE: Dict[Tuple[str, int, str, Optional[int]], Callable] = {}


# ----------------------------------------------------------------- #
# Source fragments
# ----------------------------------------------------------------- #

def _incr_cond(rm: RoundingMode, sticky: bool):
    """Increment condition for the ``nbits > prec`` path.  ``_low``,
    ``_half``, ``_q``, ``_s`` (and ``_st`` when ``sticky``) are in
    scope; returns None when the mode never rounds up."""
    if rm is RoundingMode.NEAREST_EVEN:
        tie = "(_st or _q & 1)" if sticky else "_q & 1"
        return f"_low > _half or (_low == _half and {tie})"
    if rm is RoundingMode.NEAREST_AWAY:
        # low == 0 can never reach half (half >= 1), so exactness is
        # implied by the comparison.
        return "_low >= _half"
    if rm is RoundingMode.TOWARD_ZERO:
        return None
    sign = "0" if rm is RoundingMode.TOWARD_POSITIVE else "1"
    inexact = "(_low != 0 or _st)" if sticky else "_low != 0"
    return f"_s == {sign} and {inexact}"


def _finish_lines(prec: int, exp_bits: Optional[int], pad: str) -> list:
    """Clamp (when ``exp_bits``) and construct the final value from
    ``_s``/``_q``/``_e`` without re-validating the fields."""
    lines = []
    if exp_bits is not None:
        limit = 1 << (exp_bits - 1)
        lines += [
            f"{pad}_e2 = _e + {prec}",
            f"{pad}if _e2 > {limit}:",
            f"{pad}    return _NINF if _s else _PINF",
            f"{pad}if _e2 < {-limit}:",
            f"{pad}    return _Z1 if _s else _Z0",
        ]
    lines += [
        f"{pad}_v = _NEW(_MBF)",
        f"{pad}_v.kind = _KF",
        f"{pad}_v.sign = _s",
        f"{pad}_v.mant = _q",
        f"{pad}_v.exp = _e",
        f"{pad}_v.prec = {prec}",
        f"{pad}return _v",
    ]
    return lines


def _exact_round_lines(prec: int, rm: RoundingMode, pad: str) -> list:
    """Round the exact positive ``_m`` at ``_e``: full two-branch
    rounding (cancellation can leave fewer than ``prec`` bits)."""
    lines = [
        f"{pad}_nb = _m.bit_length()",
        f"{pad}if _nb <= {prec}:",
        f"{pad}    _q = _m << ({prec} - _nb)",
        f"{pad}    _e -= {prec} - _nb",
        f"{pad}else:",
        f"{pad}    _sh = _nb - {prec}",
        f"{pad}    _low = _m & ((1 << _sh) - 1)",
        f"{pad}    _q = _m >> _sh",
        f"{pad}    _e += _sh",
    ]
    cond = _incr_cond(rm, False)
    if cond is not None:
        if "_half" in cond:
            lines.append(f"{pad}    _half = 1 << (_sh - 1)")
        lines += [
            f"{pad}    if {cond}:",
            f"{pad}        _q += 1",
            f"{pad}        if _q >> {prec}:",
            f"{pad}            _q >>= 1",
            f"{pad}            _e += 1",
        ]
    return lines


def _window_round_lines(prec: int, rm: RoundingMode, pad: str) -> list:
    """Round ``_t`` (guaranteed wider than ``prec`` bits) with the
    sticky flag ``_st`` in scope; variable shift."""
    lines = [
        f"{pad}_sh = _t.bit_length() - {prec}",
        f"{pad}_low = _t & ((1 << _sh) - 1)",
        f"{pad}_q = _t >> _sh",
        f"{pad}_e += _sh",
    ]
    cond = _incr_cond(rm, True)
    if cond is not None:
        if "_half" in cond:
            lines.append(f"{pad}_half = 1 << (_sh - 1)")
        lines += [
            f"{pad}if {cond}:",
            f"{pad}    _q += 1",
            f"{pad}    if _q >> {prec}:",
            f"{pad}        _q >>= 1",
            f"{pad}        _e += 1",
        ]
    return lines


def _const_window_lines(prec: int, rm: RoundingMode, sh: int,
                        sticky: bool, pad: str) -> list:
    """Round ``_t`` under a compile-time-constant shift ``sh``:
    masks and the half-ulp constant are folded to literals."""
    if sh == 0:
        # Exact: _t already has exactly `prec` bits.
        return [f"{pad}_q = _t"]
    mask = (1 << sh) - 1
    half = 1 << (sh - 1)
    lines = [
        f"{pad}_low = _t & {mask}",
        f"{pad}_q = _t >> {sh}",
        f"{pad}_e += {sh}",
    ]
    cond = _incr_cond(rm, sticky)
    if cond is not None:
        cond = cond.replace("_half", str(half))
        lines += [
            f"{pad}if {cond}:",
            f"{pad}    _q += 1",
            f"{pad}    if _q >> {prec}:",
            f"{pad}        _q >>= 1",
            f"{pad}        _e += 1",
        ]
    return lines


def _passthrough_lines(prec: int, exp_bits: Optional[int], src: str,
                       negate: bool, pad: str) -> list:
    """Return the finite operand ``src`` (sign-flipped when ``negate``)
    as the result, honoring the destination clamp like every other
    finite result."""
    sign = f"{src}.sign ^ 1" if negate else f"{src}.sign"
    lines = []
    if exp_bits is not None:
        limit = 1 << (exp_bits - 1)
        lines += [
            f"{pad}_e2 = {src}.exp + {prec}",
            f"{pad}if _e2 > {limit}:",
            f"{pad}    return _NINF if {sign} else _PINF",
            f"{pad}if _e2 < {-limit}:",
            f"{pad}    return _Z1 if {sign} else _Z0",
        ]
    if negate:
        lines += [
            f"{pad}_v = _NEW(_MBF)",
            f"{pad}_v.kind = _KF",
            f"{pad}_v.sign = {sign}",
            f"{pad}_v.mant = {src}.mant",
            f"{pad}_v.exp = {src}.exp",
            f"{pad}_v.prec = {prec}",
            f"{pad}return _v",
        ]
    else:
        lines.append(f"{pad}return {src}")
    return lines


# ----------------------------------------------------------------- #
# Per-op sources
# ----------------------------------------------------------------- #

def _addsub_branch(prec: int, rm: RoundingMode, exp_bits: Optional[int],
                   hi: str, lo: str, shi: str, slo: str,
                   pad: str) -> list:
    """One alignment orientation of add/sub: ``hi`` has the larger (or
    equal) exponent, ``_d`` its nonnegative exponent lead."""
    cap = prec + _ALIGN_GUARD
    A = []
    A.append(f"{pad}if _d <= {cap}:")
    A.append(f"{pad}    _e = {lo}.exp")
    A.append(f"{pad}    if {shi} == {slo}:")
    A.append(f"{pad}        _m = ({hi}.mant << _d) + {lo}.mant")
    A.append(f"{pad}        _s = {slo}")
    A.append(f"{pad}    else:")
    A.append(f"{pad}        _t = ({hi}.mant << _d) - {lo}.mant")
    A.append(f"{pad}        if _t == 0:")
    A.append(f"{pad}            return _SZERO")
    A.append(f"{pad}        if _t < 0:")
    A.append(f"{pad}            _m = -_t")
    A.append(f"{pad}            _s = {slo}")
    A.append(f"{pad}        else:")
    A.append(f"{pad}            _m = _t")
    A.append(f"{pad}            _s = {shi}")
    A.extend(_exact_round_lines(prec, rm, pad + "    "))
    A.extend(_finish_lines(prec, exp_bits, pad + "    "))
    A.append(f"{pad}else:")
    A.append(f"{pad}    _rs = _d - {cap}")
    A.append(f"{pad}    if _rs >= {prec}:")
    A.append(f"{pad}        _lw = 0")
    A.append(f"{pad}        _st = True")
    A.append(f"{pad}    else:")
    A.append(f"{pad}        _lw = {lo}.mant >> _rs")
    A.append(f"{pad}        _st = {lo}.mant & ((1 << _rs) - 1) != 0")
    A.append(f"{pad}    _s = {shi}")
    A.append(f"{pad}    _e = {hi}.exp - {cap}")
    A.append(f"{pad}    if {shi} == {slo}:")
    A.append(f"{pad}        _t = ({hi}.mant << {cap}) + _lw")
    A.append(f"{pad}    else:")
    A.append(f"{pad}        _t = ({hi}.mant << {cap}) - _lw")
    A.append(f"{pad}        if _st:")
    A.append(f"{pad}            _t -= 1")
    A.extend(_window_round_lines(prec, rm, pad + "    "))
    A.extend(_finish_lines(prec, exp_bits, pad + "    "))
    return A


def _addsub_source(prec: int, rm: RoundingMode, flip: bool,
                   exp_bits: Optional[int]) -> str:
    p = prec
    sb = "b.sign ^ 1" if flip else "b.sign"
    A = []
    A.append("def _kernel(a, b):")
    A.append("    _ak = a.kind")
    A.append("    _bk = b.kind")
    A.append("    if _ak is _KF and _bk is _KF:")
    A.append(f"        if a.prec != {p} or b.prec != {p}:")
    A.append("            _nprec()")
    A.append("            return _FB(a, b)")
    A.append("        _sa = a.sign")
    A.append(f"        _sb = {sb}")
    A.append("        _ea = a.exp")
    A.append("        _eb = b.exp")
    A.append("        if _ea <= _eb:")
    A.append("            _d = _eb - _ea")
    A.extend(_addsub_branch(p, rm, exp_bits, "b", "a", "_sb", "_sa",
                            " " * 12))
    A.append("        else:")
    A.append("            _d = _ea - _eb")
    A.extend(_addsub_branch(p, rm, exp_bits, "a", "b", "_sa", "_sb",
                            " " * 12))
    # Inline zeros (exact arith.add/sub special-value rules).
    A.append("    if _ak is _KF and _bk is _KZ:")
    A.append(f"        if a.prec != {p}:")
    A.append("            _nprec()")
    A.append("            return _FB(a, b)")
    A.extend(_passthrough_lines(p, exp_bits, "a", False, " " * 8))
    A.append("    if _ak is _KZ and _bk is _KF:")
    A.append(f"        if b.prec != {p}:")
    A.append("            _nprec()")
    A.append("            return _FB(a, b)")
    A.extend(_passthrough_lines(p, exp_bits, "b", flip, " " * 8))
    A.append("    if _ak is _KZ and _bk is _KZ:")
    A.append(f"        if a.sign == {sb}:")
    A.append("            return _Z1 if a.sign else _Z0")
    A.append("        return _SZERO")
    A.append("    _nspec()")
    A.append("    return _FB(a, b)")
    return "\n".join(A) + "\n"


def _mul_source(prec: int, rm: RoundingMode,
                exp_bits: Optional[int]) -> str:
    p = prec
    top = 1 << (2 * p - 1)
    A = []
    A.append("def _kernel(a, b):")
    A.append("    _ak = a.kind")
    A.append("    _bk = b.kind")
    A.append("    if _ak is _KF and _bk is _KF:")
    A.append(f"        if a.prec != {p} or b.prec != {p}:")
    A.append("            _nprec()")
    A.append("            return _FB(a, b)")
    A.append("        _s = a.sign ^ b.sign")
    A.append("        _t = a.mant * b.mant")
    A.append("        _e = a.exp + b.exp")
    # Product width is 2p or 2p-1: two constant rounding cases.
    A.append(f"        if _t >= {top}:")
    A.extend(_const_window_lines(p, rm, p, False, " " * 12))
    A.append("        else:")
    A.extend(_const_window_lines(p, rm, p - 1, False, " " * 12))
    A.extend(_finish_lines(p, exp_bits, " " * 8))
    A.append("    if (_ak is _KF or _ak is _KZ) and "
             "(_bk is _KF or _bk is _KZ):")
    A.append("        return _Z1 if a.sign ^ b.sign else _Z0")
    A.append("    _nspec()")
    A.append("    return _FB(a, b)")
    return "\n".join(A) + "\n"


def _div_source(prec: int, rm: RoundingMode,
                exp_bits: Optional[int]) -> str:
    p = prec
    shd = p + 2
    A = []
    A.append("def _kernel(a, b):")
    A.append("    _ak = a.kind")
    A.append("    _bk = b.kind")
    A.append("    if _ak is _KF and _bk is _KF:")
    A.append(f"        if a.prec != {p} or b.prec != {p}:")
    A.append("            _nprec()")
    A.append("            return _FB(a, b)")
    A.append("        _s = a.sign ^ b.sign")
    A.append(f"        _t, _r = divmod(a.mant << {shd}, b.mant)")
    A.append("        _st = _r != 0")
    A.append(f"        _e = a.exp - b.exp - {shd}")
    # Equal operand widths pin the quotient to p+2 or p+3 bits.
    A.append(f"        if _t >> {p + 2}:")
    A.extend(_const_window_lines(p, rm, 3, True, " " * 12))
    A.append("        else:")
    A.extend(_const_window_lines(p, rm, 2, True, " " * 12))
    A.extend(_finish_lines(p, exp_bits, " " * 8))
    A.append("    if _ak is _KZ and _bk is _KF:")
    A.append("        return _Z1 if a.sign ^ b.sign else _Z0")
    A.append("    if _ak is _KF and _bk is _KZ:")
    A.append("        return _NINF if a.sign ^ b.sign else _PINF")
    A.append("    _nspec()")
    A.append("    return _FB(a, b)")
    return "\n".join(A) + "\n"


def _sqrt_source(prec: int, rm: RoundingMode,
                 exp_bits: Optional[int]) -> str:
    p = prec
    sh0 = p + 4  # 2*(p+2) - p: operand significand is exactly p bits
    A = []
    A.append("def _kernel(a):")
    A.append("    _ak = a.kind")
    A.append("    if _ak is _KF and a.sign == 0:")
    A.append(f"        if a.prec != {p}:")
    A.append("            _nprec()")
    A.append("            return _FB(a)")
    A.append("        _ex = a.exp")
    A.append(f"        if (_ex - {sh0}) & 1:")
    A.append(f"            _m0 = a.mant << {sh0 + 1}")
    A.append(f"            _e = (_ex - {sh0 + 1}) >> 1")
    A.append("        else:")
    A.append(f"            _m0 = a.mant << {sh0}")
    A.append(f"            _e = (_ex - {sh0}) >> 1")
    A.append("        _t = _isqrt(_m0)")
    A.append("        _st = _t * _t != _m0")
    A.append("        _s = 0")
    # Root width is p+2 or p+3 bits: two constant rounding cases.
    A.append(f"        if _t >> {p + 2}:")
    A.extend(_const_window_lines(p, rm, 3, True, " " * 12))
    A.append("        else:")
    A.extend(_const_window_lines(p, rm, 2, True, " " * 12))
    A.extend(_finish_lines(p, exp_bits, " " * 8))
    A.append("    if _ak is _KZ:")
    A.append("        return _Z1 if a.sign else _Z0")
    A.append("    _nspec()")
    A.append("    return _FB(a)")
    return "\n".join(A) + "\n"


_SOURCES = {
    "add": lambda p, rm, eb: _addsub_source(p, rm, False, eb),
    "sub": lambda p, rm, eb: _addsub_source(p, rm, True, eb),
    "mul": _mul_source,
    "div": _div_source,
    "sqrt": _sqrt_source,
}

_LIBRARY = {
    "add": arith.add, "sub": arith.sub, "mul": arith.mul,
    "div": arith.div, "sqrt": arith.sqrt,
}


def kernel_code(op: str, prec: int,
                rm: RoundingMode = RoundingMode.NEAREST_EVEN,
                exp_bits: Optional[int] = None) -> str:
    """The kernel source for ``(op, prec, rm[, exp_bits])``."""
    if op not in _SOURCES:
        raise ValueError(f"no scalar kernel for {op!r}; "
                         f"choose from {KERNEL_OPS}")
    if prec < 1:
        raise ValueError(f"precision must be >= 1, got {prec}")
    return _SOURCES[op](prec, rm, exp_bits)


def clamped_fallback(fallback, prec: int, exp_bits: int) -> Callable:
    """Wrap a library fallback so finite results obey the handle's
    exponent-range clamp, exactly as the jit engine's per-call clamp
    block would have (fallbacks can legitimately produce finite values
    outside the destination handle's exponent range)."""
    limit = 1 << (exp_bits - 1)

    def clamped(*args, _fb=fallback, _p=prec, _lim=limit):
        v = _fb(*args)
        if v.kind is Kind.FINITE:
            e = v.exp + _p
            if e > _lim:
                return BigFloat.inf(_p, v.sign)
            if e < -_lim:
                return BigFloat.zero(_p, v.sign)
        return v

    return clamped


def _noop() -> None:
    pass


class KernelStats:
    """Per-interpreter scalar-kernel telemetry.

    Only constructed when the run is observing (metrics registry or
    ledger active): the hot path then routes through a counting
    closure, while unobserved runs bind the raw kernels and pay
    nothing.  ``sites`` counts kernel specializations (one per
    ``(op, prec, rm, exp_bits)`` call-site key), ``ops`` dynamic kernel
    invocations, ``fallbacks`` the reasons kernels punted to the
    library ("prec": operand/destination precision mismatch,
    "special": NaN/Inf operand or negative sqrt).
    """

    __slots__ = ("ops", "sites", "fallbacks")

    def __init__(self):
        self.ops = 0
        self.sites = 0
        self.fallbacks = {"prec": 0, "special": 0}

    def counting(self, kernel: Callable) -> Callable:
        def counted(*args, _k=kernel, _stats=self):
            _stats.ops += 1
            return _k(*args)

        return counted

    def notes(self) -> Tuple[Callable, Callable]:
        fallbacks = self.fallbacks

        def note_prec():
            fallbacks["prec"] += 1

        def note_special():
            fallbacks["special"] += 1

        return note_prec, note_special

    def as_dict(self) -> dict:
        return {
            "ops": self.ops,
            "sites": self.sites,
            "fallbacks": dict(self.fallbacks),
        }

    def merge(self, other: "KernelStats") -> None:
        self.ops += other.ops
        self.sites += other.sites
        for reason, n in other.fallbacks.items():
            self.fallbacks[reason] = self.fallbacks.get(reason, 0) + n


def select_scalar_kernel(op: str, prec: int, exp_bits: Optional[int],
                         stats: Optional[KernelStats] = None,
                         rm: RoundingMode = RoundingMode.NEAREST_EVEN,
                         ) -> Callable:
    """The scalar kernel the jit binds for one call-site key.  With
    ``stats`` the kernel is wrapped in a counting closure and reports
    its fallback reasons."""
    if stats is None:
        return scalar_kernel(op, prec, rm, exp_bits)
    stats.sites += 1
    return stats.counting(
        scalar_kernel(op, prec, rm, exp_bits, notes=stats.notes()))


def scalar_kernel(op: str, prec: int,
                  rm: RoundingMode = RoundingMode.NEAREST_EVEN,
                  exp_bits: Optional[int] = None,
                  notes: Optional[Tuple[Callable, Callable]] = None,
                  ) -> Callable:
    """A compiled kernel bit-identical to ``arith.<op>(..., prec, rm)``.

    Binary ops take ``(a, b)``, sqrt ``(a)``; all operands must
    already be BigFloats.  With ``exp_bits``, the destination's
    exponent-range clamp is folded in (finite results only), matching
    the jit engine's clamp block.  ``notes`` is an optional
    ``(note_prec, note_special)`` pair called (cheaply, off the hot
    path) whenever the kernel falls back to the library because of a
    precision mismatch or a special value; kernels without hooks are
    memoized globally, hooked ones are rebound per caller over the same
    compiled code object.
    """
    key = (op, prec, rm.value, exp_bits)
    if notes is None:
        kernel = _KERNEL_CACHE.get(key)
        if kernel is not None:
            return kernel
    code = _CODE_CACHE.get(key)
    if code is None:
        source = kernel_code(op, prec, rm, exp_bits)
        code = compile(
            source, f"<vpkernel:{op}/{prec}/{rm.value}/{exp_bits}>",
            "exec")
        _CODE_CACHE[key] = code
    library = _LIBRARY[op]
    if op == "sqrt":
        def fallback(a, _lib=library, _p=prec, _r=rm):
            return _lib(a, _p, _r)
    else:
        def fallback(a, b, _lib=library, _p=prec, _r=rm):
            return _lib(a, b, _p, _r)
    if exp_bits is not None:
        fallback = clamped_fallback(fallback, prec, exp_bits)
    note_prec, note_special = notes if notes is not None \
        else (_noop, _noop)
    namespace = {
        "_KF": Kind.FINITE,
        "_KZ": Kind.ZERO,
        "_NEW": object.__new__,
        "_MBF": _FastBigFloat,
        "_FB": fallback,
        "_isqrt": math.isqrt,
        "_nprec": note_prec,
        "_nspec": note_special,
        "_SZERO": BigFloat.zero(
            prec, 1 if rm is RoundingMode.TOWARD_NEGATIVE else 0),
        "_Z0": BigFloat.zero(prec, 0),
        "_Z1": BigFloat.zero(prec, 1),
        "_PINF": BigFloat.inf(prec, 0),
        "_NINF": BigFloat.inf(prec, 1),
    }
    exec(code, namespace)
    kernel = namespace["_kernel"]
    if notes is None:
        _KERNEL_CACHE[key] = kernel
    return kernel
