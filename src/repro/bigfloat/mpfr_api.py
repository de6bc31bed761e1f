"""A C-style MPFR object API over :mod:`repro.bigfloat`.

The paper's MPFR backend lowers ``vpfloat<mpfr, e, p>`` SSA values to
calls on ``__mpfr_struct`` objects (Listing 1): explicit ``mpfr_init2`` /
``mpfr_clear`` lifetime, ``mpfr_set*`` assignment, and three-address
``mpfr_op(dest, src1, src2, rnd)`` arithmetic, with ``_d/_si/_ui``
specializations when an operand is a primitive type.

:class:`MpfrLibrary` reproduces that API surface over mutable
:class:`MpfrVar` handles and records *call and allocation statistics*,
which feed the performance model (DESIGN.md: the paper's speedups are
driven by these counts, so the stand-in records them exactly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from . import arith, convert, functions
from .number import BigFloat
from .rounding import RNDN, RoundingMode


class _NanTable(dict):
    """``prec -> NaN``: BigFloat is immutable, so every fresh or
    recycled handle of a precision starts from the same value."""

    def __missing__(self, prec: int) -> BigFloat:
        nan = self[prec] = BigFloat.nan(prec)
        return nan


#: The shared NaN a ``prec``-bit handle is initialized to.
nan_of = _NanTable().__getitem__


class MpfrVar:
    """Mutable handle mirroring ``__mpfr_struct``.

    Fields mirror Listing 1 of the paper: a precision, and the current
    value (which bundles sign/exponent/limbs).  ``alive`` tracks the
    init/clear lifetime so double-clear and use-after-clear are caught,
    the bugs the paper's automatic object management eliminates.
    ``uid`` numbers handles in creation order; use-after-clear messages
    print it.
    """

    __slots__ = ("prec", "value", "alive", "uid", "limb_addr", "exp_bits")

    _next_uid = 0

    def __init__(self, prec: int, exp_bits: Optional[int] = None):
        if prec < 2:
            raise ValueError(f"MPFR precision must be >= 2, got {prec}")
        self.prec = prec
        #: Exponent-field width (the type's exp-info); None = unbounded,
        #: like stock MPFR before mpfr_set_emin/emax.
        self.exp_bits = exp_bits
        self.value: BigFloat = nan_of(prec)  # mpfr_init leaves NaN
        self.alive = True
        self.uid = MpfrVar._next_uid
        MpfrVar._next_uid += 1
        self.limb_addr = 0  # set by the interpreter's memory model

    def __repr__(self) -> str:
        state = "" if self.alive else " (cleared)"
        return f"MpfrVar#{self.uid}(prec={self.prec}, {self.value!r}){state}"


Scalar = Union[int, float]


@dataclass
class MpfrStats:
    """Counters for every category of library traffic.

    With pooling enabled (:class:`MpfrLibrary` ``pool=True``), ``inits``
    and ``clears`` count *fresh allocations* and *true deallocations*
    respectively; acquisitions served from the free list show up in
    ``pool_hits`` and releases captured by it in ``pool_releases``.
    ``by_name`` always counts API calls, pooled or not, so call-traffic
    comparisons against unpooled runs stay meaningful.
    """

    inits: int = 0
    clears: int = 0
    sets: int = 0
    ops: int = 0
    specialized_ops: int = 0  # _d/_si/_ui entry points
    compares: int = 0
    conversions: int = 0
    limb_bytes_allocated: int = 0
    pool_hits: int = 0      # init2 calls served from the free list
    pool_misses: int = 0    # init2 calls that had to allocate (pool on)
    pool_releases: int = 0  # clear calls captured by the free list
    by_name: Dict[str, int] = field(default_factory=dict)

    def bump(self, name: str, n: int = 1) -> None:
        self.by_name[name] = self.by_name.get(name, 0) + n

    def total_calls(self) -> int:
        return sum(self.by_name.values())

    def pool_hit_rate(self) -> float:
        """Fraction of init2 traffic served without allocating."""
        total = self.pool_hits + self.pool_misses
        return self.pool_hits / total if total else 0.0

    def snapshot(self) -> "MpfrStats":
        return MpfrStats(
            inits=self.inits,
            clears=self.clears,
            sets=self.sets,
            ops=self.ops,
            specialized_ops=self.specialized_ops,
            compares=self.compares,
            conversions=self.conversions,
            limb_bytes_allocated=self.limb_bytes_allocated,
            pool_hits=self.pool_hits,
            pool_misses=self.pool_misses,
            pool_releases=self.pool_releases,
            by_name=dict(self.by_name),
        )


def limb_bytes(prec: int) -> int:
    """Heap bytes MPFR allocates for a ``prec``-bit significand."""
    return ((prec + 63) // 64) * 8


class MpfrUseAfterClear(RuntimeError):
    """An operation touched a cleared MPFR object."""


class MpfrLibrary:
    """The MPFR call surface with statistics recording.

    ``pool=True`` adds a runtime free-list: cleared handles are parked in
    per-precision buckets and ``mpfr_init2`` reuses one instead of
    allocating.  This is the dynamic counterpart of the lowering pass's
    static dead-object reuse (paper §III-C1 item 7): the compiler removes
    the allocation traffic it can prove dead, the pool removes the rest
    (cross-call churn, dynamically-sized arrays).  The pool is off by
    default so the raw library keeps exact ``mpfr_init2``/``mpfr_clear``
    semantics; the interpreter turns it on for the paper's own runtime.
    """

    def __init__(self, pool: bool = False, pool_limit: int = 1024) -> None:
        self.stats = MpfrStats()
        self.live_objects = 0
        self.peak_live_objects = 0
        self.pool_enabled = pool
        #: Per-precision bucket cap; beyond it, clears free for real.
        self.pool_limit = pool_limit
        self._pool: Dict[int, List[MpfrVar]] = {}

    # ------------------------------------------------------------ #
    # Lifetime
    # ------------------------------------------------------------ #

    def acquire(self, prec: int,
                exp_bits: Optional[int] = None) -> Tuple[MpfrVar, bool]:
        """``mpfr_init2`` with reuse reporting: ``(var, pooled)``.

        ``pooled`` is True when the handle came from the free list (no
        allocation happened; its limb storage is recycled as-is)."""
        if prec < 2:
            raise ValueError(f"MPFR precision must be >= 2, got {prec}")
        self.stats.bump("mpfr_init2")
        bucket = self._pool.get(prec) if self.pool_enabled else None
        if bucket:
            var = bucket.pop()
            var.alive = True
            var.exp_bits = exp_bits
            var.value = nan_of(prec)  # mpfr_init leaves NaN
            self.stats.pool_hits += 1
            self.live_objects += 1
            self.peak_live_objects = max(self.peak_live_objects,
                                         self.live_objects)
            return var, True
        if self.pool_enabled:
            self.stats.pool_misses += 1
        var = MpfrVar(prec, exp_bits)
        self.stats.inits += 1
        self.stats.limb_bytes_allocated += limb_bytes(prec)
        self.live_objects += 1
        self.peak_live_objects = max(self.peak_live_objects, self.live_objects)
        return var, False

    def init2(self, prec: int, exp_bits: Optional[int] = None) -> MpfrVar:
        """``mpfr_init2``: allocate a variable with ``prec`` bits (and,
        in this toolchain, the type's exponent-field width -- the paper:
        \"the size of the exponent and mantissa are set up during
        initialization\")."""
        return self.acquire(prec, exp_bits)[0]

    def release(self, var: MpfrVar) -> bool:
        """``mpfr_clear`` with reuse reporting: True when the handle was
        parked on the free list (its limb storage stays allocated)."""
        if not var.alive:
            raise MpfrUseAfterClear(f"double clear of {var!r}")
        var.alive = False
        self.stats.bump("mpfr_clear")
        self.live_objects -= 1
        if self.pool_enabled:
            bucket = self._pool.setdefault(var.prec, [])
            if len(bucket) < self.pool_limit:
                bucket.append(var)
                self.stats.pool_releases += 1
                return True
        self.stats.clears += 1
        return False

    def clear(self, var: MpfrVar) -> None:
        """``mpfr_clear``: release a variable."""
        self.release(var)

    def pooled_objects(self) -> int:
        """Handles currently parked on the free list."""
        return sum(len(b) for b in self._pool.values())

    def _check(self, *vars_: MpfrVar) -> None:
        for v in vars_:
            if not v.alive:
                raise MpfrUseAfterClear(f"use of cleared {v!r}")

    # ------------------------------------------------------------ #
    # Assignment
    # ------------------------------------------------------------ #

    def set(self, dst: MpfrVar, src: MpfrVar, rm: RoundingMode = RNDN) -> None:
        self._check(dst, src)
        dst.value = src.value.round_to(dst.prec, rm)
        self.stats.sets += 1
        self.stats.bump("mpfr_set")

    def set_d(self, dst: MpfrVar, value: float, rm: RoundingMode = RNDN) -> None:
        self._check(dst)
        dst.value = BigFloat.from_float(value, dst.prec, rm)
        self.stats.sets += 1
        self.stats.bump("mpfr_set_d")

    def set_si(self, dst: MpfrVar, value: int, rm: RoundingMode = RNDN) -> None:
        self._check(dst)
        dst.value = BigFloat.from_int(value, dst.prec, rm)
        self.stats.sets += 1
        self.stats.bump("mpfr_set_si")

    def set_ui(self, dst: MpfrVar, value: int, rm: RoundingMode = RNDN) -> None:
        """``value`` read as an unsigned long (modulo 2**64)."""
        self._check(dst)
        dst.value = BigFloat.from_int(value % (1 << 64), dst.prec, rm)
        self.stats.sets += 1
        self.stats.bump("mpfr_set_ui")

    def set_str(self, dst: MpfrVar, text: str, rm: RoundingMode = RNDN) -> None:
        self._check(dst)
        dst.value = convert.from_str(text, dst.prec, rm)
        self.stats.sets += 1
        self.stats.bump("mpfr_set_str")

    def swap(self, a: MpfrVar, b: MpfrVar) -> None:
        self._check(a, b)
        a.value, b.value = b.value, a.value
        a.prec, b.prec = b.prec, a.prec
        self.stats.bump("mpfr_swap")

    # ------------------------------------------------------------ #
    # Arithmetic: mpfr_op(dest, src1, src2, rnd)
    # ------------------------------------------------------------ #

    def _clamp(self, dst: MpfrVar) -> None:
        """Exponent-range overflow/underflow per the destination's
        configured exponent width."""
        if dst.exp_bits is None:
            return
        value = dst.value
        if not value.is_finite() or value.is_zero():
            return
        limit = 1 << (dst.exp_bits - 1)
        exponent = value.exponent()
        if exponent > limit:
            dst.value = BigFloat.inf(dst.prec, value.sign)
        elif exponent < -limit:
            dst.value = BigFloat.zero(dst.prec, value.sign)

    def _binary(self, name, kernel, dst, a, b, rm):
        self._check(dst, a, b)
        dst.value = kernel(a.value, b.value, dst.prec, rm)
        self._clamp(dst)
        self.stats.ops += 1
        self.stats.bump(name)

    def add(self, dst, a, b, rm: RoundingMode = RNDN):
        self._binary("mpfr_add", arith.add, dst, a, b, rm)

    def sub(self, dst, a, b, rm: RoundingMode = RNDN):
        self._binary("mpfr_sub", arith.sub, dst, a, b, rm)

    def mul(self, dst, a, b, rm: RoundingMode = RNDN):
        self._binary("mpfr_mul", arith.mul, dst, a, b, rm)

    def div(self, dst, a, b, rm: RoundingMode = RNDN):
        self._binary("mpfr_div", arith.div, dst, a, b, rm)

    def _binary_scalar(self, name, kernel, dst, a, scalar, rm, reverse=False):
        self._check(dst, a)
        other = BigFloat.from_value(
            float(scalar) if isinstance(scalar, float) else scalar,
            max(dst.prec, 64),
        )
        lhs, rhs = (other, a.value) if reverse else (a.value, other)
        dst.value = kernel(lhs, rhs, dst.prec, rm)
        self._clamp(dst)
        self.stats.ops += 1
        self.stats.specialized_ops += 1
        self.stats.bump(name)

    def add_d(self, dst, a, d: float, rm: RoundingMode = RNDN):
        self._binary_scalar("mpfr_add_d", arith.add, dst, a, d, rm)

    def sub_d(self, dst, a, d: float, rm: RoundingMode = RNDN):
        self._binary_scalar("mpfr_sub_d", arith.sub, dst, a, d, rm)

    def d_sub(self, dst, d: float, a, rm: RoundingMode = RNDN):
        self._binary_scalar("mpfr_d_sub", arith.sub, dst, a, d, rm, reverse=True)

    def mul_d(self, dst, a, d: float, rm: RoundingMode = RNDN):
        self._binary_scalar("mpfr_mul_d", arith.mul, dst, a, d, rm)

    def div_d(self, dst, a, d: float, rm: RoundingMode = RNDN):
        self._binary_scalar("mpfr_div_d", arith.div, dst, a, d, rm)

    def d_div(self, dst, d: float, a, rm: RoundingMode = RNDN):
        self._binary_scalar("mpfr_d_div", arith.div, dst, a, d, rm, reverse=True)

    def add_si(self, dst, a, n: int, rm: RoundingMode = RNDN):
        self._binary_scalar("mpfr_add_si", arith.add, dst, a, n, rm)

    def sub_si(self, dst, a, n: int, rm: RoundingMode = RNDN):
        self._binary_scalar("mpfr_sub_si", arith.sub, dst, a, n, rm)

    def mul_si(self, dst, a, n: int, rm: RoundingMode = RNDN):
        self._binary_scalar("mpfr_mul_si", arith.mul, dst, a, n, rm)

    def div_si(self, dst, a, n: int, rm: RoundingMode = RNDN):
        self._binary_scalar("mpfr_div_si", arith.div, dst, a, n, rm)

    def fma(self, dst, a, b, c, rm: RoundingMode = RNDN):
        self._check(dst, a, b, c)
        dst.value = arith.fma(a.value, b.value, c.value, dst.prec, rm)
        self._clamp(dst)
        self.stats.ops += 1
        self.stats.bump("mpfr_fma")

    def fms(self, dst, a, b, c, rm: RoundingMode = RNDN):
        self._check(dst, a, b, c)
        dst.value = arith.fms(a.value, b.value, c.value, dst.prec, rm)
        self._clamp(dst)
        self.stats.ops += 1
        self.stats.bump("mpfr_fms")

    def _unary(self, name, kernel, dst, a, rm):
        self._check(dst, a)
        dst.value = kernel(a.value, dst.prec, rm)
        self._clamp(dst)
        self.stats.ops += 1
        self.stats.bump(name)

    def neg(self, dst, a, rm: RoundingMode = RNDN):
        self._unary("mpfr_neg", arith.neg, dst, a, rm)

    def abs(self, dst, a, rm: RoundingMode = RNDN):
        self._unary("mpfr_abs", arith.abs_, dst, a, rm)

    def sqrt(self, dst, a, rm: RoundingMode = RNDN):
        self._unary("mpfr_sqrt", arith.sqrt, dst, a, rm)

    def exp(self, dst, a, rm: RoundingMode = RNDN):
        self._unary("mpfr_exp", functions.exp, dst, a, rm)

    def log(self, dst, a, rm: RoundingMode = RNDN):
        self._unary("mpfr_log", functions.log, dst, a, rm)

    def sin(self, dst, a, rm: RoundingMode = RNDN):
        self._unary("mpfr_sin", functions.sin, dst, a, rm)

    def cos(self, dst, a, rm: RoundingMode = RNDN):
        self._unary("mpfr_cos", functions.cos, dst, a, rm)

    def pow(self, dst, a, b, rm: RoundingMode = RNDN):
        self._binary("mpfr_pow", functions.pow, dst, a, b, rm)

    # ------------------------------------------------------------ #
    # Comparison / conversion
    # ------------------------------------------------------------ #

    def cmp(self, a: MpfrVar, b: MpfrVar) -> int:
        self._check(a, b)
        self.stats.compares += 1
        self.stats.bump("mpfr_cmp")
        return a.value.compare(b.value)

    def cmp_d(self, a: MpfrVar, d: float) -> int:
        self._check(a)
        self.stats.compares += 1
        self.stats.bump("mpfr_cmp_d")
        return a.value.compare(BigFloat.from_float(d, 64))

    def get_d(self, a: MpfrVar, rm: RoundingMode = RNDN) -> float:
        self._check(a)
        self.stats.conversions += 1
        self.stats.bump("mpfr_get_d")
        return a.value.to_float()

    def get_si(self, a: MpfrVar, rm: RoundingMode = RNDN) -> int:
        self._check(a)
        self.stats.conversions += 1
        self.stats.bump("mpfr_get_si")
        return a.value.to_int()

    def get_str(self, a: MpfrVar, digits: Optional[int] = None) -> str:
        self._check(a)
        self.stats.conversions += 1
        self.stats.bump("mpfr_get_str")
        return convert.to_str(a.value, digits)
