"""Batched SoA execution: one IR dispatch amortized over N lanes.

A :class:`VPBatch` holds N independent same-precision vpfloat values in
structure-of-arrays form -- parallel ``kind``/``sign``/``mant``/``exp``
lane lists plus the shared precision -- so the specializing jit engine
can execute one IR program across the whole batch: every dispatched
instruction (and every modeled cycle, cache access, and MPFR call
charge) happens once, while the precision-specialized batched kernels
(:mod:`repro.codegen.batch_kernels`) do N lanes of mantissa arithmetic
in a single fused loop.

The batch runs in **lockstep SPMD**: integer and pointer SSA values
stay uniform scalars, one shared :class:`~repro.runtime.memory.Memory`
sees exactly the address stream of a serial run, and cost accounting
runs once -- modeled costs are value-independent, so the single
:class:`~repro.runtime.cost_model.CostReport` is bit-identical to what
*each* lane would report from its own serial run.  Anything that would
break lockstep raises:

* :class:`BatchDivergence` -- a comparison or scalar conversion
  (``mpfr_cmp``, ``fcmp``, ``mpfr_get_d``, ``fptosi``, printing)
  produced different results across lanes, so control flow or integer
  state would fork;
* :class:`BatchUnsupported` -- the program needs a construct the
  batched engine cannot run in lockstep (a function the jit emitter
  fell back on, non-mpfr vpfloat formats, scalar coercion of a batch).

Callers (``CompiledProgram.run_batch``) catch both and re-run each
lane serially -- correct by construction, counted in telemetry.

Scalar-fallback lanes inside a batched op (NaN/Inf operands, negative
sqrt, unary transcendentals, ``mpfr_pow``) are handled per lane by the
generic library routines -- bit-identical to serial by construction --
and counted via :meth:`BatchContext.note`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..bigfloat import arith
from ..bigfloat.mpfr_api import MpfrLibrary, MpfrVar
from ..bigfloat.number import BigFloat, Kind
from ..bigfloat.rounding import RNDN, RoundingMode, round_significand
from .interpreter import Interpreter, VPRuntimeError, _f32, _mask_int

__all__ = [
    "VPBatch",
    "BatchContext",
    "BatchDivergence",
    "BatchUnsupported",
    "BatchMpfrLibrary",
    "BatchInterpreter",
    "BatchResult",
]

#: Kind <-> uint8 codes for the numpy SoA interchange.
_KIND_CODES = {Kind.FINITE: 0, Kind.ZERO: 1, Kind.INF: 2, Kind.NAN: 3}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}
#: Code -> Kind lookup list for materializing array-backed lane lists.
_U64_KINDS = [Kind.FINITE, Kind.ZERO, Kind.INF, Kind.NAN]


class BatchDivergence(RuntimeError):
    """Lanes disagreed where lockstep execution needs one answer."""


class BatchUnsupported(RuntimeError):
    """The program used a construct the batched engine cannot run."""


def _numpy():
    try:
        import numpy
    except ImportError as exc:  # pragma: no cover - numpy is baked in
        raise RuntimeError(
            "VPBatch structure-of-arrays interchange requires numpy; "
            "install it or keep batches in lane-list form"
        ) from exc
    return numpy


class VPBatch:
    """N same-precision vpfloat values, structure-of-arrays.

    ``kind``/``sign``/``mant``/``exp`` are parallel lane lists (Kind
    enums, 0/1 sign bits, normalized integer significands of exactly
    ``prec`` bits for finite lanes, binary exponents); ``prec`` is
    shared.  Treated as immutable: every operation builds fresh lane
    lists, so batches may be shared freely (broadcast NaN templates,
    stored global cells).

    The lane lists are *lazy*: the single-limb numpy kernel tier
    (:mod:`repro.codegen.batch_np_kernels`) builds batches directly
    from uint64 result arrays (``_from_u64``) and caches the array
    form of operand batches in ``_u64``, so chained vectorized ops
    (a gemm accumulator flowing op to op) never convert to lists and
    back.  Reading a lane attribute materializes the lists on demand;
    every existing consumer -- the generic fused-loop kernels, lane
    extraction, comparisons -- sees the class it always saw.
    """

    __slots__ = ("_kind", "_sign", "_mant", "_exp", "prec", "_u64")

    def __init__(self, kind: list, sign: list, mant: list, exp: list,
                 prec: int):
        self._kind = kind
        self._sign = sign
        self._mant = mant
        self._exp = exp
        self.prec = prec
        self._u64 = None

    @classmethod
    def _from_u64(cls, u64, prec: int) -> "VPBatch":
        """Array-backed batch: ``u64`` is the numpy-tier lane tuple
        (kind codes uint8, sign uint8, mant uint64, exp int64, simple
        flag); the lane lists materialize only if someone asks."""
        batch = cls.__new__(cls)
        batch._kind = None
        batch._sign = None
        batch._mant = None
        batch._exp = None
        batch.prec = prec
        batch._u64 = u64
        return batch

    def _materialize(self) -> None:
        codes, sign, mant, exp = self._u64[:4]
        kinds = _U64_KINDS
        self._kind = [kinds[c] for c in codes.tolist()]
        self._sign = sign.tolist()
        self._mant = mant.tolist()
        self._exp = exp.tolist()

    @property
    def kind(self) -> list:
        if self._kind is None:
            self._materialize()
        return self._kind

    @property
    def sign(self) -> list:
        if self._sign is None:
            self._materialize()
        return self._sign

    @property
    def mant(self) -> list:
        if self._mant is None:
            self._materialize()
        return self._mant

    @property
    def exp(self) -> list:
        if self._exp is None:
            self._materialize()
        return self._exp

    def __len__(self) -> int:
        if self._kind is not None:
            return len(self._kind)
        return len(self._u64[0])

    # -------------------------------------------------------- #
    # Construction / extraction
    # -------------------------------------------------------- #

    @classmethod
    def broadcast(cls, value: BigFloat, n: int) -> "VPBatch":
        """All ``n`` lanes hold ``value``."""
        return cls([value.kind] * n, [value.sign] * n, [value.mant] * n,
                   [value.exp] * n, value.prec)

    @classmethod
    def from_lanes(cls, values: Sequence[BigFloat]) -> "VPBatch":
        if not values:
            raise ValueError("a VPBatch needs at least one lane")
        prec = values[0].prec
        for v in values:
            if v.prec != prec:
                raise ValueError(
                    f"mixed lane precisions in batch: {v.prec} != {prec}")
        return cls([v.kind for v in values], [v.sign for v in values],
                   [v.mant for v in values], [v.exp for v in values],
                   prec)

    def lane(self, i: int) -> BigFloat:
        return BigFloat(self.kind[i], self.sign[i], self.mant[i],
                        self.exp[i], self.prec)

    def lanes(self) -> List[BigFloat]:
        return [self.lane(i) for i in range(len(self.kind))]

    def uniform_lane(self) -> BigFloat:
        """The single value all lanes hold (bit-level comparison, so
        uniform NaN lanes qualify); :class:`BatchDivergence` if lanes
        differ."""
        kinds, signs, mants, exps = self.kind, self.sign, self.mant, self.exp
        k0, s0, m0, e0 = kinds[0], signs[0], mants[0], exps[0]
        for i in range(1, len(kinds)):
            if (kinds[i] is not k0 or signs[i] != s0
                    or mants[i] != m0 or exps[i] != e0):
                raise BatchDivergence(
                    "batch lanes diverged where a single value is needed")
        return BigFloat(k0, s0, m0, e0, self.prec)

    # -------------------------------------------------------- #
    # Rounding (mirrors BigFloat.round_to per lane)
    # -------------------------------------------------------- #

    def round_to(self, prec: int,
                 rm: RoundingMode = RNDN) -> "VPBatch":
        if prec == self.prec:
            # Normalized mantissas already have exactly ``prec`` bits;
            # same-precision rounding is the identity.
            return self
        kinds, signs, mants, exps = self.kind, self.sign, self.mant, self.exp
        n = len(kinds)
        out_m = [0] * n
        out_e = [0] * n
        finite = Kind.FINITE
        for i in range(n):
            if kinds[i] is finite:
                m, e, _ = round_significand(signs[i], mants[i], exps[i],
                                            prec, rm)
                out_m[i] = m
                out_e[i] = e
        return VPBatch(list(kinds), list(signs), out_m, out_e, prec)

    # -------------------------------------------------------- #
    # Structure-of-arrays interchange (numpy)
    # -------------------------------------------------------- #

    def to_soa(self) -> dict:
        """Numpy structure-of-arrays view: ``kind``/``sign`` uint8
        vectors, ``exp`` int64, and a ``(N, words)`` uint64 limb
        matrix (little-endian 64-bit words of the significand)."""
        np = _numpy()
        n = len(self.kind)
        words = max(1, (self.prec + 63) // 64)
        kind = np.fromiter((_KIND_CODES[k] for k in self.kind),
                           dtype=np.uint8, count=n)
        sign = np.fromiter(self.sign, dtype=np.uint8, count=n)
        exp = np.fromiter(self.exp, dtype=np.int64, count=n)
        limbs = np.zeros((n, words), dtype=np.uint64)
        mask = (1 << 64) - 1
        for i, mant in enumerate(self.mant):
            for w in range(words):
                if not mant:
                    break
                limbs[i, w] = mant & mask
                mant >>= 64
        return {"kind": kind, "sign": sign, "exp": exp, "limbs": limbs,
                "prec": self.prec}

    @classmethod
    def from_soa(cls, soa: dict) -> "VPBatch":
        limbs = soa["limbs"]
        n, words = limbs.shape
        mants = []
        for i in range(n):
            mant = 0
            for w in range(words - 1, -1, -1):
                mant = (mant << 64) | int(limbs[i, w])
            mants.append(mant)
        return cls([_CODE_KINDS[int(code)] for code in soa["kind"]],
                   [int(s) for s in soa["sign"]], mants,
                   [int(e) for e in soa["exp"]], int(soa["prec"]))

    def __repr__(self) -> str:
        return (f"<VPBatch lanes={len(self.kind)} prec={self.prec}>")


class BatchContext:
    """Per-run batch telemetry: lane count, batched-op and
    scalar-fallback counters, and the per-op occupancy histogram
    (percentage of lanes served by the fused fast path)."""

    __slots__ = ("lanes", "ops", "fast_lanes", "scalar_fallbacks",
                 "occupancy", "divergences", "serial_fallback_lanes",
                 "kernel_tier", "np_ops", "np_lanes", "np_bailouts",
                 "_nan_cache")

    def __init__(self, lanes: int, kernel_tier: str = "auto"):
        if lanes < 1:
            raise ValueError(f"batch needs >= 1 lane, got {lanes}")
        self.lanes = lanes
        self.ops = 0
        self.fast_lanes = 0
        self.scalar_fallbacks = 0
        self.occupancy: Dict[int, int] = {}
        self.divergences = 0
        self.serial_fallback_lanes = 0
        #: Kernel-tier policy ("auto"/"small" allow the numpy tier,
        #: "generic" forces the fused-loop kernels) and the numpy-tier
        #: counters (ops/lanes served, per-call eligibility bailouts).
        self.kernel_tier = kernel_tier
        self.np_ops = 0
        self.np_lanes = 0
        self.np_bailouts = 0
        self._nan_cache: Dict[int, VPBatch] = {}

    def note(self, n: int, slow: int) -> None:
        """One batched op over ``n`` lanes, ``slow`` of which took the
        per-lane library fallback."""
        self.ops += 1
        self.fast_lanes += n - slow
        if slow:
            self.scalar_fallbacks += slow
        occ = ((n - slow) * 100) // n
        occupancy = self.occupancy
        occupancy[occ] = occupancy.get(occ, 0) + 1

    def nan_batch(self, prec: int) -> VPBatch:
        """Shared broadcast-NaN template (``mpfr_init`` leaves NaN)."""
        batch = self._nan_cache.get(prec)
        if batch is None:
            batch = VPBatch.broadcast(BigFloat.nan(prec), self.lanes)
            self._nan_cache[prec] = batch
        return batch

    def flush(self, registry) -> None:
        """Fold the counters into a MetricsRegistry (None is a no-op)."""
        if registry is None:
            return
        registry.inc("batch.executions")
        registry.inc("batch.lanes", self.lanes)
        registry.inc("batch.ops", self.ops)
        registry.inc("batch.fast_lanes", self.fast_lanes)
        registry.inc("batch.scalar_fallbacks", self.scalar_fallbacks)
        if self.divergences:
            registry.inc("batch.divergence_bailouts", self.divergences)
        if self.serial_fallback_lanes:
            registry.inc("batch.serial_fallback_lanes",
                         self.serial_fallback_lanes)
        if self.np_ops:
            registry.inc("kernel.tier.batch_np.ops", self.np_ops)
            registry.inc("kernel.tier.batch_np.lanes", self.np_lanes)
        if self.np_bailouts:
            registry.inc("kernel.tier.batch_np.bailouts",
                         self.np_bailouts)
        registry.observe("batch.size", self.lanes)
        for occ, count in self.occupancy.items():
            registry.observe("batch.occupancy", occ, count)


def _same_scalar(a, b) -> bool:
    """NaN-aware equality for uniform-lane guards."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)
    return a == b


class BatchMpfrLibrary(MpfrLibrary):
    """MPFR call surface over VPBatch values.

    The interpreter's mpfr builtins bind ``self.mpfr`` methods, so
    overriding the arithmetic/assignment/comparison entry points here
    makes every non-inlined handler batch-aware with no interpreter
    changes.  Statistics bumps mirror the base class (one API call per
    batched op); modeled-cycle charging lives in the interpreter
    handlers and is untouched, which is what keeps the shared
    CostReport bit-identical to a serial lane.
    """

    #: arith kernels with a fused batched implementation.
    _BATCH_OPS = {arith.add: "add", arith.sub: "sub",
                  arith.mul: "mul", arith.div: "div"}

    def __init__(self, ctx: BatchContext, pool: bool = False,
                 pool_limit: int = 1024):
        super().__init__(pool=pool, pool_limit=pool_limit)
        self.ctx = ctx
        self._kernels: dict = {}

    # -------------------------------------------------------- #
    # Kernels
    # -------------------------------------------------------- #

    def batch_kernel(self, op: str, prec: int, rm: RoundingMode,
                     exp_bits: Optional[int]):
        key = (op, prec, rm, exp_bits)
        kernel = self._kernels.get(key)
        if kernel is None:
            from ..codegen.batch_kernels import select_batch_kernel
            kernel = select_batch_kernel(op, prec, rm, exp_bits,
                                         self.ctx)
            self._kernels[key] = kernel
        return kernel

    def _clamped(self, value: BigFloat,
                 exp_bits: Optional[int]) -> BigFloat:
        """Per-lane twin of :meth:`MpfrLibrary._clamp`."""
        if exp_bits is None or value.kind is not Kind.FINITE:
            return value
        limit = 1 << (exp_bits - 1)
        exponent = value.exponent()
        if exponent > limit:
            return BigFloat.inf(value.prec, value.sign)
        if exponent < -limit:
            return BigFloat.zero(value.prec, value.sign)
        return value

    def _lanewise(self, kernel, operands, prec, rm, exp_bits) -> VPBatch:
        """Apply a generic library routine per lane (every lane counts
        as a scalar fallback)."""
        ctx = self.ctx
        n = ctx.lanes
        for v in operands:
            if type(v) is VPBatch:
                n = len(v.kind)
                break
        out = []
        for i in range(n):
            lane_args = [v.lane(i) if type(v) is VPBatch else v
                         for v in operands]
            out.append(self._clamped(kernel(*lane_args, prec, rm),
                                     exp_bits))
        ctx.note(n, n)
        return VPBatch.from_lanes(out)

    # -------------------------------------------------------- #
    # Lifetime: fresh/pooled handles start as broadcast NaN
    # -------------------------------------------------------- #

    def acquire(self, prec, exp_bits=None):
        var, pooled = super().acquire(prec, exp_bits)
        var.value = self.ctx.nan_batch(prec)
        return var, pooled

    # -------------------------------------------------------- #
    # Assignment (``set`` and ``swap`` inherit: VPBatch.round_to
    # and attribute swapping already do the right thing)
    # -------------------------------------------------------- #

    def set_d(self, dst, value, rm=RNDN):
        self._check(dst)
        dst.value = VPBatch.broadcast(
            BigFloat.from_float(value, dst.prec, rm), self.ctx.lanes)
        self.stats.sets += 1
        self.stats.bump("mpfr_set_d")

    def set_si(self, dst, value, rm=RNDN):
        self._check(dst)
        dst.value = VPBatch.broadcast(
            BigFloat.from_int(value, dst.prec, rm), self.ctx.lanes)
        self.stats.sets += 1
        self.stats.bump("mpfr_set_si")

    def set_str(self, dst, text, rm=RNDN):
        from ..bigfloat import convert
        self._check(dst)
        dst.value = VPBatch.broadcast(
            convert.from_str(text, dst.prec, rm), self.ctx.lanes)
        self.stats.sets += 1
        self.stats.bump("mpfr_set_str")

    # -------------------------------------------------------- #
    # Arithmetic
    # -------------------------------------------------------- #

    def _binary(self, name, kernel, dst, a, b, rm):
        self._check(dst, a, b)
        op = self._BATCH_OPS.get(kernel)
        if op is None:  # mpfr_pow: generic routine, per-lane
            dst.value = self._lanewise(kernel, (a.value, b.value),
                                       dst.prec, rm, dst.exp_bits)
        else:
            dst.value = self.batch_kernel(op, dst.prec, rm,
                                          dst.exp_bits)(a.value, b.value)
        self.stats.ops += 1
        self.stats.bump(name)

    def _binary_scalar(self, name, kernel, dst, a, scalar, rm,
                       reverse=False):
        self._check(dst, a)
        other = BigFloat.from_value(
            float(scalar) if isinstance(scalar, float) else scalar,
            max(dst.prec, 64),
        )
        lhs, rhs = (other, a.value) if reverse else (a.value, other)
        op = self._BATCH_OPS.get(kernel)
        if op is None:
            dst.value = self._lanewise(kernel, (lhs, rhs), dst.prec, rm,
                                       dst.exp_bits)
        else:
            dst.value = self.batch_kernel(op, dst.prec, rm,
                                          dst.exp_bits)(lhs, rhs)
        self.stats.ops += 1
        self.stats.specialized_ops += 1
        self.stats.bump(name)

    def fma(self, dst, a, b, c, rm=RNDN):
        self._check(dst, a, b, c)
        dst.value = self.batch_kernel("fma", dst.prec, rm, dst.exp_bits)(
            a.value, b.value, c.value)
        self.stats.ops += 1
        self.stats.bump("mpfr_fma")

    def fms(self, dst, a, b, c, rm=RNDN):
        self._check(dst, a, b, c)
        dst.value = self.batch_kernel("fms", dst.prec, rm, dst.exp_bits)(
            a.value, b.value, c.value)
        self.stats.ops += 1
        self.stats.bump("mpfr_fms")

    def _unary(self, name, kernel, dst, a, rm):
        self._check(dst, a)
        if kernel is arith.sqrt:
            dst.value = self.batch_kernel("sqrt", dst.prec, rm,
                                          dst.exp_bits)(a.value)
        else:  # neg/abs/exp/log/sin/cos: generic routine, per-lane
            dst.value = self._lanewise(kernel, (a.value,), dst.prec, rm,
                                       dst.exp_bits)
        self.stats.ops += 1
        self.stats.bump(name)

    # -------------------------------------------------------- #
    # Comparison / conversion: uniform across lanes or bail out
    # -------------------------------------------------------- #

    def _uniform_map(self, fn, *values):
        n = self.ctx.lanes
        for v in values:
            if type(v) is VPBatch:
                n = len(v.kind)
                break
        else:
            return fn(*values)
        result = None
        for i in range(n):
            r = fn(*[v.lane(i) if type(v) is VPBatch else v
                     for v in values])
            if i == 0:
                result = r
            elif not _same_scalar(r, result):
                self.ctx.divergences += 1
                raise BatchDivergence(
                    "batch lanes diverged in a comparison/conversion")
        return result

    def cmp(self, a, b):
        self._check(a, b)
        self.stats.compares += 1
        self.stats.bump("mpfr_cmp")
        return self._uniform_map(lambda x, y: x.compare(y),
                                 a.value, b.value)

    def cmp_d(self, a, d):
        self._check(a)
        self.stats.compares += 1
        self.stats.bump("mpfr_cmp_d")
        other = BigFloat.from_float(d, 64)
        return self._uniform_map(lambda x: x.compare(other), a.value)

    def get_d(self, a, rm=RNDN):
        self._check(a)
        self.stats.conversions += 1
        self.stats.bump("mpfr_get_d")
        return self._uniform_map(lambda x: x.to_float(), a.value)

    def get_si(self, a, rm=RNDN):
        self._check(a)
        self.stats.conversions += 1
        self.stats.bump("mpfr_get_si")
        return self._uniform_map(lambda x: x.to_int(), a.value)

    def get_str(self, a, digits=None):
        from ..bigfloat import convert
        self._check(a)
        self.stats.conversions += 1
        self.stats.bump("mpfr_get_str")
        return self._uniform_map(lambda x: convert.to_str(x, digits),
                                 a.value)


class BatchInterpreter(Interpreter):
    """Interpreter whose vpfloat values are N-lane VPBatches.

    Forces the jit dispatch mode (the legacy walker is not
    batch-aware, so a function without a jit entry raises
    :class:`BatchUnsupported` instead of silently falling back), swaps
    in a :class:`BatchMpfrLibrary`, and wraps the few builtins that
    materialize or inspect scalar vpfloat values.  All cost charging is
    inherited untouched.
    """

    def __init__(self, module, lanes: int, accounting=None,
                 max_steps: int = 500_000_000, mpfr_pool: bool = False,
                 pool_limit: int = 1024, codegen_store=None,
                 kernel_tier: str = "auto"):
        ctx = BatchContext(lanes, kernel_tier=kernel_tier)
        self.batch = ctx
        super().__init__(
            module,
            accounting=accounting,
            mpfr_library=BatchMpfrLibrary(ctx, pool=mpfr_pool,
                                          pool_limit=pool_limit),
            max_steps=max_steps,
            dispatch="jit",
            mpfr_pool=mpfr_pool,
            pool_limit=pool_limit,
            codegen_store=codegen_store,
            kernel_tier=kernel_tier,
        )
        self._install_batch_builtins()

    # -------------------------------------------------------- #
    # Builtin wrappers (raw ``memory.cells`` access only: the
    # stock handlers already charge exactly what a serial run
    # charges, so wrappers must not add observed loads/stores)
    # -------------------------------------------------------- #

    def _install_batch_builtins(self) -> None:
        b = self._builtins
        cells = self.memory.cells
        lanes = self.batch.lanes

        stock_literal = b["__mpfr_set_literal"]

        def set_literal(args, inst, frame):
            result = stock_literal(args, inst, frame)
            cell = cells.get(int(args[0]))
            if cell is not None:
                var = cell[0]
                if type(var.value) is not VPBatch:
                    var.value = VPBatch.broadcast(var.value, lanes)
            return result

        b["__mpfr_set_literal"] = set_literal

        stock_load = b["__mpfr_load_global"]

        def load_global(args, inst, frame):
            addr = int(args[1])
            cell = cells.get(addr)
            if cell is not None and type(cell[0]) is VPBatch:
                batch = cell[0]
                # Swap a lane-0 scalar into the raw cell so the stock
                # handler takes its BigFloat path (and charges exactly
                # once), then install the whole rounded batch.
                cells[addr] = (batch.lane(0), cell[1])
                try:
                    result = stock_load(args, inst, frame)
                finally:
                    cells[addr] = cell
                dst_cell = cells.get(int(args[0]))
                dst = dst_cell[0]
                dst.value = batch.round_to(dst.prec)
                return result
            result = stock_load(args, inst, frame)
            dst_cell = cells.get(int(args[0]))
            if dst_cell is not None:
                dst = dst_cell[0]
                if type(dst.value) is not VPBatch:
                    dst.value = VPBatch.broadcast(dst.value, lanes)
            return result

        b["__mpfr_load_global"] = load_global

        def print_value(args, inst, frame):
            value = args[0]
            if isinstance(value, int):
                cell = cells.get(value)
                if cell is not None and hasattr(cell[0], "prec") and \
                        hasattr(cell[0], "value"):
                    value = cell[0].value
            if type(value) is VPBatch:
                value = value.uniform_lane()
            if isinstance(value, BigFloat):
                from ..bigfloat import convert
                self.stdout.append(convert.to_str(value))
            elif isinstance(value, float):
                self.stdout.append(repr(value))
            else:
                self.stdout.append(str(value))
            return None

        b["print_double"] = print_value
        b["print_int"] = print_value
        b["print_vpfloat"] = print_value

    # -------------------------------------------------------- #
    # Lockstep guards
    # -------------------------------------------------------- #

    def call_function(self, func, args):
        if func.is_declaration:
            return self._call_builtin(func.name, args, None, None)
        if len(args) != len(func.args):
            raise VPRuntimeError(
                f"{func.name}() takes {len(func.args)} argument(s), "
                f"got {len(args)}"
            )
        entry = self._jit_entry(func)
        if entry is None:
            reason = None
            engine = self._jit_engine
            if engine is not None:
                reason = (engine.record_for(func) or {}).get("reason")
            raise BatchUnsupported(
                f"batched execution needs a jit entry for {func.name}()"
                + (f": {reason}" if reason else "")
            )
        if self.tracer is not None:
            return self._call_function_traced(func, args)
        return entry(*args)

    def _as_bigfloat(self, value, prec):
        if type(value) is VPBatch:
            raise BatchUnsupported(
                "scalar coercion of a batched vpfloat value")
        return super()._as_bigfloat(value, prec)

    def _fcmp_values(self, a, b, pred):
        a_batched = type(a) is VPBatch
        if a_batched or type(b) is VPBatch:
            base = super()._fcmp_values
            n = len(a.kind) if a_batched else len(b.kind)
            result = 0
            for i in range(n):
                r = base(a.lane(i) if a_batched else a,
                         b.lane(i) if type(b) is VPBatch else b, pred)
                if i == 0:
                    result = r
                elif r != result:
                    self.batch.divergences += 1
                    raise BatchDivergence(
                        "fcmp diverged across batch lanes")
            return result
        return super()._fcmp_values(a, b, pred)

    def _uniform_over(self, batch: VPBatch, fn):
        result = None
        for i in range(len(batch.kind)):
            r = fn(batch.lane(i))
            if i == 0:
                result = r
            elif not _same_scalar(r, result):
                self.batch.divergences += 1
                raise BatchDivergence(
                    "cast diverged across batch lanes")
        return result

    def _cast_value(self, inst, value, frame):
        if type(value) is not VPBatch:
            return super()._cast_value(inst, value, frame)
        opcode = inst.opcode
        target = inst.type
        if opcode == "fptosi":
            bits = target.bits

            def to_si(v):
                if not v.is_finite():
                    raise VPRuntimeError("fptosi of non-finite vpfloat")
                return _mask_int(v.to_int(), bits)

            return self._uniform_over(value, to_si)
        if opcode == "vpconv":
            if target.is_vpfloat:
                if target.format != "mpfr":
                    raise BatchUnsupported(
                        f"vpconv of a batched value to {target.format}")
                prec, _ = self.vp_config(target, frame)
                return value.round_to(prec)

            def to_ieee(v):
                result = v.to_float()
                return _f32(result) if target.bits == 32 else result

            return self._uniform_over(value, to_ieee)
        raise BatchUnsupported(
            f"cast {opcode} applied to a batched vpfloat value")


@dataclass
class BatchResult:
    """Outcome of a batched run: per-lane values and cost reports.

    ``mode`` is ``"batched"`` when the whole batch ran in lockstep
    (one report, shared by every lane) or ``"serial"`` when a
    divergence/unsupported bailout re-ran each lane on the scalar jit
    engine (``fallback_reason`` says why; per-lane reports).
    """

    lanes: int
    values: List[object]
    reports: List[object]
    stdout: List[str] = field(default_factory=list)
    mode: str = "batched"
    fallback_reason: Optional[str] = None
    interpreter: object = None

    @property
    def report(self):
        return self.reports[0]

    def lane_result(self, i: int):
        return self.values[i], self.reports[i]


def lane_view(value, i: int):
    """Lane ``i`` of a possibly-batched runtime value (uniform scalars
    -- ints, floats, plain BigFloats -- are every lane's value)."""
    if type(value) is VPBatch:
        return value.lane(i)
    if isinstance(value, MpfrVar):
        return lane_view(value.value, i)
    return value
