"""Performance model: per-operation cycle costs, cache hierarchy, reports.

This is the repository's substitute for the paper's Intel Xeon E5-2637v3
testbed (DESIGN.md substitution table).  Cycle costs are calibrated to the
*structure* that drives the paper's results:

- an MPFR library call costs a fixed call overhead plus a per-limb-word
  dataflow term -- hundreds of cycles at the paper's precisions, which is
  why the UNUM coprocessor's few-cycle hardware ops win by 18-27x (Fig. 2);
- ``mpfr_init2``/``mpfr_clear`` include heap allocator work, so lowering
  that avoids temporaries (late lowering + object reuse) saves real cycles
  -- the vpfloat-vs-Boost gap (Fig. 1);
- loads/stores run through a 3-level LRU cache model; misses cost DRAM
  latency, and total DRAM traffic feeds the OpenMP bandwidth-contention
  model (paper: Boost turns compute-bound kernels memory-bound).
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional


# ----------------------------------------------------------------- #
# Cache hierarchy
# ----------------------------------------------------------------- #

@dataclass
class CacheLevel:
    name: str
    capacity_bytes: int
    line_bytes: int
    hit_cycles: int


#: Geometry approximating one Xeon E5-2637v3 core (L3 shared).
DEFAULT_LEVELS = (
    CacheLevel("L1", 32 * 1024, 64, 4),
    CacheLevel("L2", 256 * 1024, 64, 12),
    CacheLevel("L3", 15 * 1024 * 1024, 64, 40),
)
DRAM_CYCLES = 200
#: DRAM bandwidth in bytes per cycle (shared across cores in OpenMP mode);
#: ~20 GB/s at 3 GHz.
DRAM_BYTES_PER_CYCLE = 7.0
#: Serialized cost per heap allocation when many threads hammer the
#: allocator simultaneously (glibc arena lock + freed-block cache-line
#: ping-pong).  This is the proxy for the paper's observation that
#: Boost's per-operation temporaries turn compute-bound kernels
#: memory-bound under OpenMP (hardware counters: up to 90x more LLC
#: misses).
ALLOCATOR_CONTENTION_CYCLES = 110


class CacheModel:
    """Inclusive multi-level LRU cache simulator over line addresses.

    :meth:`touch` is the one entry every access goes through (the
    ``Memory`` observer, the MPFR handlers' limb-block touches and the
    jit's MPFR helpers): it updates recency and counters and returns the
    cycles it charged, so callers add them to their report without a
    before/after read of ``access_cycles``.  An access that stays in one
    L1-resident line costs a line computation, one membership test,
    ``move_to_end`` and the counters; misses and line-straddling
    accesses walk the levels in :meth:`_touch_slow`/:meth:`_fill_upper`.
    L2/L3 recency is updated only on L1 misses.

    :meth:`access` is the plain per-line walk of the same model, kept as
    the reference :meth:`touch` is checked against.
    """

    def __init__(self, levels=DEFAULT_LEVELS, dram_cycles: int = DRAM_CYCLES):
        self.levels = levels
        self.dram_cycles = dram_cycles
        self._sets = [OrderedDict() for _ in levels]
        self.hits = [0 for _ in levels]
        self.misses_to_dram = 0
        self.dram_bytes = 0
        self.access_cycles = 0
        #: The L1 set, for callers that inline :meth:`touch`'s L1-hit
        #: path (line size and hit cycles come from ``levels[0]``).
        self.l1 = self._sets[0]
        # Hot-path constants (line granularity is the L1 geometry).
        self._line = levels[0].line_bytes
        self._l1_hit_cycles = levels[0].hit_cycles
        self._limits = [lv.capacity_bytes // lv.line_bytes for lv in levels]

    def touch(self, addr: int, nbytes: int) -> int:
        """One access of ``nbytes`` at ``addr``; -> cycles charged."""
        line = self._line
        first = addr // line
        if nbytes <= 1 or (addr + nbytes - 1) // line == first:
            l1 = self.l1
            if first in l1:
                l1.move_to_end(first)
                self.hits[0] += 1
                cycles = self._l1_hit_cycles
                self.access_cycles += cycles
                return cycles
            return self._touch_slow(first)
        before = self.access_cycles
        self._walk(first, (addr + nbytes - 1) // line)
        return self.access_cycles - before

    def access(self, kind: str, addr: int, nbytes: int) -> None:
        """Reference per-line walk of one access (``kind`` is unused:
        reads and writes allocate alike)."""
        line = self._line
        first = addr // line
        self._walk(first, (addr + nbytes - 1) // line if nbytes > 1
                   else first)

    def _walk(self, first: int, last: int) -> None:
        l1 = self.l1
        for line_addr in range(first, last + 1):
            if line_addr in l1:
                # L1 hit: nothing to promote, just recency + cycles.
                l1.move_to_end(line_addr)
                self.hits[0] += 1
                self.access_cycles += self._l1_hit_cycles
            else:
                self._touch_slow(line_addr)

    def _touch_slow(self, line_addr: int) -> int:
        """An L1 miss of one line; -> cycles charged."""
        levels = self.levels
        for i in range(1, len(levels)):
            cache = self._sets[i]
            if line_addr in cache:
                cache.move_to_end(line_addr)
                self.hits[i] += 1
                cycles = levels[i].hit_cycles
                self.access_cycles += cycles
                self._fill_upper(i, line_addr)
                return cycles
        # Miss all the way to DRAM.
        self.misses_to_dram += 1
        self.dram_bytes += self._line
        self.access_cycles += self.dram_cycles
        self._fill_upper(len(levels), line_addr)
        return self.dram_cycles

    def _fill_upper(self, found_level: int, line_addr: int) -> None:
        for i in range(found_level):
            cache = self._sets[i]
            cache[line_addr] = True
            cache.move_to_end(line_addr)
            limit = self._limits[i]
            while len(cache) > limit:
                cache.popitem(last=False)

    def llc_misses(self) -> int:
        return self.misses_to_dram


# ----------------------------------------------------------------- #
# Cycle costs
# ----------------------------------------------------------------- #

@dataclass(frozen=True)
class CycleCosts:
    """Scalar-core instruction costs plus MPFR library cost coefficients."""

    int_op: int = 1
    branch: int = 1
    f64_add: int = 3
    f64_mul: int = 5
    f64_div: int = 20
    f64_other: int = 3
    call_overhead: int = 10
    ret: int = 2
    malloc: int = 80
    free: int = 40
    # MPFR library calls: overhead + per-64-bit-word cost.
    mpfr_call_overhead: int = 45
    mpfr_add_per_word: int = 10
    mpfr_mul_per_word: int = 14
    mpfr_div_per_word: int = 38
    mpfr_sqrt_per_word: int = 46
    mpfr_transcendental_per_word: int = 220
    mpfr_set_per_word: int = 4
    mpfr_init_extra: int = 30   # beyond the malloc it performs
    mpfr_clear_extra: int = 12  # beyond the free
    mpfr_cmp: int = 25
    # Runtime free-list pool (interpreter MPFR object reuse): a hit or
    # release touches only the list head -- no allocator round-trip.
    mpfr_pool_hit_extra: int = 6
    mpfr_pool_release_extra: int = 4
    omp_fork_join: int = 4000
    atomic_section: int = 120

    def words(self, prec_bits: int) -> int:
        return max(1, (prec_bits + 63) // 64)

    def mpfr_op_cost(self, name: str, prec_bits: int) -> int:
        """Cycles for one MPFR entry point at the given precision."""
        w = self.words(prec_bits)
        base = self.mpfr_call_overhead
        if "init" in name:
            return base + self.mpfr_init_extra + self.malloc
        if "clear" in name:
            return base + self.mpfr_clear_extra + self.free
        if "cmp" in name:
            return base + self.mpfr_cmp
        if "set" in name or "swap" in name or "get" in name:
            return base + self.mpfr_set_per_word * w
        if "sqrt" in name:
            return base + self.mpfr_sqrt_per_word * w * w
        if any(t in name for t in ("exp", "log", "sin", "cos", "pow")):
            return base + self.mpfr_transcendental_per_word * w * w
        if "div" in name:
            return base + self.mpfr_div_per_word * w * w
        if "mul" in name:
            return base + self.mpfr_mul_per_word * w * w
        # add/sub/neg/abs and friends: linear in words.
        return base + self.mpfr_add_per_word * w


#: Cost profile for MPFR software running on the in-order RISC-V Rocket
#: core of the paper's FPGA platform (Fig. 2 baseline).  A Rocket spends
#: several times more cycles per MPFR limb operation than the Xeon the
#: default profile models: single-issue, no out-of-order overlap of the
#: limb loops, slower allocator.  Ratios follow published Rocket-vs-Xeon
#: IPC comparisons (~3-4x on integer-dominated code).
ROCKET_CYCLE_COSTS = CycleCosts(
    int_op=1,
    branch=2,
    f64_add=4,
    f64_mul=6,
    f64_div=30,
    f64_other=4,
    call_overhead=24,
    ret=4,
    malloc=260,
    free=130,
    mpfr_call_overhead=110,
    mpfr_add_per_word=34,
    mpfr_mul_per_word=48,
    mpfr_div_per_word=130,
    mpfr_sqrt_per_word=160,
    mpfr_transcendental_per_word=700,
    mpfr_set_per_word=14,
    mpfr_init_extra=90,
    mpfr_clear_extra=40,
    mpfr_cmp=80,
    mpfr_pool_hit_extra=18,
    mpfr_pool_release_extra=12,
    omp_fork_join=4000,
    atomic_section=200,
)


# ----------------------------------------------------------------- #
# Reports
# ----------------------------------------------------------------- #

@dataclass
class CostReport:
    """Everything a run produces for the evaluation harness."""

    cycles: int = 0
    instructions: int = 0
    mpfr_calls: int = 0
    mpfr_allocations: int = 0
    heap_allocations: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    cache_hits: tuple = (0, 0, 0)
    llc_misses: int = 0
    dram_bytes: int = 0
    parallel_cycles: int = 0       # cycles spent inside parallel regions
    serial_cycles: int = 0
    parallel_dram_bytes: int = 0
    parallel_heap_allocations: int = 0
    by_category: Dict[str, int] = field(
        default_factory=lambda: defaultdict(int))

    def charge(self, category: str, cycles: int) -> None:
        self.cycles += cycles
        self.by_category[category] += cycles

    def parallel_time(self, threads: int,
                      bandwidth: float = DRAM_BYTES_PER_CYCLE,
                      fork_join: int = 4000,
                      allocator_contention: int =
                      ALLOCATOR_CONTENTION_CYCLES) -> float:
        """Modeled execution time on ``threads`` cores (roofline).

        Serial cycles run as-is.  Parallel-region cycles divide across
        threads but can never beat (a) the DRAM roofline -- the region's
        DRAM traffic over the shared bandwidth -- or (b) the allocator
        serialization floor: each heap allocation performed inside the
        region serializes on the shared allocator and bounces freed
        blocks between cores.  (b) is what stops per-op-temporary code
        (Boost) from scaling while the vpfloat backend, whose regions
        allocate nothing, keeps scaling to 16 threads -- the paper's
        7-9x OpenMP gap.
        """
        if threads <= 1:
            return float(self.cycles)
        return self.serial_cycles + self.kernel_time(
            threads, bandwidth, fork_join, allocator_contention)

    def kernel_time(self, threads: int,
                    bandwidth: float = DRAM_BYTES_PER_CYCLE,
                    fork_join: int = 4000,
                    allocator_contention: int =
                    ALLOCATOR_CONTENTION_CYCLES) -> float:
        """Time of the parallel region alone (what RAJAPerf's kernel
        timers measure)."""
        if threads <= 1:
            return float(self.parallel_cycles)
        compute = self.parallel_cycles / threads
        memory_floor = self.parallel_dram_bytes / bandwidth
        contention = (self.parallel_heap_allocations * allocator_contention
                      * (threads - 1) / threads)
        return max(compute, memory_floor) + contention + fork_join


class CostAccounting:
    """Mutable accounting shared by the interpreter and runtime libs."""

    def __init__(self, costs: Optional[CycleCosts] = None,
                 cache: Optional[CacheModel] = None):
        self.costs = costs or CycleCosts()
        #: None simulates no cache: accesses are free and uncounted.
        self.cache = cache
        self.report = CostReport()
        self._parallel_depth = 0
        self._parallel_start_cycles = 0
        self._parallel_start_dram = 0
        self._parallel_start_allocs = 0

    # -------------------------------------------------------- #

    def charge(self, category: str, cycles: int) -> None:
        self.report.charge(category, cycles)

    def memory_access(self, kind: str, addr: int, nbytes: int) -> None:
        cache = self.cache
        if cache is not None:
            self.report.cycles += cache.touch(addr, nbytes)

    # ---- OpenMP region tracking ------------------------------ #

    def parallel_begin(self) -> None:
        if self._parallel_depth == 0:
            self._parallel_start_cycles = self.report.cycles
            self._parallel_start_dram = (self.cache.dram_bytes
                                         if self.cache else 0)
            self._parallel_start_allocs = self.report.heap_allocations
        self._parallel_depth += 1

    def parallel_end(self) -> None:
        self._parallel_depth -= 1
        if self._parallel_depth == 0:
            region = self.report.cycles - self._parallel_start_cycles
            self.report.parallel_cycles += region
            if self.cache is not None:
                self.report.parallel_dram_bytes += (
                    self.cache.dram_bytes - self._parallel_start_dram
                )
            self.report.parallel_heap_allocations += (
                self.report.heap_allocations - self._parallel_start_allocs
            )
            self.charge("omp_fork_join", self.costs.omp_fork_join)

    # -------------------------------------------------------- #

    def finalize(self, memory=None) -> CostReport:
        if self.cache is not None:
            self.report.cache_hits = tuple(self.cache.hits)
            self.report.llc_misses = self.cache.llc_misses()
            self.report.dram_bytes = self.cache.dram_bytes
        if memory is not None:
            self.report.bytes_read = memory.bytes_read
            self.report.bytes_written = memory.bytes_written
        self.report.serial_cycles = (self.report.cycles
                                     - self.report.parallel_cycles)
        return self.report
