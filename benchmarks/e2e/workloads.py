"""Workloads, front-door requests and correctness checks of the e2e benchmark.

A *request* is what a user of the toolchain does with one generated
PolyBench source: ``CompilerDriver(backend=..., cache=...).compile``,
then ``CompiledProgram.run`` (or ``run_batch``), then the evaluation
harness's output reader.  Every workload is a closed loop: one client
sends its next request only after the previous one returned.

The seed picks each point's precision from a fixed grid per band and
the order of the requests.  Every grid point is pinned in
``expected.json`` (output digest and modeled cycles), so any seed can be
checked; a point missing from the file is a hard error.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core import CompileCache, CompilerDriver
from repro.evaluation import harness
from repro.validation.certificate import values_digest
from repro.workloads.polybench import KERNELS, source_for, \
    vpfloat_mpfr_type, vpfloat_unum_type

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("sweep-cold", "sweep-warm", "exec-large", "unum")

#: Problem size per kernel dimensionality ("tiny n").
TINY_N = {1: 32, 2: 8, 3: 5}

#: MPFR precision bands of the sweeps; the seed draws one grid value
#: per (kernel, backend, band).  The bands follow the kernel tiers:
#: one limb, two limbs, then the generic kernels.
MPFR_BANDS = ((24, 64), (65, 128), (129, 256), (257, 512))
GRID_STEPS = 4

#: (ess, fss) pairs of the unum workload; the seed draws
#: ``UNUM_PAIRS_PER_KERNEL`` distinct pairs per kernel.
UNUM_PAIRS = tuple((ess, fss) for ess in (2, 3, 4) for fss in range(5, 10))
UNUM_PAIRS_PER_KERNEL = 4


def band_grid(low: int, high: int) -> Tuple[int, ...]:
    """``GRID_STEPS`` evenly spaced precisions from ``low`` to ``high``."""
    step = (high - low) / (GRID_STEPS - 1)
    return tuple(low + round(i * step) for i in range(GRID_STEPS))


@dataclass(frozen=True)
class Point:
    """One compile+run request: a kernel source at one type and size."""

    kernel: str
    backend: str
    ftype: str
    n: int
    #: Lanes of a ``run_batch`` execution; 0 runs ``run``.
    lanes: int = 0

    @property
    def key(self) -> str:
        key = f"{self.kernel}|{self.backend}|{self.ftype}|n={self.n}"
        return f"{key}|lanes={self.lanes}" if self.lanes else key

    @property
    def name(self) -> str:
        return f"{self.kernel}-{self.backend}"

    def source(self) -> str:
        return source_for(self.kernel, self.ftype)


@dataclass(frozen=True)
class ExecProgram:
    """An ``exec-large`` program: compiled once, then run many times."""

    kernel: str
    backend: str
    band: Tuple[int, int]
    n: int
    lanes: int = 0

    def point(self, prec: int) -> Point:
        return Point(self.kernel, self.backend, vpfloat_mpfr_type(prec),
                     self.n, self.lanes)


#: Sizes put every program near 0.1 s per run on a 2-core x86 host, so
#: that each round of six takes well under a second and a run measures
#: over a hundred requests.
EXEC_PROGRAMS = (
    ExecProgram("gemm", "mpfr", (65, 128), 16),
    ExecProgram("jacobi-2d", "mpfr", (24, 64), 14),
    ExecProgram("atax", "mpfr", (129, 512), 40),
    ExecProgram("jacobi-1d", "mpfr", (24, 64), 128),
    ExecProgram("gemm", "mpfr", (24, 60), 6, lanes=128),
    ExecProgram("gemm", "boost", (65, 128), 8),
)


def _slots(family: str) -> Iterator[Tuple[str, List[Point]]]:
    """``(kernel, grid points)`` per slot a seed draws from: one slot
    per (kernel, backend, band) for the sweeps, per kernel for unum
    (``UNUM_PAIRS_PER_KERNEL`` draws), per program for exec-large."""
    if family == "sweep":
        for kernel, spec in KERNELS.items():
            for backend in ("mpfr", "boost"):
                for band in MPFR_BANDS:
                    yield kernel, [Point(kernel, backend,
                                         vpfloat_mpfr_type(prec),
                                         TINY_N[spec.dims])
                                   for prec in band_grid(*band)]
    elif family == "unum":
        for kernel, spec in KERNELS.items():
            yield kernel, [Point(kernel, "unum", vpfloat_unum_type(ess, fss),
                                 TINY_N[spec.dims])
                           for ess, fss in UNUM_PAIRS]
    elif family == "exec":
        for program in EXEC_PROGRAMS:
            yield program.kernel, [program.point(prec)
                                   for prec in band_grid(*program.band)]
    else:
        raise ValueError(f"unknown workload family {family!r}")


def all_grid_points() -> List[Point]:
    """Every point any seed can draw, for the reference generator."""
    return [point for family in ("sweep", "unum", "exec")
            for _kernel, points in _slots(family) for point in points]


# ----------------------------------------------------------------- #
# Seeded point lists
# ----------------------------------------------------------------- #

def draw_points(workload: str, seed: int, findings) -> List[Point]:
    """The request list of ``workload`` for ``seed``, in request order.

    Grid points listed as findings in ``expected.json`` (known wrong
    outputs and known compile errors) are never drawn, so every drawn
    request is expected to succeed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    family = workload.split("-")[0]
    rng = random.Random(f"{family}:{seed}")
    per_kernel: Dict[str, List[Point]] = {}
    in_slot_order: List[Point] = []
    for kernel, points in _slots(family):
        choices = [p for p in points if p.key not in findings]
        if family == "unum":
            drawn = rng.sample(choices,
                               min(UNUM_PAIRS_PER_KERNEL, len(choices)))
        else:
            drawn = [rng.choice(choices)] if choices else []
        per_kernel.setdefault(kernel, []).extend(drawn)
        in_slot_order += drawn
    if family == "exec":  # one round; ExecWorkload shuffles every round
        return in_slot_order
    return _interleave(list(per_kernel.values()), rng)


def _interleave(per_kernel: List[List[Point]], rng) -> List[Point]:
    """Seed-shuffled rounds that each take one point of every kernel.

    Timed loops stop only between rounds, so every run measures the same
    mix of kernels, and so comparable tail percentiles, whatever the
    seed."""
    for points in per_kernel:
        rng.shuffle(points)
    order: List[Point] = []
    for turn in range(max(len(points) for points in per_kernel)):
        batch = [points[turn] for points in per_kernel if turn < len(points)]
        rng.shuffle(batch)
        order += batch
    return order


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def require_expected(points: List[Point], expected: dict) -> None:
    missing = [p.key for p in points if p.key not in expected["points"]]
    if missing:
        raise LookupError(f"{len(missing)} point(s) missing from "
                          f"expected.json, first {missing[0]!r}; "
                          "regenerate it with run.py --write-expected")


# ----------------------------------------------------------------- #
# The front door
# ----------------------------------------------------------------- #

@dataclass
class Outcome:
    """What one execution returned, before any checking."""

    outputs: List[list]  # one output list per lane
    report: object  # the CostReport (of lane 0)
    mpfr_stats: object = None
    batch_mode: Optional[str] = None


def compile_point(point: Point, source: str, cache) -> object:
    driver = CompilerDriver(backend=point.backend, cache=cache)
    return driver.compile(source, name=point.name)


def execute(point: Point, program, cache_model: bool = True) -> Outcome:
    """Run ``run(n)`` and read every output element of every lane."""
    count = KERNELS[point.kernel].outputs(point.n)
    if point.lanes:
        result = program.run_batch("run", [point.n], lanes=point.lanes,
                                   cache=cache_model)
        outputs = [harness.read_lane_outputs(
            result.interpreter, int(result.values[lane]), count,
            point.ftype, point.backend, lane=lane)
            for lane in range(point.lanes)]
        return Outcome(outputs, result.reports[0],
                       result.interpreter.mpfr.stats, result.mode)
    result = program.run("run", [point.n], cache=cache_model)
    if point.backend == "unum":
        params = harness.parse_ftype(point.ftype)[1]
        outputs = harness._read_unum_outputs(result.machine,
                                             int(result.value), count,
                                             params)
        return Outcome([outputs], result.report)
    outputs = harness.read_lane_outputs(result.interpreter,
                                        int(result.value), count,
                                        point.ftype, point.backend)
    return Outcome([outputs], result.report, result.interpreter.mpfr.stats)


def check(point: Point, outcome: Outcome, expected: dict) -> Optional[str]:
    """None when the outputs and modeled cycles match ``expected.json``,
    else what differs."""
    entry = expected["points"][point.key]
    digest = values_digest(outcome.outputs[0])
    if digest != entry["digest"]:
        return f"output digest {digest} != expected {entry['digest']}"
    cycles = outcome.report.cycles
    if cycles != entry["cycles"]:
        return f"cycles {cycles} != expected {entry['cycles']}"
    for lane, outputs in enumerate(outcome.outputs[1:], start=1):
        if values_digest(outputs) != digest:
            return f"lane {lane} differs from lane 0"
    return None


# ----------------------------------------------------------------- #
# Workloads
# ----------------------------------------------------------------- #

@dataclass
class Sample:
    """One timed request."""

    request_s: float
    compile_s: Optional[float]
    run_s: Optional[float]
    error: Optional[str] = None
    wrong: Optional[str] = None


class Workload:
    """A seeded request list plus the state its requests share."""

    #: Whether requests compile (False: programs are built in set-up).
    compiles = True

    def __init__(self, name: str, seed: int, expected: dict,
                 workdir: Path, limit: Optional[int] = None):
        self.name = name
        self.seed = seed
        self.expected = expected
        self.workdir = workdir
        self.points = draw_points(name, seed, expected["findings"])
        if limit is not None:
            self.points = self.points[:limit]
        require_expected(self.points, expected)
        self.sources: Dict[str, str] = {p.key: p.source()
                                        for p in self.points}
        #: Offsets in the point list where a round begins; timed loops
        #: stop only there, so every run measures the same mix of points.
        self.round_starts = self._round_starts()
        self._dirs = 0

    def _round_starts(self) -> set:
        """Where a kernel repeats: ``_interleave`` orders each pass as
        rounds holding one point of every kernel."""
        starts, seen = {0}, set()
        for index, point in enumerate(self.points):
            if point.kernel in seen:
                starts.add(index)
                seen = set()
            seen.add(point.kernel)
        return starts

    def fresh_dir(self, label: str) -> Path:
        """A new cache directory, unique across the run's processes."""
        self._dirs += 1
        return self.workdir / f"{label}-{os.getpid()}-{self._dirs}"

    def setup(self) -> None:
        """Pay lazy imports and first-call costs once, before timing:
        one fixed gemm request per backend of the workload, through a
        throwaway cache directory."""
        cache = CompileCache(str(self.fresh_dir("warmup")))
        for backend in sorted({p.backend for p in self.points}):
            ftype = vpfloat_unum_type(*UNUM_PAIRS[0]) \
                if backend == "unum" else vpfloat_mpfr_type(MPFR_BANDS[0][0])
            point = Point("gemm", backend, ftype, TINY_N[KERNELS["gemm"].dims])
            outcome = execute(point, compile_point(point, point.source(),
                                                   cache))
            problem = check(point, outcome, self.expected)
            if problem is not None:
                raise RuntimeError(f"set-up request {point.key}: {problem}")

    def schedule(self) -> Iterator[Tuple[Point, object]]:
        """Endless ``(point, cache)`` stream in request order."""
        raise NotImplementedError

    def program_for(self, point: Point, cache):
        """The compiled program a request runs."""
        return compile_point(point, self.sources[point.key], cache)

    def request(self, point: Point, cache, trace=None) -> Sample:
        """One timed request; the outputs are checked after the clock
        stops."""
        if trace is not None:
            trace.begin_request()
        t0 = clock()
        try:
            program = self.program_for(point, cache)
            t1 = clock()
            outcome = execute(point, program)
        except Exception as exc:  # a failed request is counted, not fatal
            t2 = clock()
            if trace is not None:
                trace.end_request()
            return Sample(t2 - t0, None, None,
                          error=f"{point.key}: {type(exc).__name__}: {exc}")
        t2 = clock()
        if trace is not None:
            trace.end_request(outcome)
        wrong = check(point, outcome, self.expected)
        return Sample(t2 - t0, t1 - t0 if self.compiles else None, t2 - t1,
                      wrong=None if wrong is None else f"{point.key}: {wrong}")


class SweepWorkload(Workload):
    """``sweep-cold``, ``sweep-warm`` and ``unum``: every request
    compiles.  Cold passes each get a fresh, empty cache directory;
    warm passes each open a new ``CompileCache`` over the directory
    :meth:`fill` populated, so every compile is a disk hit."""

    def __init__(self, *args, warm: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.warm = warm
        self.filled = self.workdir / "filled"

    def fill(self) -> None:
        """One untimed pass that leaves a cache directory as an earlier
        evaluation run of the same points would."""
        cache = CompileCache(str(self.filled))
        for point in self.points:
            execute(point, compile_point(point, self.sources[point.key],
                                         cache))

    def schedule(self):
        while True:
            directory = self.filled if self.warm else self.fresh_dir("pass")
            cache = CompileCache(str(directory))
            for point in self.points:
                yield point, cache


class ExecWorkload(Workload):
    """``exec-large``: programs compiled in set-up, then seed-shuffled
    rounds that each run every program once.  No request compiles."""

    compiles = False

    def _round_starts(self) -> set:
        return {0}

    def setup(self) -> None:
        self.programs = {}
        #: Compile times per program.  Requests never compile, so
        #: ``compile_ms_p50`` comes from these: a fresh compile of every
        #: program before every round, timed like the requests.
        self.compile_s: Dict[str, List[float]] = {}
        for point in self.points:
            program = compile_point(point, self.sources[point.key], None)
            self.programs[point.key] = program
            problem = check(point, execute(point, program), self.expected)
            if problem is not None:
                raise RuntimeError(f"set-up run {point.key}: {problem}")

    def schedule(self):
        rng = random.Random(f"exec-rounds:{self.seed}")
        while True:
            for point in self.points:
                t0 = clock()
                compile_point(point, self.sources[point.key], None)
                self.compile_s.setdefault(point.key, []).append(clock() - t0)
            for point in rng.sample(self.points, len(self.points)):
                yield point, None

    def program_for(self, point: Point, cache):
        return self.programs[point.key]

    def cache_model_cost(self, rounds: int = 5) -> float:
        """Median CPU seconds the cache simulator adds to a run: each
        program run with the simulator on and off back to back, the
        pair's order alternating, ``rounds`` times."""
        differences = []
        for turn in range(rounds):
            for point in self.points:
                times = {}
                for cache_model in (turn % 2 == 0, turn % 2 == 1):
                    t0 = clock()
                    execute(point, self.programs[point.key], cache_model)
                    times[cache_model] = clock() - t0
                differences.append(times[True] - times[False])
        return statistics.median(differences)


def make_workload(name: str, seed: int, expected: dict, workdir: Path,
                  limit: Optional[int] = None) -> Workload:
    if name == "exec-large":
        return ExecWorkload(name, seed, expected, workdir, limit)
    return SweepWorkload(name, seed, expected, workdir, limit,
                         warm=(name == "sweep-warm"))


# ----------------------------------------------------------------- #
# Timing
# ----------------------------------------------------------------- #

#: Requests are timed in CPU seconds of the (single-threaded) worker.
#: On an idle host that equals wall time; on a shared virtual machine it
#: leaves out the stretches the host runs someone else on our CPU, which
#: can slow a wall-clock reading by 40% from one minute to the next.
clock = time.process_time

#: CPU seconds :func:`calibrate` takes on the reference host (a quiet
#: 2-vCPU x86-64 virtual machine, CPython 3.11).  Reported times are
#: scaled by it, see :func:`host_slowdown`.
REFERENCE_CALIBRATION_S = 0.0036
#: Wall seconds between calibrations inside a timed loop.
CALIBRATION_INTERVAL_S = 0.2

_CALIBRATION_SOURCE = "\n".join(
    f"def f{i}(a, b):\n    return [a * {i} + b, a - b, {{'k': a}}]"
    for i in range(60))


def calibrate() -> float:
    """CPU seconds of a fixed task that uses no toolchain code.

    Neighbours on a shared host slow our CPU down by up to 70% for tens
    of seconds at a time.  The slowdown reaches this task and the
    requests alike, if not in equal measure.  The task mixes what the
    toolchain spends its time on: the CPython compiler (allocation-heavy
    C), calls, dicts and lists, and 256-bit integer arithmetic."""
    t0 = clock()
    namespace: dict = {}
    exec(compile(_CALIBRATION_SOURCE, "<calibration>", "exec"), namespace)
    x, table = 1, {}
    for i in range(1500):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 256)
        table[i] = namespace[f"f{i % 60}"](i, x & 0xFFFF)
    total = 0
    for i in range(15000):
        total += i * i % 7
    return clock() - t0


def host_slowdown(calibrations: List[float]) -> float:
    """How much slower than the reference host this run's CPU was: the
    median calibration over :data:`REFERENCE_CALIBRATION_S`.  Times
    divided by it read as on the reference host."""
    return statistics.median(calibrations) / REFERENCE_CALIBRATION_S


@dataclass
class Measured:
    """The timed requests of one loop, in order, and the calibrations
    taken between them."""

    samples: List[Sample]
    points: List[Point]
    calibrations: List[float]


def measure(workload: Workload, seconds: float,
            count: Optional[int] = None, trace=None) -> Measured:
    """Closed loop: requests in schedule order until ``seconds`` of wall
    time have passed and a round is complete (or, with ``count``,
    exactly that many requests), with a :func:`calibrate` every
    :data:`CALIBRATION_INTERVAL_S`."""
    run = Measured([], [], [])
    per_pass = len(workload.points)
    deadline = time.monotonic() + seconds
    next_calibration = 0.0
    for point, cache in workload.schedule():
        done = len(run.samples)
        now = time.monotonic()
        if count is not None:
            if done >= count:
                break
        elif done % per_pass in workload.round_starts and now >= deadline:
            break
        if now >= next_calibration:
            run.calibrations.append(calibrate())
            next_calibration = now + CALIBRATION_INTERVAL_S
        run.samples.append(workload.request(point, cache, trace))
        run.points.append(point)
    return run
