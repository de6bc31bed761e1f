"""IR-level profiler: cycles and wall time per IR instruction.

:func:`exact_run` (reached through ``CompiledProgram.run(...,
profile=True)`` and ``vpfloat-cc --profile``) executes on the **legacy
reference walker** with a per-instruction hook and attributes both
modeled cycles and measured wall time to every IR instruction executed,
exactly: the self-cycle bookkeeping guarantees that the sum of all
attributed cycles (instructions + the outer call-overhead
pseudo-record) equals the run's ``CostReport.cycles`` to the cycle.
Calls into runtime-library declarations (the MPFR entry points,
allocation, I/O) are also attributed per builtin name.

Comparing the two columns per opcode (:func:`divergence`) flags where
the cost model and the host disagree -- an opcode taking a far larger
share of wall time than of modeled cycles is either under-modeled or
hitting a slow host path.  A profile exports collapsed-stack
flamegraphs (``func;func;block:op <weight>`` lines, one stack per
line, weighted by cycles or wall microseconds) that speedscope and
Brendan Gregg's ``flamegraph.pl`` load directly.

Profiling never changes what a run computes or charges: the hook wraps
``_execute`` without touching accounting, so values and CostReports
stay bit-identical to unprofiled runs.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

__all__ = [
    "IRProfile",
    "OpcodeDivergence",
    "divergence",
    "exact_run",
]

#: Pseudo-opcode for cycles charged outside any instruction (the
#: outermost function's call/ret overhead in the legacy walker).
OVERHEAD = "<overhead>"


class IRProfile:
    """Aggregated per-instruction attribution of one profiled run.

    ``records`` maps ``(function, block, inst_index, opcode)`` to
    ``[count, cycles, wall_seconds]``; ``stacks`` maps collapsed call
    paths (tuples of frame strings, leaf last) to the same triple.
    ``builtin_calls``/``builtin_cycles`` attribute calls into runtime
    declarations per callee name.
    """

    def __init__(self):
        self.records: Dict[tuple, List[float]] = {}
        self.stacks: Dict[Tuple[str, ...], List[float]] = {}
        self.total_cycles = 0
        self.total_wall = 0.0
        self.builtin_calls: Dict[str, int] = {}
        self.builtin_cycles: Dict[str, int] = {}

    # ---- accumulation ------------------------------------------- #

    def rows_for(self, key: tuple, path: Tuple[str, ...]) -> tuple:
        """The (record, stack) rows of ``key``/``path``, created empty
        on first use."""
        row = self.records.get(key)
        if row is None:
            row = self.records[key] = [0, 0, 0.0]
        srow = self.stacks.get(path)
        if srow is None:
            srow = self.stacks[path] = [0, 0, 0.0]
        return row, srow

    def add(self, key: tuple, path: Tuple[str, ...],
            cycles: int, wall: float, count: int = 1) -> None:
        for row in self.rows_for(key, path):
            row[0] += count
            row[1] += cycles
            row[2] += wall

    def add_builtin(self, name: str, cycles: int) -> None:
        self.builtin_calls[name] = self.builtin_calls.get(name, 0) + 1
        self.builtin_cycles[name] = \
            self.builtin_cycles.get(name, 0) + cycles

    # ---- views -------------------------------------------------- #

    def attributed_cycles(self) -> int:
        return sum(int(row[1]) for row in self.records.values())

    @property
    def opcode_counts(self) -> Dict[str, int]:
        """opcode -> executed instructions (the overhead pseudo-record
        excluded), in first-execution order."""
        return {opcode: int(row[0])
                for opcode, row in self.by_opcode().items()
                if opcode != OVERHEAD}

    def hottest_opcodes(self, limit: int = 10) -> List[Tuple[str, int]]:
        """Most executed opcodes; ties keep first-execution order."""
        ranked = sorted(self.opcode_counts.items(),
                        key=lambda kv: kv[1], reverse=True)
        return ranked[:limit]

    def hottest_builtins(self, limit: int = 10
                         ) -> List[Tuple[str, int, int]]:
        """(name, calls, cycles) of the builtins with the most
        modeled cycles."""
        ranked = sorted(self.builtin_cycles.items(),
                        key=lambda kv: kv[1], reverse=True)
        return [(name, self.builtin_calls[name], cycles)
                for name, cycles in ranked[:limit]]

    def by_opcode(self) -> Dict[str, List[float]]:
        """opcode -> [count, cycles, wall], instruction rows merged."""
        out: Dict[str, List[float]] = {}
        for (_, _, _, opcode), (count, cycles, wall) in \
                self.records.items():
            row = out.setdefault(opcode, [0, 0, 0.0])
            row[0] += count
            row[1] += cycles
            row[2] += wall
        return out

    def rows(self, limit: Optional[int] = None) -> List[tuple]:
        """(function, block, index, opcode, count, cycles, wall) sorted
        by modeled cycles, heaviest first."""
        ordered = sorted(self.records.items(), key=lambda kv: -kv[1][1])
        if limit is not None:
            ordered = ordered[:limit]
        return [key + tuple(row) for key, row in ordered]

    # ---- export ------------------------------------------------- #

    def write_collapsed(self, path, unit: str = "cycles") -> int:
        """Write a collapsed-stack flamegraph (speedscope-loadable).

        ``unit`` picks the stack weight: ``"cycles"`` or ``"wall"``
        (microseconds).  Returns the number of stacks written.
        """
        if unit not in ("cycles", "wall"):
            raise ValueError(f"unknown flamegraph unit {unit!r}")
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for stack, (count, cycles, wall) in sorted(
                    self.stacks.items()):
                weight = int(cycles) if unit == "cycles" \
                    else int(round(wall * 1e6))
                if weight <= 0:
                    continue
                handle.write(";".join(stack) + f" {weight}\n")
                written += 1
        return written

    def render(self, limit: int = 20) -> str:
        """Human-readable hot-instruction table."""
        lines = [f"ir profile: {len(self.records)} locations, "
                 f"{self.total_cycles} cycles, "
                 f"{self.total_wall * 1e3:.2f} ms"]
        header = (f"  {'function':<18} {'block':<16} {'#':>4} "
                  f"{'opcode':<14} {'count':>9} {'cycles':>12} "
                  f"{'wall_us':>10}")
        lines.append(header)
        for func, block, index, opcode, count, cycles, wall in \
                self.rows(limit):
            idx = "-" if index is None else str(index)
            lines.append(
                f"  {func:<18} {block:<16} {idx:>4} {opcode or '-':<14} "
                f"{int(count):>9} {int(cycles):>12} "
                f"{wall * 1e6:>10.1f}")
        return "\n".join(lines)


# ----------------------------------------------------------------- #
# Exact attribution on the legacy reference walker
# ----------------------------------------------------------------- #

class _ExactHook:
    """The per-instruction hook: measures self cycles and self wall.

    A nested call's charges land inside the outer CallInst's delta; the
    ``attributed`` accumulators subtract whatever nested hook firings
    already claimed, so every cycle is attributed exactly once and the
    per-instruction sum telescopes to the report total.
    """

    def __init__(self, interp, profile: IRProfile):
        self.interp = interp
        self.profile = profile
        self.attributed_cycles = 0
        self.attributed_wall = 0.0
        self.stack: List[tuple] = []
        self._indices: Dict[int, Dict[int, int]] = {}

    def _index(self, block, inst) -> int:
        table = self._indices.get(id(block))
        if table is None:
            table = {id(i): n
                     for n, i in enumerate(block.instructions)}
            self._indices[id(block)] = table
        return table.get(id(inst), -1)

    def _path(self, leaf: tuple) -> Tuple[str, ...]:
        # One in-flight instruction per frame: the stack below the leaf
        # is the CallInst chain, so its function names are the call
        # path.
        path = [entry[0] for entry in self.stack[:-1]]
        path.append(leaf[0])
        path.append(f"{leaf[1]}:{leaf[3]}")
        return tuple(path)

    def __call__(self, block, inst, frame):
        interp = self.interp
        report = interp.accounting.report
        entry = (frame.function.name, block.name,
                 self._index(block, inst), inst.opcode)
        self.stack.append(entry)
        # Rows exist before the instruction runs, so records keep
        # first-execution order (a call ahead of its callee's body).
        rows = self.profile.rows_for(entry, self._path(entry))
        cycles0 = report.cycles
        attributed0 = self.attributed_cycles
        attributed_wall0 = self.attributed_wall
        wall0 = time.perf_counter()
        try:
            return interp._execute(inst, frame)
        finally:
            delta_cycles = report.cycles - cycles0
            delta_wall = time.perf_counter() - wall0
            self_cycles = delta_cycles \
                - (self.attributed_cycles - attributed0)
            self_wall = delta_wall \
                - (self.attributed_wall - attributed_wall0)
            self.attributed_cycles = attributed0 + delta_cycles
            self.attributed_wall = attributed_wall0 + delta_wall
            for row in rows:
                row[0] += 1
                row[1] += self_cycles
                row[2] += self_wall
            if entry[3] == "call" and inst.callee.is_declaration:
                self.profile.add_builtin(inst.callee.name, self_cycles)
            self.stack.pop()


def exact_run(interp, name: str, args=None):
    """Run ``name`` on ``interp`` (a legacy-walker interpreter) with
    exact IR attribution.

    Returns the run's ExecutionResult with an :class:`IRProfile` as
    ``result.profile``, whose attributed cycles sum exactly to
    ``result.report.cycles``.  The run itself is a plain legacy-engine
    execution -- values and the CostReport are bit-identical to an
    unprofiled one.  ``CompiledProgram.run(..., profile=True)`` is the
    entry point.
    """
    profile = IRProfile()
    hook = _ExactHook(interp, profile)
    interp._inst_hook = hook
    wall0 = time.perf_counter()
    try:
        result = interp.run(name, args)
    finally:
        interp._inst_hook = None
    total_wall = time.perf_counter() - wall0
    # Cycles charged outside any instruction: the outermost call's
    # call/ret overhead (nested calls' overheads belong to their
    # CallInst and were already claimed by its hook).
    overhead = result.report.cycles - hook.attributed_cycles
    if overhead:
        profile.add((name, "<call>", None, OVERHEAD),
                    (name, OVERHEAD), overhead,
                    max(total_wall - hook.attributed_wall, 0.0))
    profile.total_cycles = result.report.cycles
    profile.total_wall = total_wall
    result.profile = profile
    return result


# ----------------------------------------------------------------- #
# Model-vs-wall divergence
# ----------------------------------------------------------------- #

class OpcodeDivergence:
    """One opcode whose wall-time share disagrees with its modeled
    cycle share by more than the threshold factor."""

    def __init__(self, opcode: str, cycle_share: float,
                 wall_share: float):
        self.opcode = opcode
        self.cycle_share = cycle_share
        self.wall_share = wall_share

    @property
    def factor(self) -> float:
        """wall share over cycle share; >1 means the host spends
        relatively more time here than the model predicts."""
        if self.cycle_share <= 0.0:
            return math.inf
        return self.wall_share / self.cycle_share

    def render(self) -> str:
        factor = self.factor
        shown = "inf" if math.isinf(factor) else f"{factor:.2f}x"
        return (f"{self.opcode}: wall {self.wall_share * 100:.1f}% vs "
                f"model {self.cycle_share * 100:.1f}% ({shown})")


def divergence(model: IRProfile, threshold: float = 2.0,
               min_share: float = 0.02) -> List[OpcodeDivergence]:
    """Opcodes where wall-time share and modeled-cycle share disagree.

    ``model``'s exact hook measured both columns.  Only opcodes holding at least ``min_share`` of either total are
    considered, and a divergence is flagged when the shares differ by
    more than ``threshold`` in either direction.
    """
    by_opcode = model.by_opcode()
    cycles_by_op = {op: row[1] for op, row in by_opcode.items()}
    wall_by_op = {op: row[2] for op, row in by_opcode.items()}
    total_cycles = sum(cycles_by_op.values()) or 1
    total_wall = sum(wall_by_op.values()) or 1.0
    out: List[OpcodeDivergence] = []
    for opcode in sorted(set(cycles_by_op) | set(wall_by_op)):
        if opcode == OVERHEAD:
            continue
        cycle_share = cycles_by_op.get(opcode, 0) / total_cycles
        wall_share = wall_by_op.get(opcode, 0.0) / total_wall
        if max(cycle_share, wall_share) < min_share:
            continue
        lo, hi = sorted((cycle_share, wall_share))
        if lo <= 0.0 or hi / lo > threshold:
            out.append(OpcodeDivergence(opcode, cycle_share,
                                        wall_share))
    out.sort(key=lambda d: -abs(d.wall_share - d.cycle_share))
    return out
