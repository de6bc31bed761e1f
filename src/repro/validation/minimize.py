"""Delta-debugging minimizer for failing fuzz programs.

:func:`minimize` shrinks a :class:`~repro.validation.fuzzer.FuzzProgram`
that fails a caller-supplied predicate (``predicate(program) -> bool``,
True when the failure still reproduces) to a small reproducer:

1. **ddmin over ops** -- remove chunks of instructions (halving
   granularity, classic Zeller/Hildebrandt), renumbering the surviving
   value references; a candidate subset is only well-formed when every
   op's operands survive with it, so ill-formed subsets are skipped
   rather than tested.
2. **Literal simplification** -- rewrite literal text toward simpler
   spellings ("1.0", "0.0", ...) wherever the failure persists.
3. **Loop-trip reduction** -- shrink loop trip counts toward 1.

The whole process is deterministic (no randomness, fixed scan orders)
and memoizes predicate calls by program digest, so re-running a
minimization replays identically.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..observability import current_metrics
from .fuzzer import LOOP_OPS, FuzzOp, FuzzProgram

#: Simpler literal spellings, tried in order during simplification.
SIMPLE_LITERALS = ("1.0", "0.0", "2.0", "0.5")


def _rebuild(program: FuzzProgram,
             keep: Sequence[int]) -> Optional[FuzzProgram]:
    """The subprogram over ``keep`` (sorted op indexes), with value
    references renumbered; None when it would be ill-formed."""
    if not keep:
        return None
    renumber: Dict[int, int] = {old: new for new, old in enumerate(keep)}
    ops: List[FuzzOp] = []
    for old in keep:
        op = program.ops[old]
        for ref in op.references():
            if ref not in renumber:
                return None
        if op.op == "lit":
            ops.append(op)
        elif op.op in LOOP_OPS:
            trips = op.args[0]
            ops.append(FuzzOp(op.op, (trips,) + tuple(
                renumber[r] for r in op.args[1:])))
        else:
            ops.append(FuzzOp(op.op, tuple(
                renumber[r] for r in op.args)))
    if ops[0].op != "lit":
        return None
    return FuzzProgram(program.prec, tuple(ops))


class _Memo:
    """Predicate wrapper: memoizes by digest, counts evaluations."""

    def __init__(self, predicate: Callable[[FuzzProgram], bool]):
        self._predicate = predicate
        self._seen: Dict[str, bool] = {}
        self.evaluations = 0

    def __call__(self, program: FuzzProgram) -> bool:
        key = program.digest()
        if key not in self._seen:
            self.evaluations += 1
            self._seen[key] = bool(self._predicate(program))
        return self._seen[key]


def _ddmin_ops(program: FuzzProgram, failing: _Memo) -> FuzzProgram:
    """Classic ddmin over the instruction list."""
    indexes: Tuple[int, ...] = tuple(range(len(program.ops)))
    granularity = 2
    while len(indexes) >= 2:
        chunk = max(1, len(indexes) // granularity)
        reduced = False
        start = 0
        while start < len(indexes):
            keep = indexes[:start] + indexes[start + chunk:]
            candidate = _rebuild(program, keep)
            if candidate is not None and failing(candidate):
                indexes = keep
                granularity = max(granularity - 1, 2)
                reduced = True
                # Restart the scan on the reduced list.
                start = 0
                continue
            start += chunk
        if not reduced:
            if chunk == 1:
                break
            granularity = min(granularity * 2, len(indexes))
    rebuilt = _rebuild(program, indexes)
    assert rebuilt is not None  # the original always rebuilds
    return rebuilt


def _redirect(program: FuzzProgram, failing: _Memo) -> FuzzProgram:
    """Retarget operands at earlier values (ascending scan).

    Rewiring ``loop(n, v2, v1, v3)`` to ``loop(n, v0, v0, v0)`` frees
    the intermediate definitions for the next ddmin round to delete."""
    changed = True
    while changed:
        changed = False
        for i, op in enumerate(program.ops):
            if op.op == "lit":
                continue
            head = (op.args[:1] if op.op in LOOP_OPS else ())
            refs = list(op.args[len(head):])
            for slot, current in enumerate(refs):
                for target in range(current):
                    trial = list(refs)
                    trial[slot] = target
                    ops = list(program.ops)
                    ops[i] = FuzzOp(op.op, head + tuple(trial))
                    candidate = FuzzProgram(program.prec, tuple(ops))
                    if failing(candidate):
                        program = candidate
                        refs = trial
                        changed = True
                        break
    return program


def _simplify(program: FuzzProgram, failing: _Memo) -> FuzzProgram:
    """Literal and loop-trip simplification to a fixed point."""
    changed = True
    while changed:
        changed = False
        for i, op in enumerate(program.ops):
            if op.op == "lit":
                for text in SIMPLE_LITERALS:
                    if op.args[0] == text:
                        break
                    ops = list(program.ops)
                    ops[i] = FuzzOp("lit", (text,))
                    candidate = FuzzProgram(program.prec, tuple(ops))
                    if failing(candidate):
                        program = candidate
                        changed = True
                        break
            elif op.op in LOOP_OPS and op.args[0] > 1:
                ops = list(program.ops)
                ops[i] = FuzzOp(op.op, (op.args[0] - 1,) + op.args[1:])
                candidate = FuzzProgram(program.prec, tuple(ops))
                if failing(candidate):
                    program = candidate
                    changed = True
    return program


def minimize(program: FuzzProgram,
             predicate: Callable[[FuzzProgram], bool]) -> FuzzProgram:
    """Shrink ``program`` while ``predicate`` keeps returning True.

    ``predicate(program)`` must be True for the input program (i.e. the
    failure reproduces); raises ValueError otherwise so a flaky
    reproduction is caught up front instead of silently minimizing to
    garbage.
    """
    failing = _Memo(predicate)
    if not failing(program):
        raise ValueError("predicate does not hold on the input program; "
                         "nothing to minimize")
    before = len(program)
    program = _ddmin_ops(program, failing)
    # Redirection and simplification can unlock further op removal
    # (a freed operand chain, a literal another op already loads), and
    # removal can expose new redirection targets: iterate to a fixed
    # point.
    while True:
        program = _redirect(program, failing)
        program = _simplify(program, failing)
        smaller = _ddmin_ops(program, failing)
        if len(smaller) == len(program):
            program = smaller
            break
        program = smaller
    registry = current_metrics()
    if registry is not None:
        registry.inc("validate.minimize.runs")
        registry.inc("validate.minimize.ops_removed",
                     before - len(program))
        registry.inc("validate.minimize.evaluations",
                     failing.evaluations)
    return program
