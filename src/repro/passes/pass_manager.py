"""Pass management: ordering, statistics, the -O3 pipeline.

The pipeline mirrors the paper's setup: all mid-level passes run on IR
where vpfloat values are first-class scalars, and the backend lowerings
(:mod:`repro.backends`) run *after* the main optimizations ("at a late
stage of the middle-end", §III-C1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from ..ir import Function, Module, verify_module
from ..observability import CAT_PASS, observe


@dataclass
class PassStatistics:
    """What each pass changed (and how long it took), by pass name."""

    changes: Dict[str, int] = field(default_factory=dict)
    #: Wall-clock seconds per pass, in pipeline order.
    timings: Dict[str, float] = field(default_factory=dict)

    def record(self, name: str, changed: int) -> None:
        self.changes[name] = self.changes.get(name, 0) + int(changed)

    def record_time(self, name: str, seconds: float) -> None:
        self.timings[name] = self.timings.get(name, 0.0) + seconds


class FunctionPass:
    """Base class: transform one function, return #changes (0 = no-op)."""

    name = "<pass>"

    def run(self, func: Function) -> int:  # pragma: no cover - interface
        raise NotImplementedError


class ModulePass:
    """Base class for whole-module transforms (inlining, lowering)."""

    name = "<module-pass>"

    def run_module(self, module: Module) -> int:  # pragma: no cover
        raise NotImplementedError


class PassManager:
    def __init__(self, verify_each: bool = False):
        self.passes: List[object] = []
        self.stats = PassStatistics()
        self.verify_each = verify_each

    def add(self, pass_: object) -> "PassManager":
        self.passes.append(pass_)
        return self

    def run(self, module: Module) -> PassStatistics:
        for pass_ in self.passes:
            with observe(f"pass:{pass_.name}", cat=CAT_PASS) as obs:
                started = time.perf_counter()
                if isinstance(pass_, ModulePass):
                    changed_total = int(pass_.run_module(module))
                else:
                    changed_total = sum(
                        int(pass_.run(func))
                        for func in list(module.functions.values())
                        if not func.is_declaration)
                self.stats.record(pass_.name, changed_total)
                self.stats.record_time(pass_.name,
                                       time.perf_counter() - started)
                obs.arg(changes=changed_total)
            if self.verify_each:
                verify_module(module)
        return self.stats


def o3_pipeline() -> Tuple[Tuple[str, type], ...]:
    """The -O3 pipeline (paper §IV): ``(name, pass class)`` per pass run,
    in run order."""
    from . import (ConstantFoldPass, DeadCodeEliminationPass, GVNPass,
                   InliningPass, LICMPass, LoopIdiomPass, LoopUnrollPass,
                   Mem2RegPass, SimplifyCFGPass)

    return tuple((pass_class.name, pass_class) for pass_class in (
        InliningPass, Mem2RegPass, ConstantFoldPass,
        SimplifyCFGPass,  # merge blocks so loop passes see small loops
        GVNPass, LICMPass, LoopIdiomPass, LoopUnrollPass,
        ConstantFoldPass, GVNPass,
        DeadCodeEliminationPass, SimplifyCFGPass, DeadCodeEliminationPass))


def droppable_passes() -> Tuple[str, ...]:
    """The distinct names ``disable`` accepts, in first-run order."""
    return tuple(dict.fromkeys(name for name, _ in o3_pipeline()))


def o3_passes(disable: Iterable[str] = ()) -> List[Tuple[str, type]]:
    """The :func:`o3_pipeline` entries whose name is not in ``disable``
    (an unknown name raises ValueError)."""
    skip = set(disable)
    unknown = sorted(skip.difference(droppable_passes()))
    if unknown:
        raise ValueError(f"unknown pass name(s) {unknown}; choose from "
                         f"{list(droppable_passes())}")
    return [entry for entry in o3_pipeline() if entry[0] not in skip]


def build_o3_pipeline(disable: Iterable[str] = ()) -> PassManager:
    """The -O3 pipeline as fresh pass instances (see :func:`o3_passes`)."""
    pm = PassManager()
    pm.passes = [cls() for _, cls in o3_passes(disable)]
    return pm
