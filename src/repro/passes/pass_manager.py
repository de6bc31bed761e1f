"""Pass management: ordering, statistics, the -O3 pipeline.

The pipeline mirrors the paper's setup: all mid-level passes run on IR
where vpfloat values are first-class scalars, and the backend lowerings
(:mod:`repro.backends`) run *after* the main optimizations ("at a late
stage of the middle-end", §III-C1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

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
                changed_total = 0
                if isinstance(pass_, ModulePass):
                    changed = pass_.run_module(module)
                    changed_total += int(changed)
                    self.stats.record(pass_.name, changed)
                else:
                    for func in list(module.functions.values()):
                        if func.is_declaration:
                            continue
                        changed = pass_.run(func)
                        changed_total += int(changed)
                        self.stats.record(pass_.name, changed)
                self.stats.record_time(pass_.name,
                                       time.perf_counter() - started)
                obs.arg(changes=changed_total)
            if self.verify_each:
                verify_module(module)
        return self.stats


def build_o3_pipeline(enable_loop_idiom: bool = True,
                      enable_inlining: bool = True,
                      enable_unroll: bool = True,
                      contract_fma: bool = False,
                      verify_each: bool = False) -> PassManager:
    """The default -O3 middle-end pipeline (paper §IV: -O3)."""
    from .constfold import ConstantFoldPass
    from .dce import DeadCodeEliminationPass
    from .fma import FMAContractionPass
    from .gvn import GVNPass
    from .inline import InliningPass
    from .licm import LICMPass
    from .loop_idiom import LoopIdiomPass
    from .loop_unroll import LoopUnrollPass
    from .mem2reg import Mem2RegPass
    from .simplifycfg import SimplifyCFGPass

    pm = PassManager(verify_each=verify_each)
    if enable_inlining:
        pm.add(InliningPass())
    pm.add(Mem2RegPass())
    pm.add(ConstantFoldPass())
    pm.add(SimplifyCFGPass())  # merge blocks so loop passes see small loops
    pm.add(GVNPass())
    pm.add(LICMPass())
    if enable_loop_idiom:
        pm.add(LoopIdiomPass())
    if enable_unroll:
        pm.add(LoopUnrollPass())
    pm.add(ConstantFoldPass())
    pm.add(GVNPass())
    if contract_fma:
        pm.add(FMAContractionPass())
    pm.add(DeadCodeEliminationPass())
    pm.add(SimplifyCFGPass())
    pm.add(DeadCodeEliminationPass())
    return pm
