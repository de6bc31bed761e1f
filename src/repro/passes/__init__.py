"""Mid-level optimization passes (the -O3 pipeline stand-in).

All passes operate on IR where vpfloat values are first-class scalars;
:func:`build_o3_pipeline` assembles the default pipeline the evaluation
uses, and the Polly-lite loop nest optimizer lives in
:mod:`repro.passes.polly`.
"""

from .constfold import ConstantFoldPass, fold_instruction
from .dce import DeadCodeEliminationPass, is_trivially_dead
from .gvn import GVNPass
from .inline import InliningPass, inline_call_site
from .licm import LICMPass
from .loop_idiom import LoopIdiomPass
from .loop_unroll import LoopUnrollPass
from .mem2reg import Mem2RegPass, promotable_allocas
from .pass_manager import (
    FunctionPass,
    ModulePass,
    PassManager,
    PassStatistics,
    build_o3_pipeline,
)
from .simplifycfg import SimplifyCFGPass

__all__ = [
    "PassManager", "PassStatistics", "FunctionPass", "ModulePass",
    "build_o3_pipeline",
    "Mem2RegPass", "promotable_allocas",
    "ConstantFoldPass", "fold_instruction",
    "DeadCodeEliminationPass", "is_trivially_dead",
    "GVNPass", "LICMPass", "SimplifyCFGPass",
    "LoopIdiomPass", "LoopUnrollPass",
    "InliningPass", "inline_call_site",
]
