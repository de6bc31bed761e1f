"""Execution engine: memory, performance model, IR interpreter.

(DESIGN.md: the host-machine substitute -- runs IR functionally while
charging modeled cycles against a Xeon-calibrated cost model.)
"""

from .cost_model import (
    DRAM_BYTES_PER_CYCLE,
    CacheLevel,
    CacheModel,
    CostAccounting,
    CostReport,
    CycleCosts,
    DEFAULT_LEVELS,
)
from .interpreter import (
    ENGINES,
    ExecutionLimitExceeded,
    ExecutionResult,
    Interpreter,
    VPRuntimeError,
)
from .memory import Memory, MemoryError_

__all__ = [
    "ENGINES",
    "Interpreter",
    "ExecutionResult",
    "VPRuntimeError",
    "ExecutionLimitExceeded",
    "Memory",
    "MemoryError_",
    "CostAccounting",
    "CostReport",
    "CycleCosts",
    "CacheModel",
    "CacheLevel",
    "DEFAULT_LEVELS",
    "DRAM_BYTES_PER_CYCLE",
]
