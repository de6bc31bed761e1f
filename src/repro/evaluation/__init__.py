"""Experiment drivers regenerating every table and figure of the paper.

Run them from the command line::

    python -m repro.evaluation table1
    python -m repro.evaluation table2
    python -m repro.evaluation table3
    python -m repro.evaluation fig1
    python -m repro.evaluation fig2
    python -m repro.evaluation fig3
    python -m repro.evaluation all

``tests/test_workloads.py`` runs each at reduced size and asserts the
paper's claims.
"""

from . import fig1, fig2, fig3, parallel, table1, table2, table3
from .harness import (
    RunOutcome,
    element_stride,
    geomean,
    get_compile_cache,
    parse_ftype,
    residual_error,
    run_kernel,
    set_compile_cache,
    speedup,
)
from .parallel import GridPoint, parallel_map, run_grid, shard_tasks

__all__ = [
    "table1", "table2", "table3", "fig1", "fig2", "fig3", "parallel",
    "run_kernel", "RunOutcome", "residual_error", "speedup", "geomean",
    "parse_ftype", "element_stride", "set_compile_cache",
    "get_compile_cache", "GridPoint", "parallel_map", "run_grid",
    "shard_tasks",
]
