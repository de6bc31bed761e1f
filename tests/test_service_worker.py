"""Service worker requests, run in-process (no daemon)."""

from repro.core import CompileCache
from repro.evaluation.harness import set_compile_cache
from repro.service.worker import execute_compile

GEMM = {"kernel": "gemm", "ftype": "vpfloat<mpfr, 16, 53>",
        "backend": "mpfr"}


def test_compile_reports_the_drivers_key(tmp_path):
    # A run option (the engine) leaves the compile key alone: the
    # second request is served by the program the first one stored.
    previous = set_compile_cache(CompileCache(str(tmp_path)))
    try:
        first = execute_compile(GEMM)
        second = execute_compile({**GEMM, "options": {
            "engine": "legacy"}})
    finally:
        set_compile_cache(previous)
    assert first["fingerprint"] == second["fingerprint"]
    assert not first["cached"] and second["cached"]
    assert (tmp_path / f"{first['fingerprint']}.vpc").exists()
