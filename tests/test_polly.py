"""Polly-lite: SCoP detection, legality, tiling correctness."""

import pytest

from repro import compile_source
from repro.lang import analyze, parse
from repro.passes.polly import PollyLite, find_tilable_nests, optimize_unit


def tilable_count(source):
    unit = analyze(parse(source))
    return len(find_tilable_nests(unit))


GEMM = """
void gemm(int n, double *C, double *A, double *B) {
  for (int i = 0; i < n; i++)
    for (int k = 0; k < n; k++)
      for (int j = 0; j < n; j++)
        C[i*n+j] = C[i*n+j] + A[i*n+k] * B[k*n+j];
}
"""


class TestDetection:
    def test_gemm_nest_detected(self):
        assert tilable_count(GEMM) == 1

    def test_reduction_into_scalar_rejected(self):
        """A scalar accumulator across the nest is a loop-carried
        dependence: tiling the outer loops would reorder it."""
        source = """
        double f(int n, double *A) {
          double s = 0.0;
          for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++)
              s = s + A[i*n+j];
          return s;
        }
        """
        assert tilable_count(source) == 0

    def test_local_temporary_allowed(self):
        source = """
        void f(int n, double *A, double *B) {
          for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++) {
              double t = A[i*n+j] * 2.0;
              B[i*n+j] = t;
            }
        }
        """
        assert tilable_count(source) == 1

    def test_shifted_self_access_rejected(self):
        """Stencil with A written and read at different offsets."""
        source = """
        void f(int n, double *A) {
          for (int i = 1; i < n; i++)
            for (int j = 1; j < n; j++)
              A[i*n+j] = A[i*n+j-1] + A[(i-1)*n+j];
        }
        """
        assert tilable_count(source) == 0

    def test_triangular_bound_rejected(self):
        source = """
        void f(int n, double *A) {
          for (int i = 0; i < n; i++)
            for (int j = 0; j < i; j++)
              A[i*n+j] = 2.0 * A[i*n+j];
        }
        """
        assert tilable_count(source) == 0

    def test_call_in_body_rejected(self):
        source = """
        void f(int n, double *A) {
          for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++)
              A[i*n+j] = sqrt(A[i*n+j]);
        }
        """
        assert tilable_count(source) == 0

    def test_single_loop_not_deep_enough(self):
        source = """
        void f(int n, double *A) {
          for (int i = 0; i < n; i++)
            A[i] = 2.0 * A[i];
        }
        """
        assert tilable_count(source) == 0

    def test_omp_loop_left_alone(self):
        source = """
        void f(int n, double *A, double *B) {
          #pragma omp parallel for
          for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++)
              B[i*n+j] = A[i*n+j];
        }
        """
        assert tilable_count(source) == 0


class TestTransformation:
    def test_tiling_preserves_semantics(self):
        driver = GEMM + """
        double run(int n) {
          double C[n*n]; double A[n*n]; double B[n*n];
          for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++) {
              C[i*n+j] = 0.0;
              A[i*n+j] = (double)((i*j+1) % n);
              B[i*n+j] = (double)((i+j) % n);
            }
          gemm(n, C, A, B);
          double s = 0.0;
          for (int i = 0; i < n*n; i++) s = s + C[i] * (i % 7);
          return s;
        }
        """
        plain = compile_source(driver, backend="none")
        tiled = compile_source(driver, backend="none", polly=True,
                               polly_tile=4)
        assert tiled.tiled_nests == 2  # init nest + gemm nest
        a = plain.run("run", [10], cache=False).value
        b = tiled.run("run", [10], cache=False).value
        assert a == b

    def test_tile_structure(self):
        unit = analyze(parse(GEMM))
        count = PollyLite(tile_size=8).run(unit)
        assert count == 1
        unit = analyze(unit)  # must re-analyze cleanly
        func = unit.functions()[0]
        # The nest is now 6 loops deep: 3 tile + 3 point.
        depth = 0
        stmt = func.body.statements[0]
        from repro.lang import ast

        while isinstance(stmt, ast.For):
            depth += 1
            inner = stmt.body
            if isinstance(inner, ast.Block) and len(inner.statements) == 1:
                inner = inner.statements[0]
            stmt = inner
        assert depth == 6

    def test_tiling_improves_cache_behaviour(self):
        """On a matrix working set larger than L1, tiling must not hurt
        (and normally helps) the modeled hit rate."""
        driver = GEMM + """
        double run(int n) {
          double C[n*n]; double A[n*n]; double B[n*n];
          for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++) {
              C[i*n+j] = 0.0;
              A[i*n+j] = 1.0;
              B[i*n+j] = 2.0;
            }
          gemm(n, C, A, B);
          return C[0];
        }
        """
        n = 40  # 3 * 40*40*8B = 38 KB > 32 KB L1
        plain = compile_source(driver, backend="none")
        tiled = compile_source(driver, backend="none", polly=True,
                               polly_tile=8)
        r_plain = plain.run("run", [n])
        r_tiled = tiled.run("run", [n])
        assert r_plain.value == r_tiled.value == 80.0
        miss_plain = r_plain.report.cache_hits
        # L1 hits should not degrade with tiling.
        assert r_tiled.report.cache_hits[0] >= 0.95 * miss_plain[0]


class TestTileSize:
    @pytest.mark.parametrize("tile", [0, -4])
    def test_tile_below_one_rejected(self, tile):
        # A zero step would tile into a loop that never terminates.
        from repro.core import CompilerDriver

        with pytest.raises(ValueError, match="tile size"):
            CompilerDriver(backend="none", polly=True,
                           polly_tile=tile).compile(GEMM)
        with pytest.raises(ValueError, match="tile size"):
            optimize_unit(analyze(parse(GEMM)), tile)
