"""The vpfloat-cc command-line driver and the package's entry points."""

import importlib
from pathlib import Path

import pytest

from repro.cli import main

SOURCE = """
double run(int n) {
  vpfloat<mpfr, 16, 200> s = 0.0;
  for (int i = 0; i < n; i++)
    s = s + 0.5;
  return (double)s;
}
"""

UNUM_SOURCE = SOURCE.replace("mpfr, 16, 200", "unum, 4, 7")


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "kernel.c"
    path.write_text(SOURCE)
    return str(path)


class TestCompileAndRun:
    def test_run_prints_result(self, source_file, capsys):
        assert main([source_file, "--run", "run", "--args", "8"]) == 0
        assert "run(...) = 4.0" in capsys.readouterr().out

    def test_report(self, source_file, capsys):
        assert main([source_file, "--run", "run", "--args", "8",
                     "--report"]) == 0
        out = capsys.readouterr().out
        assert "cycles:" in out
        assert "mpfr calls:" in out

    def test_emit_ir(self, source_file, capsys):
        assert main([source_file, "--emit-ir", "--backend", "none"]) == 0
        out = capsys.readouterr().out
        assert "define double @run" in out
        assert "vpfloat<mpfr, 16, 200>" in out

    def test_emit_asm_unum(self, tmp_path, capsys):
        path = tmp_path / "k.c"
        path.write_text(UNUM_SOURCE)
        assert main([str(path), "--backend", "unum", "--emit-asm",
                     "--run", "run", "--args", "6"]) == 0
        out = capsys.readouterr().out
        assert "sucfg" in out
        assert "run(...) = 3.0" in out

    def test_ablation_flags(self, source_file, capsys):
        assert main([source_file, "--no-reuse", "--no-specialize",
                     "--no-in-place", "--run", "run", "--args", "4"]) == 0
        assert "run(...) = 2.0" in capsys.readouterr().out

    def test_opt_level_zero(self, source_file, capsys):
        assert main([source_file, "-O", "0", "--backend", "none",
                     "--run", "run", "--args", "4"]) == 0
        assert "run(...) = 2.0" in capsys.readouterr().out


class TestDiagnostics:
    def test_syntax_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.c"
        path.write_text("int f( {")
        assert main([str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_semantic_error_position(self, tmp_path, capsys):
        path = tmp_path / "bad.c"
        path.write_text("void f() { undefined = 1; }")
        assert main([str(path)]) == 1
        err = capsys.readouterr().err
        assert "undeclared identifier" in err

    def test_wrong_backend_for_format(self, tmp_path, capsys):
        path = tmp_path / "k.c"
        path.write_text(SOURCE)
        assert main([str(path), "--backend", "unum"]) == 1
        assert "UNUM backend only lowers" in capsys.readouterr().err

    def test_runtime_trap_exit_code(self, tmp_path, capsys):
        path = tmp_path / "trap.c"
        path.write_text("""
        int f(int n) { return 10 / n; }
        """)
        assert main([str(path), "--backend", "none",
                     "--run", "f", "--args", "0"]) == 2
        assert "runtime error" in capsys.readouterr().err

    def test_bad_args_rejected(self, source_file):
        with pytest.raises(SystemExit):
            main([source_file, "--run", "run", "--args", "abc"])

    def test_emit_asm_requires_unum(self, source_file, capsys):
        assert main([source_file, "--emit-asm"]) == 1
        assert "--backend unum" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--validate", "--report"],
                                       ["--validate"], ["--report"],
                                       ["--profile"], ["--args", "4"]])
    def test_run_only_flags_require_run(self, source_file, capsys, flags):
        with pytest.raises(SystemExit) as exited:
            main([source_file, "--no-compile-cache", *flags])
        assert exited.value.code == 2
        assert "requires --run" in capsys.readouterr().err

    def test_polly_tile_below_one_rejected(self, source_file, capsys):
        with pytest.raises(SystemExit) as exited:
            main([source_file, "--polly", "--polly-tile", "0",
                  "--run", "run", "--args", "4"])
        assert exited.value.code == 2
        assert "--polly-tile" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_rejected(self, source_file, capsys,
                                        threads):
        with pytest.raises(SystemExit) as exited:
            main([source_file, "--run", "run", "--args", "4",
                  "--report", "--threads", threads])
        assert exited.value.code == 2
        assert "--threads" in capsys.readouterr().err


def test_every_console_script_resolves():
    """Each ``[project.scripts]`` target names an importable callable, so
    no installed command points at a module that is gone."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module_name, _, attr = target.partition(":")
        entry = getattr(importlib.import_module(module_name), attr)
        assert callable(entry), name
