"""gcc as an oracle independent of the toolchain: build a C program
with ``gcc -O0`` and return what it prints.

The tests that use it skip only when ``gcc`` is not on PATH (CI
asserts that it is).
"""

import shutil
import subprocess

import pytest

requires_gcc = pytest.mark.skipif(shutil.which("gcc") is None,
                                  reason="gcc is not on PATH")


def gcc_stdout(c_source: str, tmp_path) -> str:
    """Build ``c_source`` with ``gcc -O0 -ffp-contract=off -lm`` in
    ``tmp_path``, run it, and return its standard output."""
    path = tmp_path / "oracle.c"
    path.write_text(c_source)
    exe = tmp_path / "oracle"
    subprocess.run(["gcc", "-O0", "-std=gnu11", "-w", "-ffp-contract=off",
                    str(path), "-o", str(exe), "-lm"], check=True)
    return subprocess.run([str(exe)], check=True, capture_output=True,
                          text=True).stdout
