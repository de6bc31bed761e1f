"""UNUM machine: instruction-level execution behaviours."""

import pytest

from repro import compile_source
from repro.backends.unum_backend.asm import (
    AsmFunction,
    AsmInst,
    AsmModule,
    Label,
    PReg,
    VReg,
)
from repro.bigfloat import BigFloat
from repro.runtime.unum_machine import UnumMachine, UnumMachineError
from repro.unum import UnumConfig, encode


def run_unum(source, fn, args, **compile_kwargs):
    program = compile_source(source, backend="unum", **compile_kwargs)
    machine = program.machine(cache=False)
    return machine.run(fn, args), machine


class TestScalarISA:
    def test_integer_ops(self):
        source = """
        int f(int a, int b) {
          return (a + b) * (a - b) / 2 + a % b;
        }
        """
        value, _ = run_unum(source, "f", [10, 3])
        assert value == (13 * 7) // 2 + 1

    def test_double_ops(self):
        source = """
        double f(double a, double b) {
          return a * b + a / b - b;
        }
        """
        value, _ = run_unum(source, "f", [6.0, 2.0])
        assert value == 12.0 + 3.0 - 2.0

    def test_libm_dispatch(self):
        import math

        source = "double f(double x) { return sqrt(x) + cos(0.0); }"
        value, _ = run_unum(source, "f", [9.0])
        assert value == 4.0

    def test_select_lowering(self):
        source = "int f(int a, int b) { return a > b ? a : b; }"
        assert run_unum(source, "f", [3, 9])[0] == 9
        assert run_unum(source, "f", [9, 3])[0] == 9

    def test_nested_calls(self):
        source = """
        int square(int x) { return x * x; }
        int f(int a) { return square(a) + square(a + 1); }
        """
        value, _ = run_unum(source, "f", [4],
                            disable_passes=("inline",))
        assert value == 16 + 25

    def test_recursion_on_machine(self):
        source = """
        int fact(int n) {
          if (n <= 1) return 1;
          return n * fact(n - 1);
        }
        """
        value, _ = run_unum(source, "fact", [6],
                            disable_passes=("inline",))
        assert value == 720

    def test_memset_pseudo(self):
        source = """
        double f(int n) {
          double A[64];
          for (int i = 0; i < n; i++) A[i] = 0.0;
          return A[n - 1];
        }
        """
        value, machine = run_unum(source, "f", [64])
        assert value == 0.0
        opcodes = [i.opcode for f in machine.asm.functions.values()
                   for i in f.instructions()]
        assert "memset" in opcodes


class TestGLayerBehaviour:
    def test_wgp_governs_arithmetic_precision(self):
        source = """
        double f() {
          FTYPE tiny = 1.0;
          for (int i = 0; i < 40; i++) tiny = tiny / 2.0;
          FTYPE one = 1.0;
          FTYPE acc = one + tiny;
          return (double)(acc - one);
        }
        """
        # fss=5 -> 32 fraction bits: 2**-40 vanishes.
        low, _ = run_unum(source.replace("FTYPE", "vpfloat<unum, 4, 5>"),
                          "f", [])
        assert low == 0.0
        high, _ = run_unum(source.replace("FTYPE", "vpfloat<unum, 4, 7>"),
                           "f", [])
        assert high == 2.0 ** -40

    def test_gneg_and_compare(self):
        source = """
        double f(double x) {
          vpfloat<unum, 4, 7> v = x;
          vpfloat<unum, 4, 7> neg = 0.0 - v;
          if (neg < v) return 1.0;
          return 0.0 - 1.0;
        }
        """
        assert run_unum(source, "f", [2.0])[0] == 1.0
        assert run_unum(source, "f", [-2.0])[0] == -1.0

    def test_uninitialized_greg_read_trap(self):
        from repro.backends.unum_backend.asm import (
            AsmFunction,
            AsmInst,
            AsmModule,
            PReg,
        )

        asm = AsmModule()
        func = asm.add(AsmFunction("f"))
        block = func.add_block("entry")
        block.append(AsmInst("sucfg.ess", [_imm(4)]))
        block.append(AsmInst("sucfg.fss", [_imm(7)]))
        block.append(AsmInst("sucfg.wgp", [_imm(129)]))
        block.append(AsmInst("gadd", [PReg("g", 0), PReg("g", 1),
                                      PReg("g", 2)]))
        block.append(AsmInst("ret", []))
        machine = UnumMachine(asm)
        with pytest.raises(UnumMachineError, match="uninitialized"):
            machine.run("f")

    def test_unknown_opcode_trap(self):
        from repro.backends.unum_backend.asm import (
            AsmFunction,
            AsmInst,
            AsmModule,
        )

        asm = AsmModule()
        func = asm.add(AsmFunction("f"))
        func.add_block("entry").append(AsmInst("bogus", []))
        with pytest.raises(UnumMachineError, match="unknown opcode"):
            UnumMachine(asm).run("f")

    def test_instruction_budget(self):
        source = """
        int f() { int i = 0; while (1) i++; return i; }
        """
        program = compile_source(source, backend="unum")
        machine = program.machine(max_steps=5_000)
        with pytest.raises(UnumMachineError, match="budget"):
            machine.run("f", [])


def _imm(v):
    from repro.backends.unum_backend.asm import Imm

    return Imm(v)


class TestSpillExecution:
    def test_spilled_gregs_round_trip(self):
        """More than 30 live g-values: spill slots must preserve values
        exactly (they hold full-precision objects)."""
        decls = "\n".join(
            f"  vpfloat<unum, 4, 7> v{i} = x + {i}.5;" for i in range(34)
        )
        total = " + ".join(f"v{i}" for i in range(34))
        source = f"""
        double f(double x) {{
        {decls}
          return (double)({total});
        }}
        """
        program = compile_source(source, backend="unum",
                                 disable_passes=("loop-unroll",))
        machine = program.machine(cache=False)
        value = machine.run("f", [1.0])
        assert value == sum(1.0 + i + 0.5 for i in range(34))
        opcodes = [i.opcode for f in program.asm.functions.values()
                   for i in f.instructions()]
        assert "gsdspill" in opcodes or "gldspill" in opcodes


def _asm_function(*blocks):
    """A one-function AsmModule ``f`` from ``(label, [AsmInst, ...])``."""
    asm = AsmModule()
    func = asm.add(AsmFunction("f", arg_registers=[(_x(10), "x")]))
    for label, instructions in blocks:
        block = func.add_block(label)
        for inst in instructions:
            block.append(inst)
    return asm


def _x(index):
    return PReg("x", index)


class TestErrorPaths:
    def test_unknown_opcode_in_unexecuted_block_is_silent(self):
        asm = _asm_function(
            ("entry", [AsmInst("li", [_x(10), _imm(5)]),
                       AsmInst("ret", [_x(10)])]),
            ("dead", [AsmInst("bogus", [])]))
        machine = UnumMachine(asm)
        assert machine.run("f") == 5
        assert machine.steps == 2

    def test_unknown_opcode_raises_when_reached(self):
        asm = _asm_function(
            ("entry", [AsmInst("nop", []),
                       AsmInst("j", [Label("dead")])]),
            ("dead", [AsmInst("bogus", [])]))
        machine = UnumMachine(asm)
        with pytest.raises(UnumMachineError, match="unknown opcode 'bogus'"):
            machine.run("f")
        assert machine.steps == 3  # the faulting instruction counts

    def test_division_by_zero(self):
        source = "int f(int a, int b) { return a / b; }"
        assert run_unum(source, "f", [7, -2])[0] == -3
        with pytest.raises(UnumMachineError, match="division by zero"):
            run_unum(source, "f", [7, 0])

    def test_virtual_register_operand(self):
        asm = _asm_function(
            ("entry", [AsmInst("li", [_x(10), _imm(1)]),
                       AsmInst("add", [_x(11), VReg("x", 3), _x(10)]),
                       AsmInst("ret", [_x(11)])]))
        machine = UnumMachine(asm)
        with pytest.raises(UnumMachineError,
                           match="virtual register survived allocation"):
            machine.run("f")
        assert machine.steps == 2

    def test_bad_label_faults_only_when_taken(self):
        asm = _asm_function(
            ("entry", [AsmInst("beq", [_x(10), _imm(1), Label("nowhere")]),
                       AsmInst("ret", [_x(10)])]))
        assert UnumMachine(asm).call("f", [0]) == 0
        with pytest.raises(KeyError, match="nowhere"):
            UnumMachine(asm).call("f", [1])

    def test_fall_off_end(self):
        asm = _asm_function(("entry", [AsmInst("nop", [])]))
        with pytest.raises(UnumMachineError, match="fell off the end"):
            UnumMachine(asm).run("f")

    def test_double_op_on_infinity(self):
        source = "double f(double a, double b) { return a * b + a; }"
        assert run_unum(source, "f", [float("inf"), 2.0])[0] == float("inf")


#: Counters of the instruction-at-a-time machine, captured before the
#: decode-once executor replaced it: kernel -> (output digest, cache-model
#: cycles, scalar_cycles, coprocessor cycles, steps, g-layer op counts).
#: unum<3, 7> at the e2e benchmark's tiny sizes, cache model on.
_PINNED = {
    "gemm": ("1837594b1d703202", 9340, 6626, 8708, 4654, {
        "gadd": 125, "gcvt.d.g": 75, "gmul": 275, "ldu": 400, "stu": 225}),
    "jacobi-1d": ("11c7517df7422dda", 30928, 40017, 64056, 35805, {
        "gadd": 2400, "gcvt.d.g": 64, "gmul": 1200, "ldu": 3600,
        "stu": 1264}),
    "trisolv": ("282f3d7f55efff02", 6544, 4043, 2588, 2148, {
        "gadd": 8, "gcvt.d.g": 72, "gdiv": 8, "gmul": 28, "gsub": 28,
        "ldu": 116, "stu": 124}),
    "gramschmidt": ("394a92bb8191e5bb", 9208, 5737, 7773, 4400, {
        "gadd": 75, "gcvt.d.g": 25, "gdiv": 25, "gmul": 125, "gsqrt": 5,
        "gsub": 50, "ldu": 375, "stu": 215}),
}
_SUCFG = {"sucfg.ess": 2, "sucfg.fss": 2, "sucfg.mbb": 2, "sucfg.wgp": 2}


def _kernel_machine(kernel, ess, fss, erratum=False):
    from repro.unum import UnumCoprocessor
    from repro.workloads.polybench import source_for

    ftype = f"vpfloat<unum, {ess}, {fss}>"
    program = compile_source(source_for(kernel, ftype), backend="unum")
    coprocessor = UnumCoprocessor(
        wgp=min(512, UnumConfig(ess, fss).precision),
        erratum_enabled=erratum)
    return program.machine(coprocessor=coprocessor)


class TestPinnedCounters:
    @pytest.mark.parametrize("kernel", sorted(_PINNED))
    def test_kernel_counters(self, kernel):
        from repro.evaluation.harness import _read_unum_outputs
        from repro.validation.certificate import values_digest
        from repro.workloads.polybench import KERNELS

        digest, cache_cycles, scalar, cop, steps, g_ops = _PINNED[kernel]
        spec = KERNELS[kernel]
        n = {1: 32, 2: 8, 3: 5}[spec.dims]
        machine = _kernel_machine(kernel, 3, 7)
        base = machine.run("run", [n])
        outputs = _read_unum_outputs(machine, int(base), spec.outputs(n),
                                     {"ess": 3, "fss": 7})
        assert values_digest(outputs) == digest
        assert machine.accounting.report.cycles == cache_cycles
        assert machine.scalar_cycles == scalar
        assert machine.coprocessor.cycles == cop
        assert machine.steps == steps
        assert machine.coprocessor.stats.by_opcode == {**g_ops, **_SUCFG}

    def test_erratum_fault_point(self):
        """Fig. 2's gesummv at unum<4, 9> trips the modeled memory erratum
        on its first 69-byte store, at the same step as before."""
        from repro.unum.coprocessor import MemorySubsystemErratum
        from repro.workloads.polybench import KERNELS

        machine = _kernel_machine("gesummv", 4, 9, erratum=True)
        with pytest.raises(MemorySubsystemErratum):
            machine.run("run", [KERNELS["gesummv"].size_for("mini")])
        assert machine.steps == 34
        assert machine.scalar_cycles == 154
        assert machine.coprocessor.cycles == 4
        assert machine.accounting.report.cycles == 0
        assert machine.coprocessor.stats.by_opcode == {
            "gcvt.d.g": 1, "sucfg.ess": 1, "sucfg.fss": 1, "sucfg.mbb": 1,
            "sucfg.wgp": 1}
