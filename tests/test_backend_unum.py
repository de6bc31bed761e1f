"""UNUM backend: addrcomp, isel, fpconfig, regalloc, machine execution."""

import pytest

from repro import compile_source
from repro.backends.unum_backend import (
    UnumAddressComputationPass,
    compile_to_unum,
)
from repro.bigfloat import BigFloat
from repro.codegen import generate_ir
from repro.lang import analyze, parse
from repro.passes import build_o3_pipeline
from repro.unum import UnumConfig, decode, encode
from repro.runtime.unum_machine import UnumMachine, UnumMachineError


def compile_unum(source, **kwargs):
    return compile_source(source, backend="unum", **kwargs)


def seed_array(machine, config, values, prec=520):
    base = machine.memory.alloc_heap(len(values) * config.size_bytes)
    for i, v in enumerate(values):
        bits = encode(BigFloat.from_value(v, prec), config)
        machine.memory.store_bytes(base + i * config.size_bytes,
                                   bits.to_bytes(config.size_bytes,
                                                 "little"))
    return base


def read_array(machine, config, base, count):
    out = []
    for i in range(count):
        raw = machine.memory.load_bytes(base + i * config.size_bytes,
                                        config.size_bytes)
        out.append(float(decode(int.from_bytes(raw, "little"), config)))
    return out


class TestAddressComputation:
    def test_dynamic_gep_rewritten(self):
        source = """
        void f(unsigned fss, int n, vpfloat<unum, 4, fss> *X) {
          for (int i = 0; i < n; i++) X[i] = 1.0;
        }
        """
        module = generate_ir(analyze(parse(source)))
        build_o3_pipeline(disable=("loop-idiom",)).run(module)
        changed = UnumAddressComputationPass().run(
            module.get_function("f"))
        assert changed >= 1
        f = module.get_function("f")
        from repro.ir import CallInst, GEPInst

        # No GEPs over dynamic unum pointers remain.
        for inst in f.instructions():
            if isinstance(inst, GEPInst):
                pointee = inst.pointer.type.pointee
                assert not (pointee.is_vpfloat and not pointee.is_static)
        names = [getattr(i.callee, "name", "") for i in f.instructions()
                 if isinstance(i, CallInst)]
        assert "__sizeof_vpfloat" in names

    def test_static_gep_untouched(self):
        source = """
        void f(int n, vpfloat<unum, 4, 8> *X) {
          for (int i = 0; i < n; i++) X[i] = 1.0;
        }
        """
        module = generate_ir(analyze(parse(source)))
        build_o3_pipeline(disable=("loop-idiom",)).run(module)
        assert UnumAddressComputationPass().run(
            module.get_function("f")) == 0


class TestFPConfig:
    def test_single_config_hoisted_to_entry(self):
        source = """
        void f(int n, vpfloat<unum, 3, 6> *X, vpfloat<unum, 3, 6> *Y) {
          for (int i = 0; i < n; i++) Y[i] = X[i] + Y[i];
        }
        """
        program = compile_unum(source)
        asm = program.asm.functions["f"]
        entry_ops = [i.opcode for i in asm.blocks[0].instructions]
        assert "sucfg.ess" in entry_ops
        assert "sucfg.fss" in entry_ops
        assert "sucfg.wgp" in entry_ops
        # Config must not repeat inside the loop blocks.
        for block in asm.blocks[1:]:
            assert not any(i.opcode.startswith("sucfg")
                           for i in block.instructions)

    def test_two_types_reconfigure(self):
        source = """
        void f(int n, vpfloat<unum, 3, 6> *X, vpfloat<unum, 4, 8> *Y) {
          for (int i = 0; i < n; i++) X[i] = 1.0;
          for (int i = 0; i < n; i++) Y[i] = 2.0;
        }
        """
        program = compile_unum(source)
        asm = program.asm.functions["f"]
        count = sum(1 for i in asm.instructions()
                    if i.opcode == "sucfg.fss")
        assert count >= 2  # at least one per configuration


class TestExecution:
    def test_axpy_static(self):
        source = """
        void axpy(int n, vpfloat<unum, 4, 8> a,
                  vpfloat<unum, 4, 8> *X, vpfloat<unum, 4, 8> *Y) {
          for (int i = 0; i < n; i++)
            Y[i] = a * X[i] + Y[i];
        }
        """
        program = compile_unum(source)
        machine = program.machine()
        config = UnumConfig(4, 8)
        xs = seed_array(machine, config, list(range(10)))
        ys = seed_array(machine, config, [1.0] * 10)
        machine.run("axpy", [10, BigFloat.from_float(2.5, 300), xs, ys])
        assert read_array(machine, config, ys, 10) == \
            [1.0 + 2.5 * i for i in range(10)]

    def test_dot_with_reduction(self):
        source = """
        vpfloat<unum, 4, 8> dot(int n, vpfloat<unum, 4, 8> *X,
                                vpfloat<unum, 4, 8> *Y) {
          vpfloat<unum, 4, 8> s = 0.0;
          for (int i = 0; i < n; i++)
            s = s + X[i] * Y[i];
          return s;
        }
        """
        program = compile_unum(source)
        machine = program.machine()
        config = UnumConfig(4, 8)
        xs = seed_array(machine, config, [1.0, 2.0, 3.0, 4.0])
        ys = seed_array(machine, config, [2.0] * 4)
        result = machine.run("dot", [4, xs, ys])
        assert result.to_float() == 20.0

    def test_sqrt_and_compare(self):
        source = """
        double f(double x) {
          vpfloat<unum, 4, 8> v = x;
          vpfloat<unum, 4, 8> r = vp_sqrt(v);
          if (r > (vpfloat<unum, 4, 8>)1.0) return (double)r;
          return 0.0 - (double)r;
        }
        """
        program = compile_unum(source)
        assert program.machine().run("f", [4.0]) == 2.0
        assert program.machine().run("f", [0.25]) == -0.5

    def test_mbb_truncation_affects_precision(self):
        """The size-info attribute truncates the stored mantissa."""
        source = """
        double roundtrip(double x) {
          FTYPE a = x;
          FTYPE b[1];
          b[0] = a;
          return (double)b[0];
        }
        """
        wide = compile_unum(source.replace("FTYPE", "vpfloat<unum, 3, 6>"))
        narrow = compile_unum(
            source.replace("FTYPE", "vpfloat<unum, 3, 6, 4>"))
        x = 1.0 + 2.0**-20  # needs > 13 mantissa bits
        assert wide.machine().run("roundtrip", [x]) == x
        got = narrow.machine().run("roundtrip", [x])
        assert got != x  # truncated to the 13 fraction bits of 4 bytes

    def test_dynamic_precision_kernel(self):
        source = """
        void scale(unsigned fss, int n, vpfloat<unum, 4, fss> *X) {
          for (int i = 0; i < n; i++)
            X[i] = X[i] * 2.0;
        }
        """
        program = compile_unum(source)
        for fss in (6, 8):
            machine = program.machine()
            config = UnumConfig(4, fss)
            base = seed_array(machine, config, [1.5, 2.5, 3.5])
            machine.run("scale", [fss, 3, base])
            assert read_array(machine, config, base, 3) == [3.0, 5.0, 7.0]

    def test_attribute_check_traps_on_machine(self):
        source = """
        void use(unsigned fss, vpfloat<unum, 4, fss> *X) {}
        void driver(unsigned fss) {
          vpfloat<unum, 4, fss> X[2];
          unsigned other = fss + 1;
          use(other, X);
        }
        """
        program = compile_unum(source)
        with pytest.raises(UnumMachineError, match="attribute mismatch"):
            program.machine().run("driver", [6])

    def test_coprocessor_cycles_accrue(self):
        source = """
        void f(int n, vpfloat<unum, 4, 9> *X) {
          for (int i = 0; i < n; i++) X[i] = X[i] * X[i];
        }
        """
        program = compile_unum(source)
        machine = program.machine()
        config = UnumConfig(4, 9)
        base = seed_array(machine, config, [1.0] * 8)
        machine.run("f", [8, base])
        assert machine.coprocessor.cycles > 0
        assert machine.coprocessor.stats.by_opcode.get("gmul") == 8
        assert machine.coprocessor.stats.loads == 8
        assert machine.coprocessor.stats.stores == 8


class TestRegisterPressure:
    def test_spilling_many_live_values(self):
        """More than 32 simultaneously-live integers forces spills."""
        decls = "\n".join(f"  int v{i} = n + {i};" for i in range(40))
        uses = " + ".join(f"v{i}" for i in range(40))
        source = f"""
        int f(int n) {{
        {decls}
          return {uses};
        }}
        """
        program = compile_source(source, backend="unum",
                                 disable_passes=("loop-unroll",))
        result = program.machine().run("f", [100])
        assert result == sum(100 + i for i in range(40))
        asm = program.asm.functions["f"]
        opcodes = [i.opcode for i in asm.instructions()]
        assert "sdspill" in opcodes or "ldspill" in opcodes
