"""IR core: types, def-use, RAUW, attribute registry, verifier."""

import pytest

from repro.ir import (
    F64,
    I1,
    I32,
    I64,
    VOID,
    ArrayType,
    BasicBlock,
    BinaryInst,
    BranchInst,
    ConstantInt,
    DominatorTree,
    FloatType,
    Function,
    FunctionType,
    IntType,
    IRBuilder,
    LoopInfo,
    Module,
    PointerType,
    RetInst,
    StructType,
    VerificationError,
    VPFloatType,
    verify_function,
    verify_module,
)


def simple_function(ret=F64, params=(F64,), name="f"):
    m = Module("t")
    f = m.add_function(Function(name, FunctionType(ret, list(params))))
    return m, f


class TestTypes:
    def test_type_equality(self):
        assert IntType(32) == IntType(32)
        assert IntType(32) != IntType(64)
        assert FloatType(64) == F64
        assert PointerType(F64) == PointerType(FloatType(64))
        assert ArrayType(F64, 4) != ArrayType(F64, 5)

    def test_sizes(self):
        assert I32.size_bytes() == 4
        assert F64.size_bytes() == 8
        assert PointerType(F64).size_bytes() == 8
        assert ArrayType(I64, 3).size_bytes() == 24
        struct = StructType("s", [I32, I32, I64, PointerType(I64)])
        assert struct.size_bytes() == 24
        assert struct.field_offset(2) == 8

    def test_vpfloat_static_geometry(self):
        t = VPFloatType("mpfr", ConstantInt(I32, 16), ConstantInt(I32, 128))
        assert t.is_static
        assert t.static_precision == 128
        assert t.size_bytes() == 24 + 16  # struct header + 2 limb words
        u = VPFloatType("unum", ConstantInt(I32, 3), ConstantInt(I32, 6))
        assert u.static_precision == 65  # 64 fraction bits + hidden
        assert u.size_bytes() == 11

    def test_vpfloat_equality_rules(self):
        """Equal only with identical attributes (paper §III-A3)."""
        a = VPFloatType("mpfr", ConstantInt(I32, 16), ConstantInt(I32, 128))
        b = VPFloatType("mpfr", ConstantInt(I32, 16), ConstantInt(I32, 128))
        c = VPFloatType("mpfr", ConstantInt(I32, 16), ConstantInt(I32, 256))
        assert a == b  # same constant attributes
        assert a != c
        m, f = simple_function(params=(I32,))
        dyn1 = VPFloatType("mpfr", ConstantInt(I32, 16), f.args[0])
        dyn2 = VPFloatType("mpfr", ConstantInt(I32, 16), f.args[0])
        assert dyn1 == dyn2  # identical attribute Values
        assert dyn1 != a

    def test_vpfloat_dynamic_size_raises(self):
        m, f = simple_function(params=(I32,))
        dyn = VPFloatType("mpfr", ConstantInt(I32, 16), f.args[0])
        assert not dyn.is_static
        with pytest.raises(TypeError):
            dyn.size_bytes()

    def test_invalid_mpfr_attrs(self):
        bad = VPFloatType("mpfr", ConstantInt(I32, 99),
                          ConstantInt(I32, 128))
        with pytest.raises(ValueError):
            bad.static_geometry()


class TestDefUse:
    def test_operand_back_edges(self):
        m, f = simple_function(params=(F64, F64))
        b = IRBuilder(f.add_block("entry"))
        add = b.fadd(f.args[0], f.args[1])
        b.ret(add)
        assert add in f.args[0].users
        assert add in f.args[1].users

    def test_rauw(self):
        m, f = simple_function(params=(F64, F64))
        b = IRBuilder(f.add_block("entry"))
        x = b.fadd(f.args[0], f.args[1])
        y = b.fmul(x, x)
        b.ret(y)
        replacement = b.const_float(2.0)
        x.replace_all_uses_with(replacement)
        assert y.operands[0] is replacement
        assert y.operands[1] is replacement
        assert not x.users

    def test_erase_with_users_rejected(self):
        m, f = simple_function(params=(F64,))
        b = IRBuilder(f.add_block("entry"))
        x = b.fadd(f.args[0], f.args[0])
        b.ret(x)
        with pytest.raises(RuntimeError):
            x.erase_from_parent()

    def test_duplicate_operand_bookkeeping(self):
        m, f = simple_function(params=(F64,))
        b = IRBuilder(f.add_block("entry"))
        x = b.fadd(f.args[0], f.args[0])
        assert f.args[0].users.count(x) == 2
        x.replace_operand(f.args[0], b.const_float(1.0))
        assert f.args[0].users.count(x) == 0


class TestAttributeRegistry:
    def test_rauw_updates_types(self):
        """Paper §III-B: replacing an attribute updates dependent types."""
        m = Module("t")
        f = m.add_function(Function("g", FunctionType(VOID, [I32, I32]),
                                    ["p", "q"]))
        entry = f.add_block("entry")
        b = IRBuilder(entry)
        vptype = VPFloatType("mpfr", ConstantInt(I32, 16), f.args[0])
        slot = b.alloca(vptype)
        b.ret()
        assert m.vpfloat_attributes.is_attribute(f.args[0])
        f.args[0].replace_all_uses_with(f.args[1])
        assert vptype.prec_attr is f.args[1]
        assert m.vpfloat_attributes.is_attribute(f.args[1])
        assert not m.vpfloat_attributes.is_attribute(f.args[0])

    def test_constants_not_tracked(self):
        m = Module("t")
        vptype = VPFloatType("mpfr", ConstantInt(I32, 16),
                             ConstantInt(I32, 128))
        m.register_vpfloat_type(vptype)
        assert not m.vpfloat_attributes.attributes()


class TestVerifier:
    def test_missing_terminator(self):
        m, f = simple_function(ret=VOID, params=())
        f.add_block("entry")
        block = f.blocks[0]
        block.instructions.append(_detached(BinaryInst(
            "add", ConstantInt(I32, 1), ConstantInt(I32, 2)), block))
        with pytest.raises(VerificationError, match="terminator"):
            verify_function(f)

    def test_use_before_def_rejected(self):
        m, f = simple_function(ret=F64, params=(F64,))
        entry = f.add_block("entry")
        b = IRBuilder(entry)
        # Manually build a use-before-def: create mul first using a later
        # add.
        add = BinaryInst("fadd", f.args[0], f.args[0])
        add.name = "later"
        mul = BinaryInst("fmul", add, add)
        mul.name = "early"
        mul.parent = entry
        entry.instructions.append(mul)
        add.parent = entry
        entry.instructions.append(add)
        b.set_insert_point(entry)
        b.ret(mul)
        with pytest.raises(VerificationError, match="dominate"):
            verify_function(f)

    def test_foreign_attribute_rejected(self):
        m = Module("t")
        f1 = m.add_function(Function("f1", FunctionType(VOID, [I32]), ["p"]))
        f2 = m.add_function(Function("f2", FunctionType(VOID, [])))
        entry = f2.add_block("entry")
        b = IRBuilder(entry)
        alien = VPFloatType("mpfr", ConstantInt(I32, 16), f1.args[0])
        b.alloca(alien)
        b.ret()
        with pytest.raises(VerificationError, match="another function"):
            verify_function(f2)

    def test_valid_module_passes(self):
        m, f = simple_function(params=(F64, F64))
        b = IRBuilder(f.add_block("entry"))
        b.ret(b.fadd(f.args[0], f.args[1]))
        verify_module(m)


def _detached(inst, block):
    inst.parent = block
    return inst


class TestAnalyses:
    def _diamond(self):
        m, f = simple_function(ret=I32, params=(I1,))
        entry = f.add_block("entry")
        left = f.add_block("left")
        right = f.add_block("right")
        merge = f.add_block("merge")
        b = IRBuilder(entry)
        b.cond_br(f.args[0], left, right)
        b.set_insert_point(left)
        b.br(merge)
        b.set_insert_point(right)
        b.br(merge)
        b.set_insert_point(merge)
        b.ret(b.const_int(0))
        return f, entry, left, right, merge

    def test_dominators_diamond(self):
        f, entry, left, right, merge = self._diamond()
        dom = DominatorTree(f)
        assert dom.dominates(entry, merge)
        assert not dom.dominates(left, merge)
        assert dom.idom[merge] is entry
        assert dom.strictly_dominates(entry, left)
        assert not dom.strictly_dominates(entry, entry)

    def test_dominance_frontiers(self):
        f, entry, left, right, merge = self._diamond()
        dom = DominatorTree(f)
        frontiers = dom.frontiers()
        assert merge in frontiers[left]
        assert merge in frontiers[right]
        assert not frontiers[entry]

    def test_loop_info(self):
        m, f = simple_function(ret=VOID, params=(I32,))
        entry = f.add_block("entry")
        header = f.add_block("header")
        body = f.add_block("body")
        exit_ = f.add_block("exit")
        b = IRBuilder(entry)
        b.br(header)
        b.set_insert_point(header)
        phi = b.phi(I32, "i")
        cond = b.icmp("slt", phi, f.args[0])
        b.cond_br(cond, body, exit_)
        b.set_insert_point(body)
        nxt = b.add(phi, b.const_int(1))
        b.br(header)
        phi.add_incoming(b.const_int(0), entry)
        phi.add_incoming(nxt, body)
        b.set_insert_point(exit_)
        b.ret()
        info = LoopInfo(f)
        assert len(info.loops) == 1
        loop = info.loops[0]
        assert loop.header is header
        assert body in loop.blocks
        assert loop.exits() == [exit_]
        assert loop.preheader() is entry
        assert loop.latches() == [body]


def scanned_predecessors(func, block):
    """The reference definition: every block of ``func``, in order, whose
    successors include ``block``."""
    return [p for p in func.blocks if block in p.successors()]


class TestPredecessorMap:
    def test_two_way_branch_to_one_block_lists_it_once(self):
        m, f = simple_function(ret=I32, params=(I1,))
        entry = f.add_block("entry")
        merge = f.add_block("merge")
        b = IRBuilder(entry)
        b.cond_br(f.args[0], merge, merge)
        b.set_insert_point(merge)
        b.ret(b.const_int(0))
        preds = f.predecessor_map()
        assert preds == {entry: [], merge: [entry]}

    def test_unreachable_predecessor_is_listed(self):
        m, f = simple_function(ret=I32, params=(I1,))
        entry = f.add_block("entry")
        dead = f.add_block("dead")
        merge = f.add_block("merge")
        b = IRBuilder(entry)
        b.br(merge)
        b.set_insert_point(dead)
        b.br(merge)
        b.set_insert_point(merge)
        b.ret(b.const_int(0))
        assert f.predecessor_map()[merge] == [entry, dead]
        assert DominatorTree(f).idom[merge] is entry

    def test_terminator_flag_is_per_class(self):
        assert BranchInst.is_terminator and RetInst.is_terminator
        assert not BinaryInst.is_terminator

    @pytest.mark.parametrize("backend", ["mpfr", "boost", "unum"])
    def test_matches_a_full_scan_on_polybench_after_o3(self, backend):
        from repro import compile_source
        from repro.backends.unum_backend import UnumISelError
        from repro.workloads.polybench import (
            KERNELS, source_for, vpfloat_mpfr_type, vpfloat_unum_type)

        ftype = (vpfloat_unum_type() if backend == "unum"
                 else vpfloat_mpfr_type(128))
        checked = 0
        for kernel in KERNELS:
            try:
                program = compile_source(source_for(kernel, ftype),
                                         backend=backend, cache=None)
            except UnumISelError:  # vp.sqrt has no coprocessor opcode
                assert backend == "unum"
                continue
            for func in program.module.functions.values():
                preds = func.predecessor_map()
                assert list(preds) == func.blocks
                for block in func.blocks:
                    assert preds[block] == scanned_predecessors(func, block)
                    checked += 1
        assert checked > 400
