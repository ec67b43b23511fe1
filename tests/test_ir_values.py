"""Unit tests for values, def-use chains and constants."""

import pytest

from repro.ir import (FALSE, TRUE, ConstantFloat, ConstantInt, IRBuilder,
                      Module, Undef, bool_const, const)
from repro.ir import types as T
from repro.ir.values import User, Value


def make_func():
    m = Module("t")
    f = m.add_function("f", T.FunctionType(T.I64, (T.I64, T.I64)), ["a", "b"])
    block = f.add_block("entry")
    return m, f, block


class TestDefUse:
    def test_operands_register_uses(self):
        m, f, block = make_func()
        b = IRBuilder(block)
        x = b.add(f.args[0], f.args[1], "x")
        assert f.args[0].num_uses == 1
        assert f.args[1].num_uses == 1
        assert x.operands[0] is f.args[0]

    def test_replace_all_uses_with(self):
        m, f, block = make_func()
        b = IRBuilder(block)
        x = b.add(f.args[0], 1, "x")
        y = b.mul(x, x, "y")
        x.replace_all_uses_with(f.args[1])
        assert y.operands[0] is f.args[1]
        assert y.operands[1] is f.args[1]
        assert x.num_uses == 0
        assert f.args[1].num_uses == 2

    def test_same_value_in_multiple_slots(self):
        m, f, block = make_func()
        b = IRBuilder(block)
        y = b.mul(f.args[0], f.args[0], "y")
        assert f.args[0].num_uses == 2
        assert len(list(f.args[0].users())) == 1

    def test_set_operand_updates_uses(self):
        m, f, block = make_func()
        b = IRBuilder(block)
        x = b.add(f.args[0], f.args[1], "x")
        x.set_operand(0, f.args[1])
        assert f.args[0].num_uses == 0
        assert f.args[1].num_uses == 2

    def test_erase_drops_operand_uses(self):
        m, f, block = make_func()
        b = IRBuilder(block)
        x = b.add(f.args[0], f.args[1], "x")
        x.erase_from_parent()
        assert f.args[0].num_uses == 0
        assert x.parent is None
        assert len(block.instructions) == 0


class TestConstants:
    def test_int_interning(self):
        assert ConstantInt(T.I64, 5) is ConstantInt(T.I64, 5)
        assert ConstantInt(T.I64, 5) is not ConstantInt(T.I32, 5)

    def test_int_wrapping_at_construction(self):
        c = ConstantInt(T.I8, 255)
        assert c.value == -1
        assert c.unsigned() == 255

    def test_bool_constants(self):
        assert bool_const(True) is TRUE
        assert bool_const(False) is FALSE
        assert TRUE.is_true and FALSE.is_false

    def test_float_interning(self):
        assert ConstantFloat(T.F64, 1.5) is ConstantFloat(T.F64, 1.5)

    def test_f32_rounding(self):
        c = ConstantFloat(T.F32, 0.1)
        import struct

        assert c.value == struct.unpack("f", struct.pack("f", 0.1))[0]

    def test_negative_zero_distinct(self):
        pos = ConstantFloat(T.F64, 0.0)
        neg = ConstantFloat(T.F64, -0.0)
        assert pos is not neg

    def test_undef_interned(self):
        assert Undef(T.I64) is Undef(T.I64)
        assert Undef(T.I64) is not Undef(T.F64)

    def test_const_dispatch(self):
        assert isinstance(const(T.I32, 3), ConstantInt)
        assert isinstance(const(T.F64, 3.0), ConstantFloat)
        with pytest.raises(TypeError):
            const(T.PointerType(T.I8), 0)


class TestGlobals:
    def test_global_type_is_pointer(self):
        m = Module("g")
        gv = m.add_global("table", T.F64, 128)
        assert gv.type is T.PointerType(T.F64)
        assert gv.count == 128
        assert m.get_global("table") is gv

    def test_duplicate_global_rejected(self):
        m = Module("g")
        m.add_global("x", T.I64, 1)
        with pytest.raises(ValueError):
            m.add_global("x", T.I64, 1)


class TestInternedConstantsRecordNoUses:
    """Interned constants are shared process-wide: their use lists would
    keep every module that ever used them alive."""

    def test_constant_operands_leave_no_use(self):
        m, f, block = make_func()
        b = IRBuilder(block)
        zero = ConstantInt(T.I64, 0)
        x = b.add(f.args[0], zero, "x")
        assert x.operands[1] is zero
        assert zero.uses == [] and not zero.is_used
        x.set_operand(1, ConstantInt(T.I64, 1))
        x.set_operand(1, zero)
        x.erase_from_parent()
        assert zero.uses == []

    def test_compiled_module_is_freed(self):
        import gc
        import weakref

        from repro.bench import benchmark_by_name
        from repro.transforms.pipeline import compile_module

        module = benchmark_by_name("XSBench").build_module()
        compile_module(module, "uu", loop_id="xs_lookup:0", factor=2)
        ref = weakref.ref(module)
        del module
        gc.collect()
        assert ref() is None
        assert ConstantInt(T.I32, 0).uses == []
