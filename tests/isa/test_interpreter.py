"""Tests for the functional interpreter (golden model)."""

import pytest

from repro.isa import Interpreter, ProgramBuilder
from repro.isa.interpreter import InterpreterError


class TestInterpreter:
    def test_straightline_arithmetic(self):
        b = ProgramBuilder()
        b.imm("r1", 7)
        b.addi("r2", "r1", 3)
        b.add("r3", "r1", "r2")
        result = Interpreter(b.build()).run()
        assert result.registers["r3"] == 17
        assert result.halted

    def test_load_store_roundtrip(self):
        b = ProgramBuilder()
        b.imm("r1", 0x1000)
        b.imm("r2", 99)
        b.store(["r1"], lambda a: a, "r2")
        b.load("r3", ["r1"], lambda a: a)
        result = Interpreter(b.build()).run()
        assert result.registers["r3"] == 99
        assert result.memory[0x1000] == 99
        assert result.memory_trace == [("store", 0x1000), ("load", 0x1000)]

    def test_uninitialized_memory_reads_zero(self):
        b = ProgramBuilder()
        b.load_addr("r1", 0xDEAD0)
        result = Interpreter(b.build()).run()
        assert result.registers["r1"] == 0

    def test_branch_taken(self):
        b = ProgramBuilder()
        b.imm("r1", 1)
        b.branch_if(["r1"], lambda v: v == 1, "skip")
        b.imm("r2", 111)  # skipped
        b.label("skip")
        b.imm("r3", 222)
        result = Interpreter(b.build()).run()
        assert "r2" not in result.registers
        assert result.registers["r3"] == 222
        assert result.branch_outcomes == [True]

    def test_branch_not_taken(self):
        b = ProgramBuilder()
        b.imm("r1", 0)
        b.branch_if(["r1"], lambda v: v == 1, "skip")
        b.imm("r2", 111)
        b.label("skip")
        result = Interpreter(b.build()).run()
        assert result.registers["r2"] == 111
        assert result.branch_outcomes == [False]

    def test_backward_branch_loop(self):
        b = ProgramBuilder()
        b.imm("counter", 0)
        b.label("head")
        b.addi("counter", "counter", 1)
        b.branch_if(["counter"], lambda v: v < 5, "head")
        result = Interpreter(b.build()).run()
        assert result.registers["counter"] == 5
        assert result.branch_outcomes == [True] * 4 + [False]

    def test_jumps_are_not_branch_outcomes(self):
        """Only conditional branches consult the oracle predictor, so an
        unconditional jump adds no outcome."""
        b = ProgramBuilder()
        b.imm("r1", 0)
        b.jump("over")
        b.imm("r2", 111)  # skipped
        b.label("over")
        b.branch_if(["r1"], lambda v: v == 1, "end")
        b.imm("r3", 222)
        b.label("end")
        result = Interpreter(b.build()).run()
        assert "r2" not in result.registers
        assert result.registers["r3"] == 222
        assert result.branch_outcomes == [False]

    def test_initial_registers_and_memory(self):
        b = ProgramBuilder()
        b.load("r1", ["base"], lambda a: a)
        result = Interpreter(b.build()).run(
            registers={"base": 0x40}, memory={0x40: 7}
        )
        assert result.registers["r1"] == 7

    def test_instruction_budget(self):
        b = ProgramBuilder()
        b.label("spin")
        b.jump("spin")
        with pytest.raises(InterpreterError):
            Interpreter(b.build(), max_instructions=100).run()

    def test_fence_and_nop_are_architectural_noops(self):
        b = ProgramBuilder()
        b.imm("r1", 1)
        b.fence()
        b.nop()
        b.addi("r1", "r1", 1)
        result = Interpreter(b.build()).run()
        assert result.registers["r1"] == 2
        assert result.instructions_executed == 5  # includes halt

    def test_inputs_not_mutated(self):
        regs = {"r1": 5}
        mem = {0x10: 3}
        b = ProgramBuilder()
        b.addi("r1", "r1", 1)
        b.imm("r9", 0x10)
        b.imm("r8", 4)
        b.store(["r9"], lambda a: a, "r8")
        Interpreter(b.build()).run(registers=regs, memory=mem)
        assert regs == {"r1": 5}
        assert mem == {0x10: 3}
