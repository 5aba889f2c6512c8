"""STT tests: the §6 comparison point made executable.

STT blocks every interference attack that leaks *transiently accessed*
data, but not the bound-to-retire variant — exactly the paper's claim.
"""

import pytest

from repro.core.harness import run_victim_trial
from repro.core.spectre import spectre_leak_trial
from repro.core.victims import (
    gdmshr_victim,
    gdnpeu_architectural_victim,
    gdnpeu_arith_victim,
    gdnpeu_victim,
    girs_victim,
)
from repro.isa import Interpreter, ProgramBuilder
from repro.pipeline.branch import StaticTakenPredictor
from repro.schemes import STT
from repro.trace import Tracer
from repro.workloads import random_program

from tests.conftest import rows_named, run_on_scheme


class TestTaintMechanics:
    def test_tainted_transmitter_blocked(self):
        """A load whose address derives from a speculative load's value
        must not issue while the producer is speculative."""
        scheme = STT("spectre")
        b = ProgramBuilder()
        b.load_addr("n", 0x48_080, name="slow cond")
        b.branch_if(["n"], lambda v: v > 10, "body", name="branch")
        b.jump("end")
        b.label("body")
        b.load_addr("j", 0x40_0C0, name="access")       # untainted addr: runs
        b.load("x", ["j"], lambda v: 0x44_040 + v, name="transmit")  # tainted
        b.label("end")
        b.halt()
        program = b.build()
        from repro.system.machine import Machine
        from tests.conftest import small_hierarchy_config

        machine = Machine(2, hierarchy_config=small_hierarchy_config())
        machine.warm_icache(0, program)
        # prime the access line so the tainted transmitter becomes ready
        # well inside the speculative window
        machine.warm_data(0, [0x40_0C0], level="L1")
        core = machine.attach(
            0,
            program,
            scheme,
            predictor=StaticTakenPredictor(True),
            tracer=Tracer(),
        )
        machine.run(until=lambda: core.halted, max_cycles=100_000)
        assert scheme.blocked_issues > 0
        transmits = rows_named(core, "transmit")
        assert all(row.issue is None for row in transmits)

    def test_taint_clears_when_root_safe(self):
        """On the correct path the root becomes safe, the transmitter
        unblocks, and the result is architecturally correct."""
        scheme = STT("spectre")
        b = ProgramBuilder()
        b.load_addr("n", 0x48_080, name="slow cond")
        b.branch_if(["n"], lambda v: v > 10, "skip", name="branch")
        b.load_addr("j", 0x40_0C0, name="access")
        b.load("x", ["j"], lambda v: 0x44_040 + v, name="transmit")
        b.label("skip")
        b.halt()
        machine, core = run_on_scheme(
            b.build(), scheme, memory={0x40_0C0: 64, 0x44_040 + 64: 9}
        )
        assert core.regfile["x"] == 9

    def test_untainted_work_flows_freely(self):
        scheme = STT("spectre")
        b = ProgramBuilder()
        b.imm("a", 1)
        b.addi("b", "a", 2)
        machine, core = run_on_scheme(b.build(), scheme)
        assert core.regfile["b"] == 3
        assert scheme.blocked_issues == 0

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            STT("paranoid")


class TestSTTSecurity:
    def test_blocks_spectre(self):
        assert spectre_leak_trial("stt", 7).hits == []

    @pytest.mark.parametrize(
        "builder", [gdnpeu_victim, gdnpeu_arith_victim], ids=["load-tx", "arith-tx"]
    )
    def test_blocks_transient_interference(self, builder):
        spec = builder()
        orders = [
            run_victim_trial(spec, "stt", s).order(spec.line_a, spec.line_b)
            for s in (0, 1)
        ]
        assert orders[0] == orders[1]

    def test_blocks_gdmshr(self):
        spec = gdmshr_victim()
        times = [
            run_victim_trial(spec, "stt", s).first_access(spec.line_a)
            for s in (0, 1)
        ]
        assert times[0] == times[1]

    def test_blocks_girs(self):
        spec = girs_victim()
        times = [
            run_victim_trial(spec, "stt", s).first_access(spec.target_iline)
            for s in (0, 1)
        ]
        assert times[0] == times[1]

    def test_does_not_block_bound_to_retire_secret(self):
        """The paper's §6 limitation: an architecturally accessed secret
        is untainted, and the interference channel leaks it."""
        spec = gdnpeu_architectural_victim()
        orders = [
            run_victim_trial(spec, "stt", s).order(spec.line_a, spec.line_b)
            for s in (0, 1)
        ]
        assert orders[0] != orders[1]


class TestSTTCorrectness:
    @pytest.mark.parametrize("seed", [2, 11, 77, 203])
    def test_architectural_equivalence(self, seed):
        program = random_program(seed)
        expected = Interpreter(program, max_instructions=100_000).run()
        machine, core = run_on_scheme(program, STT("spectre"), max_cycles=400_000)
        for reg, value in expected.registers.items():
            assert core.regfile.get(reg, 0) == value
