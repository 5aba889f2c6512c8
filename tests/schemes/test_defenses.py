"""Tests for the paper's defenses: fence (§5.2) and priority (§5.4)."""

import pytest

from repro.isa import ProgramBuilder
from repro.analysis.timeline import timeline_rows
from repro.pipeline.branch import StaticTakenPredictor
from repro.schemes import DelayOnMiss, FenceDefense, PriorityDefense

from tests.conftest import rows_named, run_on_scheme

SPEC_ADDR = 0x40_0C0
COND_ADDR = 0x48_080


class TestFenceDefense:
    def test_no_speculative_issue_past_branch(self):
        """With the Spectre fence, nothing younger than an unresolved
        branch issues — the mis-speculated load never executes."""
        scheme = FenceDefense("spectre")
        b = ProgramBuilder()
        b.load_addr("n", COND_ADDR, name="slow cond")
        b.branch_if(["n"], lambda v: v > 10, "body", name="branch")
        b.jump("end")
        b.label("body")
        b.load_addr("x", SPEC_ADDR, name="spec load")
        b.label("end")
        b.halt()
        machine, core = run_on_scheme(
            b.build(), scheme, predictor=StaticTakenPredictor(True)
        )
        assert scheme.issue_blocks > 0
        spec_loads = rows_named(core, "spec load")
        assert all(row.issue is None for row in spec_loads)
        assert machine.hierarchy.hit_level(0, SPEC_ADDR) == "DRAM"

    def test_spectre_model_allows_pre_branch_parallelism(self):
        """Independent work older than any branch issues freely."""
        scheme = FenceDefense("spectre")
        b = ProgramBuilder()
        for i in range(8):
            b.alu(f"r{i}", [], lambda i=i: i, port=1 if i % 2 else 5, name=f"op{i}")
        b.load_addr("n", COND_ADDR, name="cond")
        b.branch_if(["n"], lambda v: v > 10, "out", name="branch")
        b.label("out")
        b.halt()
        machine, core = run_on_scheme(b.build(), scheme)
        issues = sorted(
            row.issue
            for row in timeline_rows(core, names=["op"])
            if row.issue is not None
        )
        # at least two ops issued in the same cycle: parallelism survives
        assert len(issues) - len(set(issues)) >= 1

    def test_futuristic_serializes_issue(self):
        scheme = FenceDefense("futuristic")
        b = ProgramBuilder()
        for i in range(8):
            b.imm(f"r{i}", i, name=f"op{i}")
        machine, core = run_on_scheme(b.build(), scheme)
        issues = sorted(
            row.issue
            for row in timeline_rows(core, names=["op"])
            if row.issue is not None
        )
        assert len(set(issues)) == len(issues)  # one at a time

    def test_architectural_correctness(self):
        for model in ("spectre", "futuristic"):
            b = ProgramBuilder()
            b.imm("i", 0)
            b.imm("acc", 0)
            b.label("head")
            b.add("acc", "acc", "i")
            b.addi("i", "i", 1)
            b.branch_if(["i"], lambda v: v < 6, "head")
            machine, core = run_on_scheme(b.build(), FenceDefense(model))
            assert core.regfile["acc"] == sum(range(6))

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError):
            FenceDefense("paranoid")


class TestPriorityDefense:
    def test_preemption_counter_increments(self):
        """An older op evicts a younger occupant of the non-pipelined
        unit (§5.4 'squashable EU')."""
        scheme = PriorityDefense(DelayOnMiss("nontso"))
        b = ProgramBuilder()
        # Older chain (slow producer -> port 0), younger ready op on port 0.
        b.alu("z", [], lambda: 7, latency=20, port=1, name="z")
        b.alu("f1", ["z"], lambda v: v + 1, latency=15, port=0, name="f1")
        b.alu("g1", [], lambda: 1, latency=15, port=0, name="g1")
        b.alu("g2", [], lambda: 2, latency=15, port=0, name="g2")
        machine, core = run_on_scheme(b.build(), scheme)
        assert core.stats.eu_preemptions >= 1
        assert core.regfile["f1"] == 8  # re-issued occupant still correct

    def test_older_not_delayed_by_younger(self):
        """With preemption, f1 issues as soon as it is ready even if a
        younger op grabbed the unit first."""
        def gap(scheme):
            b = ProgramBuilder()
            b.alu("z", [], lambda: 7, latency=20, port=1, name="z")
            b.alu("f1", ["z"], lambda v: v + 1, latency=15, port=0, name="f1")
            for i in range(4):
                b.alu(f"g{i}", [], lambda: 1, latency=15, port=0, name=f"g{i}")
            machine, core = run_on_scheme(b.build(), scheme)
            (z,) = rows_named(core, "z")
            (f1,) = rows_named(core, "f1")
            return f1.issue - z.complete

        baseline_gap = gap(DelayOnMiss("nontso"))
        defended_gap = gap(PriorityDefense(DelayOnMiss("nontso")))
        assert defended_gap <= 2
        assert baseline_gap > defended_gap

    def test_architectural_correctness_with_preemption(self):
        scheme = PriorityDefense(DelayOnMiss("nontso"))
        b = ProgramBuilder()
        b.alu("z", [], lambda: 3, latency=20, port=1, name="z")
        prev = "z"
        for i in range(4):
            b.alu(f"f{i}", [prev], lambda v: v * 2, latency=15, port=0, name=f"f{i}")
            prev = f"f{i}"
        for i in range(6):
            b.alu(f"g{i}", [], lambda i=i: i, latency=15, port=0, name=f"g{i}")
        machine, core = run_on_scheme(b.build(), scheme)
        assert core.regfile[prev] == 3 * 16
        for i in range(6):
            assert core.regfile[f"g{i}"] == i

    def test_delegates_to_base(self):
        base = DelayOnMiss("tso")
        scheme = PriorityDefense(base)
        assert scheme.safety is base.safety
        assert scheme.name == "priority+dom-tso"
        assert scheme.hold_rs_until_safe
        assert scheme.preempt_eus
