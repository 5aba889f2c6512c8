"""Tests for the machine statistics projection (``machine_metrics``)."""

import json

from repro.isa import ProgramBuilder
from repro.system.machine import Machine
from repro.system.stats import machine_metrics

from tests.conftest import small_hierarchy_config


def run_machine():
    m = Machine(2, hierarchy_config=small_hierarchy_config())
    b = ProgramBuilder()
    b.imm("i", 0)
    b.label("head")
    b.load("x", ["i"], lambda v: 0x40_000 + (v % 4) * 64, name="ld")
    b.addi("i", "i", 1)
    b.branch_if(["i"], lambda v: v < 8, "head")
    program = b.build()
    m.warm_icache(0, program)
    core = m.attach(0, program, None)
    m.run()
    return m, core


class TestCoreReport:
    def test_counters_match_stats(self):
        m, core = run_machine()
        flat = machine_metrics(m).as_flat_dict()
        assert flat["core0.pipeline.cycles"] == core.stats.cycles
        assert flat["core0.pipeline.retired"] == core.stats.retired
        assert flat["core0.pipeline.branches"] == core.stats.branches


class TestMachineMetrics:
    def test_aggregates_all_levels(self):
        m, core = run_machine()
        reg = machine_metrics(m)
        for level in ("L1I.0", "L1D.0", "L2.0", "LLC"):
            for counter in ("hits", "misses", "fills", "evictions", "invalidations"):
                assert f"cache.{level}.{counter}" in reg.counters
        assert reg.gauge("machine.cycles") == m.cycle
        assert reg.counter("dram.reads") > 0

    def test_llc_hit_rate_sane(self):
        m, core = run_machine()
        reg = machine_metrics(m)
        hits = reg.counter("cache.LLC.hits")
        misses = reg.counter("cache.LLC.misses")
        assert hits >= 0 and misses >= 0
        assert hits + misses > 0

    def test_json_serializable(self):
        m, core = run_machine()
        parsed = json.loads(json.dumps(machine_metrics(m).to_json()))
        assert parsed["gauges"]["machine.cycles"] == m.cycle
        cores = {name.split(".")[0] for name in parsed["counters"] if name.startswith("core")}
        assert cores == {"core0"}
