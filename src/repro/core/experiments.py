"""Whole-figure experiment drivers (Figures 7 and 12, plus ablations).

Each function regenerates one paper artifact end-to-end and returns
plain data; the ``benchmarks/`` harnesses print them in the paper's
shape.  See EXPERIMENTS.md for measured-vs-paper values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.runner import SweepRunner

from repro.analysis.histogram import Histogram
from repro.core.harness import prepare_machine
from repro.core.victims import ATTACK_HIERARCHY, gdnpeu_victim
from repro.memory.hierarchy import CacheHierarchy, HierarchyConfig
from repro.pipeline.core import Core
from repro.pipeline.scheme_api import SpeculationScheme
from repro.schemes.registry import make_scheme
from repro.system.machine import Machine
from repro.trace import EventKind, Tracer
from repro.workloads.synthetic import SyntheticWorkload, synthetic_suite


# ----------------------------------------------------------------------
# Figure 7: interference-gadget contention histogram
# ----------------------------------------------------------------------
def fig7_contention_histogram(
    *,
    trials: int = 200,
    scheme: str = "dom-nontso",
    dram_jitter: int = 25,
) -> Dict[str, Histogram]:
    """Distribution of the interference target's execution time — the
    cycles from the first f(z) instruction issuing to load A completing
    — with (secret=1) and without (secret=0) the gadget.

    The paper's Figure 7 shows two modes ~80 cycles apart on real
    hardware; here the separation is the gadget's extra non-pipelined-EU
    occupancy, and the spread comes from seeded DRAM jitter.
    """
    spec = gdnpeu_victim(variant="vd-vd")
    hier = replace(ATTACK_HIERARCHY, dram_jitter=dram_jitter)
    histograms = {"baseline": Histogram(), "interference": Histogram()}
    for trial in range(trials):
        for secret, series in ((0, "baseline"), (1, "interference")):
            tracer = Tracer(kinds=(EventKind.ISSUE, EventKind.WRITEBACK))
            machine, core, _ = prepare_machine(
                spec, scheme, secret, hierarchy_config=hier, tracer=tracer
            )
            machine.hierarchy.memory.reseed(1000 + trial)
            machine.run(
                until=lambda: core.halted, max_cycles=30_000, fast_forward=True
            )
            t_start = _event_of(tracer, "f0", EventKind.ISSUE)
            t_end = _event_of(tracer, "load A", EventKind.WRITEBACK)
            if t_start is None or t_end is None:
                continue
            histograms[series].add(t_end - t_start)
    return histograms


def _event_of(tracer: Tracer, name: str, kind: EventKind) -> Optional[int]:
    """Cycle of the first ``kind`` event of instruction ``name``."""
    for event in tracer.events:
        if event.kind is kind and event.instr == name:
            return event.cycle
    return None


# ----------------------------------------------------------------------
# Figure 12: basic-defense performance overhead
# ----------------------------------------------------------------------
@dataclass
class OverheadRow:
    workload: str
    baseline_cycles: int
    cycles: Dict[str, int]

    def slowdown(self, scheme: str) -> float:
        return self.cycles[scheme] / self.baseline_cycles


@dataclass
class OverheadReport:
    rows: List[OverheadRow]
    schemes: List[str]

    def geomean(self, scheme: str) -> float:
        values = [row.slowdown(scheme) for row in self.rows]
        return math.exp(sum(math.log(v) for v in values) / len(values))


def run_workload(
    workload: SyntheticWorkload,
    scheme: Union[str, SpeculationScheme],
    *,
    hierarchy_config: Optional[HierarchyConfig] = None,
    max_cycles: int = 3_000_000,
) -> Core:
    """Run one synthetic kernel to completion under a scheme."""
    scheme_obj = scheme if isinstance(scheme, SpeculationScheme) else make_scheme(scheme)
    machine = Machine(
        num_cores=1, hierarchy_config=hierarchy_config or ATTACK_HIERARCHY
    )
    for addr, value in workload.memory_image.items():
        machine.hierarchy.memory.write(addr, value)
    # Simpoint-style measurement: instruction footprint is warm, data
    # behaviour is the workload's own.
    machine.warm_icache(0, workload.program)
    core = machine.attach(0, workload.program, scheme_obj)
    # Attribution for cycle-budget overruns inside large overhead sweeps.
    context = f"workload={workload.name} scheme={scheme_obj.name}"
    machine.trial_context = context
    core.trial_context = context
    machine.run(
        until=lambda: core.halted, max_cycles=max_cycles, fast_forward=True
    )
    return core


def _workload_cycles_task(task) -> Tuple[int, Optional[int]]:
    """Worker for the parallel fig12 path: ``(workload_name, scheme,
    hierarchy_config)`` -> (cycles, checksum).  Resolves the workload by
    name from the synthetic suite — SyntheticWorkload programs hold
    lambdas and cannot cross the process boundary themselves."""
    name, scheme, hierarchy_config = task
    workload = next(w for w in synthetic_suite() if w.name == name)
    core = run_workload(workload, scheme, hierarchy_config=hierarchy_config)
    return core.stats.cycles, core.regfile.get(workload.checksum_reg)


def fig12_defense_overhead(
    *,
    schemes: Sequence[str] = ("fence-spectre", "fence-futuristic"),
    baseline: str = "unsafe",
    workloads: Optional[Sequence[SyntheticWorkload]] = None,
    hierarchy_config: Optional[HierarchyConfig] = None,
    runner: Optional["SweepRunner"] = None,
) -> OverheadReport:
    """Execution-time overhead of the basic fence defense (§5.3).

    Paper shape: Spectre-model geomean ~1.58x, Futuristic ~5.38x over
    the unsafe baseline; the synthetic suite substitutes for SPEC2017.

    ``runner`` fans the (workload, scheme) grid over worker processes —
    only for the default suite (custom workload objects are not
    picklable and run serially regardless).
    """
    if runner is not None and workloads is None:
        names = [w.name for w in synthetic_suite()]
        all_schemes = [baseline, *schemes]
        tasks = [(n, s, hierarchy_config) for n in names for s in all_schemes]
        results = iter(runner.map(_workload_cycles_task, tasks))
        rows = []
        for name in names:
            base_cycles, base_checksum = next(results)
            cycles = {}
            for scheme in schemes:
                scheme_cycles, checksum = next(results)
                if checksum != base_checksum:
                    raise AssertionError(
                        f"{name}: defense changed architectural result "
                        f"({base_checksum} != {checksum})"
                    )
                cycles[scheme] = scheme_cycles
            rows.append(
                OverheadRow(
                    workload=name, baseline_cycles=base_cycles, cycles=cycles
                )
            )
        return OverheadReport(rows=rows, schemes=list(schemes))
    rows = []
    for workload in workloads or synthetic_suite():
        base = run_workload(
            workload, baseline, hierarchy_config=hierarchy_config
        )
        cycles: Dict[str, int] = {}
        for scheme in schemes:
            core = run_workload(
                workload, scheme, hierarchy_config=hierarchy_config
            )
            _assert_same_checksum(workload, base, core)
            cycles[scheme] = core.stats.cycles
        rows.append(
            OverheadRow(
                workload=workload.name,
                baseline_cycles=base.stats.cycles,
                cycles=cycles,
            )
        )
    return OverheadReport(rows=rows, schemes=list(schemes))


def _assert_same_checksum(
    workload: SyntheticWorkload, a: Core, b: Core
) -> None:
    reg = workload.checksum_reg
    va, vb = a.regfile.get(reg), b.regfile.get(reg)
    if va != vb:
        raise AssertionError(
            f"{workload.name}: defense changed architectural result "
            f"({va} != {vb})"
        )


# ----------------------------------------------------------------------
# Ablation: the §5.4 advanced (priority-scheduling) defense
# ----------------------------------------------------------------------
@dataclass
class AblationResult:
    """Security + performance of a defense relative to its base scheme."""

    scheme: str
    blocks_gdnpeu: bool
    overhead: OverheadReport


def ablation_advanced_defense() -> AblationResult:
    """Does PriorityDefense kill the GDNPEU reorder, and at what cost?"""
    from repro.core.harness import run_victim_trial
    from repro.schemes.priority import PriorityDefense

    spec = gdnpeu_victim(variant="vd-vd")
    orders = []
    for secret in (0, 1):
        result = run_victim_trial(spec, PriorityDefense(), secret)
        orders.append(result.order(spec.line_a, spec.line_b))
    blocks = orders[0] == orders[1]
    overhead = fig12_defense_overhead(schemes=("priority",), baseline="dom-nontso")
    return AblationResult(
        scheme="priority+dom-nontso", blocks_gdnpeu=blocks, overhead=overhead
    )
