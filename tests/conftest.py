"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.analysis.timeline import timeline_rows
from repro.memory.hierarchy import HierarchyConfig, LevelConfig
from repro.trace import EventKind, Tracer
from repro.trace.events import STAGE_KINDS


def pytest_addoption(parser):
    parser.addoption(
        "--refresh-golden",
        action="store_true",
        default=False,
        help="rewrite the golden trace files under tests/data/golden_traces/ "
        "from the current simulator instead of diffing against them",
    )


def small_hierarchy_config(**overrides) -> HierarchyConfig:
    """A fast hierarchy for unit tests (attack-relevant shape intact:
    16-way QLRU LLC, finite MSHRs)."""
    defaults = dict(
        l1i=LevelConfig(16, 4, latency=3),
        l1d=LevelConfig(16, 4, latency=3),
        l2=LevelConfig(32, 4, latency=12),
        llc=LevelConfig(64, 16, latency=40, policy="qlru"),
        dram_latency=200,
        dram_jitter=0,
        l1d_mshrs=4,
    )
    defaults.update(overrides)
    return HierarchyConfig(**defaults)


@pytest.fixture
def hierarchy_config():
    return small_hierarchy_config()


def run_on_scheme(
    program,
    scheme,
    *,
    registers=None,
    memory=None,
    hierarchy=None,
    predictor=None,
    num_cores=2,
    warm_icache=True,
    max_cycles=200_000,
):
    """Run a program on core 0 of a small machine under a scheme.

    The core records its pipeline stages on a :class:`Tracer`, so
    :func:`timeline_rows` / :func:`rows_named` can read it back.
    Returns (machine, core).
    """
    from repro.system.machine import Machine

    machine = Machine(
        num_cores=num_cores, hierarchy_config=hierarchy or small_hierarchy_config()
    )
    for addr, value in (memory or {}).items():
        machine.hierarchy.memory.write(addr, value)
    if warm_icache:
        machine.warm_icache(0, program)
    core = machine.attach(
        0,
        program,
        scheme,
        predictor=predictor,
        registers=registers,
        tracer=Tracer(kinds=STAGE_KINDS),
    )
    machine.run(until=lambda: core.halted, max_cycles=max_cycles)
    return machine, core


def rows_named(source, name, *, retired=False):
    """Timeline rows of the instructions called exactly ``name``, in
    program order; ``retired=True`` drops squashed instances.

    ``source`` is anything :func:`timeline_rows` accepts (a traced core,
    a tracer, or events).
    """
    return [
        row
        for row in timeline_rows(source)
        if row.name == name and not (retired and row.squashed)
    ]


def first_l1d_lookup(tracer, addr, *, core=0):
    """Cycle of the first L1D hit or miss on ``addr``'s line: when a
    load's data-cache access started (it needs the hierarchy traced)."""
    line = addr & ~63
    for event in tracer.filtered(
        kinds=(EventKind.CACHE_HIT, EventKind.CACHE_MISS)
    ):
        if event.arg("cache") == f"L1D.{core}" and event.arg("line") == line:
            return event.cycle
    return None
