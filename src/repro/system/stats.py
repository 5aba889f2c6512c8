"""Structured run statistics: one metrics registry per machine run.

:func:`machine_metrics` projects a finished machine's core pipeline,
cache-hierarchy and DRAM counters (plus per-stage latency histograms,
when a trace is available) into a hierarchical
:class:`repro.trace.MetricsRegistry` — the gem5-style ``stats.txt``
equivalent for this simulator.  The sweep runner aggregates these
registries across trials and dumps them as JSONL.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.pipeline.core import Core
from repro.system.machine import Machine
from repro.trace.events import EventKind, TraceEvent
from repro.trace.metrics import MetricsRegistry


# ----------------------------------------------------------------------
# hierarchical metrics
# ----------------------------------------------------------------------
_CORE_COUNTERS = (
    "cycles",
    "fetched",
    "dispatched",
    "issued",
    "retired",
    "branches",
    "mispredicts",
    "squashes",
    "squashed_instrs",
    "icache_miss_stalls",
    "fetch_stall_cycles",
    "rs_full_stalls",
    "rob_full_stalls",
    "eu_preemptions",
)

#: Per-stage transitions turned into latency histograms when a trace is
#: supplied: (metric name, from-kind, to-kind).
_STAGE_LATENCIES = (
    ("stage.fetch_to_dispatch", EventKind.FETCH, EventKind.DISPATCH),
    ("stage.dispatch_to_issue", EventKind.DISPATCH, EventKind.ISSUE),
    ("stage.issue_to_execute", EventKind.ISSUE, EventKind.EXECUTE),
    ("stage.execute_to_writeback", EventKind.EXECUTE, EventKind.WRITEBACK),
    ("stage.writeback_to_commit", EventKind.WRITEBACK, EventKind.COMMIT),
)


def _core_metrics(reg: MetricsRegistry, core: Core) -> None:
    p = f"core{core.core_id}"
    for name in _CORE_COUNTERS:
        reg.inc(f"{p}.pipeline.{name}", getattr(core.stats, name))
    lsu = core.lsu
    reg.inc(f"{p}.lsu.delayed", lsu.stats_delayed)
    reg.inc(f"{p}.lsu.mshr_blocked_cycles", lsu.stats_mshr_blocked_cycles)
    reg.inc(f"{p}.lsu.invisible", lsu.stats_invisible)
    reg.inc(f"{p}.lsu.forwards", lsu.stats_forwards)
    reg.inc(f"{p}.lsu.predicted", lsu.stats_predicted)
    for eu in core.eus:
        ep = f"{p}.eu{eu.port_index}"
        reg.inc(f"{ep}.issues", eu.issues)
        reg.inc(f"{ep}.busy_cycles", eu.busy_cycles)
    reg.inc(f"{p}.cdb.broadcasts", core.cdb.broadcasts)
    reg.inc(f"{p}.cdb.stall_cycles", core.cdb.stall_cycles)
    mshrs = core.hierarchy.l1d_mshrs[core.core_id]
    reg.inc(f"{p}.mshr.allocations", mshrs.allocations)
    reg.inc(f"{p}.mshr.coalesced", mshrs.coalesced)
    reg.inc(f"{p}.mshr.rejections", mshrs.rejections)
    reg.set_gauge(f"{p}.mshr.peak_occupancy", mshrs.peak_occupancy)


def _stage_histograms(
    reg: MetricsRegistry, events: Iterable[TraceEvent]
) -> None:
    """Per-stage latency histograms from a structured trace."""
    cycles: Dict[tuple, Dict[EventKind, int]] = {}
    for event in events:
        if event.seq is None:
            continue
        key = (event.core, event.seq)
        stages = cycles.setdefault(key, {})
        if event.kind not in stages:  # first occurrence wins
            stages[event.kind] = event.cycle
    for (core, _seq), stages in cycles.items():
        prefix = f"core{core if core is not None else 0}"
        for name, src, dst in _STAGE_LATENCIES:
            if src in stages and dst in stages:
                reg.observe(f"{prefix}.{name}", stages[dst] - stages[src])


#: One cache level's counters for :func:`compose_metrics`:
#: ``(name, hits, misses, fills, evictions, invalidations)``.
CacheRow = tuple


def compose_metrics(
    *,
    cycles: int,
    cores: Iterable[Core],
    cache_rows: Iterable[CacheRow],
    dram_reads: int,
    dram_writes: int,
    visible_accesses: int,
    events: Optional[Iterable[TraceEvent]] = None,
) -> MetricsRegistry:
    """Assemble a trial metrics registry from its parts.

    The registry's insertion order is part of its serialized identity
    (``to_json`` preserves it), so every producer — the cold path via
    :func:`machine_metrics`, and the batched lockstep engine projecting
    a follower lane from SoA counters — must build it through this one
    skeleton: machine gauge, per-core counters, cache rows in
    ``all_caches()`` order, DRAM traffic, visible LLC accesses, then the
    optional stage histograms.
    """
    reg = MetricsRegistry()
    reg.set_gauge("machine.cycles", cycles)
    for core in cores:
        _core_metrics(reg, core)
    for name, hits, misses, fills, evictions, invalidations in cache_rows:
        cp = f"cache.{name}"
        reg.inc(f"{cp}.hits", hits)
        reg.inc(f"{cp}.misses", misses)
        reg.inc(f"{cp}.fills", fills)
        reg.inc(f"{cp}.evictions", evictions)
        reg.inc(f"{cp}.invalidations", invalidations)
    reg.inc("dram.reads", dram_reads)
    reg.inc("dram.writes", dram_writes)
    reg.inc("llc.visible_accesses", visible_accesses)
    if events is not None:
        _stage_histograms(reg, events)
    return reg


def machine_metrics(
    machine: Machine, events: Optional[Iterable[TraceEvent]] = None
) -> MetricsRegistry:
    """Project a finished machine run into a hierarchical registry.

    Covers per-core pipeline counters, per-EU/CDB/LSU/MSHR counters,
    per-cache-level counters, DRAM traffic and visible LLC accesses
    under dotted names, plus per-stage latency histograms when
    ``events`` (a structured trace) is supplied.  Registries merge across trials: see
    :meth:`repro.trace.MetricsRegistry.merge`.
    """
    hierarchy = machine.hierarchy
    return compose_metrics(
        cycles=machine.cycle,
        cores=[core for _, core in sorted(machine.cores.items())],
        cache_rows=[
            (
                cache.name,
                cache.stats.hits,
                cache.stats.misses,
                cache.stats.fills,
                cache.stats.evictions,
                cache.stats.invalidations,
            )
            for cache in hierarchy.all_caches()
        ],
        dram_reads=hierarchy.memory.reads,
        dram_writes=hierarchy.memory.writes,
        visible_accesses=len(hierarchy.visible_log),
        events=events,
    )
