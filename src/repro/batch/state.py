"""Structure-of-arrays mirror of N cache-hierarchy lanes.

:class:`BatchState` holds the memory-system state of N sweep *lanes* as
numpy arrays keyed by lane index.  The layout spec is the Snapshot
protocol: ``BatchState.from_snapshots(hierarchy, capture, n_lanes)``
starts every lane from the exact flat tuple produced by
``CacheHierarchy.capture()``, and ``to_snapshot(lane)`` reproduces
such a tuple bit-for-bit — the round trip is property-tested for every
replacement policy, so the SoA layout can never silently drift from the
scalar capture schema.

Array layout per cache level (10 caches in ``all_caches()`` order):

* ``lines[N, total_sets, ways]`` — resident line addresses, ``-1`` for
  an invalid way (the scalar capture uses ``None``).
* ``stats[N, 5]`` — hits, misses, fills, evictions, invalidations.
* per-policy metadata arrays (LRU stamps, RRPV counters, PLRU tree
  bits, ...), mirroring the scalar policies' ``snapshot_state()``.

State that is touched rarely (DRAM contents, coherence sharer maps,
per-lane RNG mirrors, the visible-access log) stays as per-lane Python
objects: the win of the batched engine is skipping N-1 pipeline
simulations, not vectorizing dictionary writes.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.batch._numpy import np, require_numpy
from repro.memory.cache import Cache
from repro.memory.coherence import CoherenceDirectory, CoherenceState
from repro.memory.hierarchy import CacheHierarchy, VisibleAccess
from repro.memory.main_memory import MainMemory
from repro.memory.mshr import MSHRFile

#: QLRU constants mirrored from :mod:`repro.memory.qlru`.
QLRU_MAX_AGE = 3
QLRU_INSERT_AGE = 1


class BatchSchemaError(RuntimeError):
    """A scalar component's snapshot layout is not the one this SoA
    mirror was written against.  Raised loudly instead of producing
    silently wrong batched results."""


def _check_snapshot_versions() -> None:
    """The SoA layout below hand-mirrors specific capture-tuple
    versions; fail hard if any component has since been re-versioned.
    (MainMemory v2 = the counter-stream state tuple of
    :mod:`repro.memory.stream`.)"""
    expected = {
        Cache: 1,
        CacheHierarchy: 1,
        MainMemory: 2,
        MSHRFile: 1,
        CoherenceDirectory: 1,
    }
    for cls, version in expected.items():
        actual = getattr(cls, "SNAP_VERSION", None)
        if actual != version:
            raise BatchSchemaError(
                f"{cls.__name__}.SNAP_VERSION is {actual}, but repro.batch "
                f"mirrors capture layout version {version}; update the SoA "
                "layout in repro.batch.state before batching again"
            )


#: Per-policy SoA mirror of ``SetPolicy.snapshot_state()``: the
#: (snapshot field, ``LaneCache`` array attribute) pairs in snapshot
#: (sorted name) order.  A capture whose per-set field names differ is a
#: schema drift and raises :class:`BatchSchemaError`.
POLICY_FIELDS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "lru": (("_last_use", "pol_last_use"), ("_stamp", "pol_stamp")),
    "nru": (("_ref", "pol_ref"),),
    "srrip": (("_rrpv", "pol_rrpv"),),
    "plru": (("_bits", "pol_bits"),),
    "qlru": (("_age", "pol_age"),),
    "random": (),
}


class LaneCache:
    """SoA state of one cache level across all lanes."""

    def __init__(self, template: Cache, n_lanes: int) -> None:
        require_numpy()
        self.name = template.name
        self.policy = template.policy_name.lower()
        self.num_ways = template.num_ways
        self.layout = template.layout
        self.global_set = template.layout.global_set
        self.total_sets = template.layout.num_sets * template.layout.num_slices
        self.n_lanes = n_lanes
        n, s, w = n_lanes, self.total_sets, self.num_ways
        self.lines: Any = np.full((n, s, w), -1, dtype=np.int64)
        self.stats: Any = np.zeros((n, 5), dtype=np.int64)
        #: Per-lane RNG mirrors (the hierarchy's shared policy RNG),
        #: assigned by :class:`BatchState`; drawn only by random-policy
        #: victim selection.
        self.rngs: List[random.Random] = []
        self.max_rrpv = 0
        if self.policy == "lru":
            self.pol_stamp: Any = np.zeros((n, s), dtype=np.int64)
            self.pol_last_use: Any = np.zeros((n, s, w), dtype=np.int64)
        elif self.policy == "nru":
            self.pol_ref: Any = np.zeros((n, s, w), dtype=np.int64)
        elif self.policy == "srrip":
            self.max_rrpv = template._sets[0].policy.max_rrpv  # type: ignore[attr-defined]
            self.pol_rrpv: Any = np.zeros((n, s, w), dtype=np.int64)
        elif self.policy == "plru":
            self.pol_bits: Any = np.zeros((n, s, max(w - 1, 1)), dtype=np.int64)
        elif self.policy == "qlru":
            self.pol_age: Any = np.zeros((n, s, w), dtype=np.int64)
        elif self.policy != "random":
            raise BatchSchemaError(f"unknown replacement policy {self.policy!r}")
        self.fields = POLICY_FIELDS[self.policy]

    # ------------------------------------------------------------------
    @classmethod
    def from_capture(
        cls, template: Cache, capture: Tuple, n_lanes: int
    ) -> "LaneCache":
        """Build the SoA for ``n_lanes`` lanes that all start from one
        ``Cache.capture()`` tuple.

        The capture is decoded once, column by column, and each column
        is copied into every lane of its (already allocated, writable)
        array, so no two lanes share memory.
        """
        lc = cls(template, n_lanes)
        sets_state, stats = capture
        if len(sets_state) != lc.total_sets:
            raise BatchSchemaError(
                f"{lc.name}: capture has {len(sets_state)} sets, "
                f"geometry says {lc.total_sets}"
            )
        set_lines, policy_states = zip(*sets_state)
        lc._fill(
            "lines",
            [[-1 if line is None else line for line in lines] for lines in set_lines],
        )
        names = tuple(name for name, _ in lc.fields)
        found = {tuple(name for name, _ in state) for state in policy_states}
        if found != {names}:
            raise BatchSchemaError(
                f"{lc.name}: policy snapshot fields {sorted(found)} do not "
                f"match {list(names)} for policy {lc.policy!r}"
            )
        for k, (_, attr) in enumerate(lc.fields):
            lc._fill(attr, [state[k][1] for state in policy_states])
        lc.stats[:] = stats
        return lc

    def _fill(self, attr: str, column: List) -> None:
        """Copy one decoded per-set column into every lane of ``attr``."""
        target = getattr(self, attr)
        values = np.array(column, dtype=np.int64)
        if values.shape != target.shape[1:]:
            raise BatchSchemaError(
                f"{self.name}: {attr} decodes to shape {values.shape}, "
                f"the SoA layout expects {target.shape[1:]}"
            )
        target[:] = values

    # ------------------------------------------------------------------
    def to_snapshot(self, lane: int) -> Tuple:
        """Exact ``Cache.capture()`` tuple for one lane."""
        lines = self.lines[lane].astype(object)
        lines[self.lines[lane] == -1] = None
        set_lines = map(tuple, lines.tolist())
        if self.fields:
            names = tuple(name for name, _ in self.fields)
            columns = [getattr(self, attr)[lane].tolist() for _, attr in self.fields]
            policy_states: Any = (
                tuple(zip(names, values)) for values in zip(*columns)
            )
        else:
            policy_states = [()] * self.total_sets
        return (
            tuple(zip(set_lines, policy_states)),
            tuple(self.stats[lane].tolist()),
        )


class BatchState:
    """All-lane memory-system state; see module docstring."""

    def __init__(self, hierarchy: CacheHierarchy, n_lanes: int) -> None:
        require_numpy()
        _check_snapshot_versions()
        self.hierarchy = hierarchy
        self.config = hierarchy.config
        self.num_cores = hierarchy.num_cores
        self.n_lanes = n_lanes
        #: ``all_caches()`` order: per-core (l1i, l1d, l2), then the LLC.
        self.caches: List[LaneCache] = []
        #: Per-lane sparse DRAM contents / access counters.
        self.mem_data: List[Dict[int, int]] = []
        self.mem_reads: Any = np.zeros(n_lanes, dtype=np.int64)
        self.mem_writes: Any = np.zeros(n_lanes, dtype=np.int64)
        #: Per-lane counter-stream state (``MainMemory`` v2 capture:
        #: ``(seed, last_cycle, last_core, seq)``), kept as numpy arrays
        #: so the mirror draws DRAM jitter vectorized across lanes.
        self.stream_seed: Any = np.zeros(n_lanes, dtype=np.uint64)
        self.stream_cycle: Any = np.full(n_lanes, -1, dtype=np.int64)
        self.stream_core: Any = np.full(n_lanes, -1, dtype=np.int64)
        self.stream_seq: Any = np.full(n_lanes, -1, dtype=np.int64)
        #: Per-lane MSHR-file captures.  MSHR traffic is victim-driven
        #: and therefore uniform across converged lanes; the engine
        #: overwrites these with the leader's final capture at finish.
        self.mshrs: List[Tuple] = []
        self.visible_log: List[List[VisibleAccess]] = []
        #: Per-lane coherence sharer maps (``line -> {core: state}``),
        #: or None when coherence is disabled.
        self.coherence: List[Optional[Dict[int, Dict[int, CoherenceState]]]] = []
        #: invalidations_sent, downgrades, upgrades, writeback_penalties
        self.coh_stats: Any = np.zeros((n_lanes, 4), dtype=np.int64)
        #: Per-lane mirrors of the hierarchy's shared policy RNG.
        self.policy_rng: List[random.Random] = []

    # ------------------------------------------------------------------
    @classmethod
    def from_snapshots(
        cls, hierarchy: CacheHierarchy, capture: Tuple, n_lanes: int
    ) -> "BatchState":
        """Start ``n_lanes`` lanes from one ``CacheHierarchy.capture()``
        tuple: each array field is decoded once and copied into every
        lane, and every lane gets its own Python objects (DRAM dict,
        visible log, coherence map, policy RNG)."""
        state = cls(hierarchy, n_lanes)
        caches, memory, mshrs, log, coherence, rng_state = capture
        templates = hierarchy.all_caches()
        if len(caches) != len(templates):
            raise BatchSchemaError(
                f"capture has {len(caches)} caches, the hierarchy "
                f"has {len(templates)}"
            )
        state.caches = [
            LaneCache.from_capture(template, cache_state, n_lanes)
            for template, cache_state in zip(templates, caches)
        ]
        data, stream_state, reads, writes = memory
        seed, last_cycle, last_core, seq = stream_state
        state.mem_data = [dict(data) for _ in range(n_lanes)]
        state.stream_seed[:] = seed
        state.stream_cycle[:] = last_cycle
        state.stream_core[:] = last_core
        state.stream_seq[:] = seq
        state.mem_reads[:] = reads
        state.mem_writes[:] = writes
        state.mshrs = [mshrs] * n_lanes
        state.visible_log = [list(log) for _ in range(n_lanes)]
        if coherence is None:
            state.coherence = [None] * n_lanes
        else:
            sharers, coh_stats = coherence
            state.coherence = [
                {line: dict(entry) for line, entry in sharers}
                for _ in range(n_lanes)
            ]
            state.coh_stats[:] = coh_stats
        for _ in range(n_lanes):
            rng = random.Random()
            rng.setstate(rng_state)
            state.policy_rng.append(rng)
        for lane_cache in state.caches:
            lane_cache.rngs = state.policy_rng
        return state

    # ------------------------------------------------------------------
    def to_snapshot(self, lane: int) -> Tuple:
        """Exact ``CacheHierarchy.capture()`` tuple for one lane."""
        coherence: Optional[Tuple] = None
        sharer_map = self.coherence[lane]
        if sharer_map is not None:
            coherence = (
                tuple(
                    (line, tuple(entry.items()))
                    for line, entry in sharer_map.items()
                ),
                tuple(self.coh_stats[lane, :].tolist()),
            )
        return (
            tuple(cache.to_snapshot(lane) for cache in self.caches),
            (
                dict(self.mem_data[lane]),
                (
                    int(self.stream_seed[lane]),
                    int(self.stream_cycle[lane]),
                    int(self.stream_core[lane]),
                    int(self.stream_seq[lane]),
                ),
                int(self.mem_reads[lane]),
                int(self.mem_writes[lane]),
            ),
            self.mshrs[lane],
            tuple(self.visible_log[lane]),
            coherence,
            self.policy_rng[lane].getstate(),
        )

    def restore_into(self, hierarchy: CacheHierarchy, lane: int) -> None:
        """Eject one lane back to a scalar hierarchy (divergence exit)."""
        hierarchy.restore(self.to_snapshot(lane))
