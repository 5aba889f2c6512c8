"""The ROB safety prefix a step uses must equal a full walk of the ROB.

The core walks the prefix at most once per simulated cycle: the
quiescence probe walks the post-step state, the next step reuses that
walk, ``Core.restore`` recomputes it, and the walk stops once every
prefix predicate is false.  Each of those shortcuts is checked here
against the reference walk below, which examines every entry and builds
fresh flags for each, on every step of real sweeps.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.experiments import run_workload
from repro.isa import instructions as ins
from repro.isa.instructions import OpClass
from repro.pipeline import Core
from repro.pipeline.dyninstr import DynInstr, Phase
from repro.pipeline.rob import ROB, SafetyFlags
from repro.pipeline.scheme_api import SafetyModel, is_safe
from repro.runner import SerialSweepRunner, expand_grid
from repro.snapshot import fork
from repro.workloads.synthetic import workload_by_name

#: The perfbench attack-matrix grid: 6 victims x 16 schemes x 2 secrets.
VICTIMS = ("gdnpeu", "gdmshr", "girs", "fwd-eu", "fwd-mshr", "fwd-rs")
SCHEMES = (
    "unsafe", "dom-nontso", "dom-tso", "dom-nontso-vp",
    "invisispec-spectre", "invisispec-futuristic", "safespec-wfb",
    "safespec-wfc", "muontrap", "condspec", "cleanupspec",
    "fence-spectre", "fence-futuristic", "priority", "stt",
    "stt-futuristic",
)

FLAG_FIELDS = (
    "older_branches_resolved",
    "older_stores_addr_resolved",
    "older_mem_addr_resolved",
    "older_loads_completed",
    "older_all_completed",
    "is_oldest",
)


def reference_prefix(entries):
    """Full walk: every entry examined, fresh flags built for each."""
    flags = {}
    branches = stores = mem = loads = all_done = True
    first = True
    for entry in entries:
        flags[entry.seq] = SafetyFlags(branches, stores, mem, loads, all_done, first)
        first = False
        opclass = entry.static.opclass
        is_load = opclass is OpClass.LOAD
        is_store = opclass is OpClass.STORE
        if (
            opclass is OpClass.BRANCH
            and not entry.static.unconditional
            and not entry.resolved
        ):
            branches = False
        if (is_load or is_store) and entry.addr is None:
            mem = False
            if is_store:
                stores = False
        if is_load and entry.phase is not Phase.COMPLETED:
            loads = False
        if entry.phase is not Phase.COMPLETED:
            all_done = False
    return flags


@pytest.fixture
def checked_prefix(monkeypatch):
    """Check the prefix every step is about to use, and every prefix
    marked fresh around a probe.  Mismatches are recorded as well as
    raised: the fork layer turns a raising group into a cold re-run."""
    record = {"steps": 0, "probes": 0, "stale": []}
    update_safety = Core._update_safety
    next_event_cycle = Core.next_event_cycle

    def check(core, where):
        expected = reference_prefix(core.rob)
        if list(core.safety_flags.items()) != list(expected.items()):
            record["stale"].append((where, core.core_id, core.cycle))
            raise AssertionError(f"stale safety prefix in {where} at {core.cycle}")

    def checked_update_safety(self):
        check(self, "step")
        record["steps"] += 1
        update_safety(self)

    def checked_next_event_cycle(self):
        if self._safety_fresh:
            check(self, "probe entry")
        wake = next_event_cycle(self)
        if self._safety_fresh:
            check(self, "probe exit")
            record["probes"] += 1
        return wake

    monkeypatch.setattr(Core, "_update_safety", checked_update_safety)
    monkeypatch.setattr(Core, "next_event_cycle", checked_next_event_cycle)
    return record


def test_prefix_matches_full_walk_on_attack_matrix(checked_prefix, monkeypatch):
    """Fork groups restore mid-run, and every trial fast-forwards."""
    restores = []
    fallbacks = []
    restore = Core.restore
    run_fork_group = fork.run_fork_group

    def counted_restore(self, state):
        restores.append(self.cycle)
        restore(self, state)

    def counted_run_fork_group(specs):
        outcomes = run_fork_group(specs)
        if outcomes is None:
            fallbacks.append(specs[0].label())
        return outcomes

    monkeypatch.setattr(Core, "restore", counted_restore)
    monkeypatch.setattr(fork, "run_fork_group", counted_run_fork_group)
    specs = expand_grid(VICTIMS, SCHEMES, (0, 1), base_seed=1)
    outcomes = SerialSweepRunner(fork=True).run_outcomes(specs)
    assert checked_prefix["stale"] == []
    assert fallbacks == []
    assert all(o.ok for o in outcomes)
    assert checked_prefix["steps"] > 10_000
    assert checked_prefix["probes"] > 1_000
    assert restores


def test_prefix_matches_full_walk_on_fig12_kernel(checked_prefix):
    core = run_workload(workload_by_name("branchy"), "fence-futuristic")
    assert core.halted
    assert checked_prefix["stale"] == []
    assert checked_prefix["steps"] > 1_000


# ----------------------------------------------------------------------
# the walk itself, over arbitrary ROB contents
# ----------------------------------------------------------------------
_STATICS = {
    "alu": ins.alu("d", ("a",), lambda a: a),
    "load": ins.load("d", ("a",), lambda a: a),
    "store": ins.store(("a",), lambda a: a, "b"),
    "branch": ins.branch(("a",), lambda a: a, "x"),
    "jump": ins.branch((), lambda: True, "x", unconditional=True),
    "fence": ins.fence(),
    "nop": ins.nop(),
}

_entry = st.tuples(
    st.sampled_from(sorted(_STATICS)),
    st.sampled_from([Phase.DISPATCHED, Phase.ISSUED, Phase.COMPLETED]),
    st.booleans(),  # address known
    st.booleans(),  # branch resolved
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_entry, max_size=24))
def test_walk_equals_reference_on_any_rob(entries):
    rob = ROB(32)
    for seq, (kind, phase, addr_known, resolved) in enumerate(entries, 1):
        instr = DynInstr(seq=seq, slot=0, static=_STATICS[kind], pc_addr=0)
        instr.phase = phase
        instr.addr = 0x40 * seq if addr_known else None
        instr.resolved = resolved
        rob.push(instr)
    assert list(rob.safety_flags().items()) == list(reference_prefix(rob).items())


def test_is_safe_is_monotone_in_the_flags():
    """More true flags never make a load less safe, for every model: the
    became-safe scans stop at the first load that is not safe."""
    combos = [
        SafetyFlags(*(bool(mask >> bit & 1) for bit in range(6)))
        for mask in range(64)
    ]
    for model in SafetyModel:
        for lo in range(64):
            for hi in range(64):
                if lo & hi != lo:
                    continue  # hi does not dominate lo
                if is_safe(model, combos[lo]):
                    assert is_safe(model, combos[hi]), (model, lo, hi)
    assert [f.name for f in SafetyFlags.__dataclass_fields__.values()] == list(
        FLAG_FIELDS
    )
