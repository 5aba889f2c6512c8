"""Teeth of the leader-lane cross-check.

Every cohort's leader lane must reproduce ``hierarchy.capture()``
exactly, in ``LockstepMirror.finish()`` and again at the end of
``run_probe()``.  Corrupting one leader-lane element of the SoA state —
a resident line, a replacement-policy field or a statistics counter —
after the scalar leader has run must make the cohort raise
:class:`BatchMirrorError` out of the group.
"""

import pytest

pytest.importorskip("numpy")

import numpy as np

import repro.batch.engine as engine_mod
from repro.batch.engine import BatchMirrorError, run_batch_group_detailed
from repro.core.victims import ADDR_REF, victim_by_name
from repro.runner import TrialSpec
from repro.workloads import probe_addresses

#: (label, index in ``all_caches()`` order, SoA array attribute).  The
#: default hierarchy has LRU private caches and a QLRU LLC.
FLIPS = (
    ("L1D lines", 1, "lines"),
    ("LLC lines", -1, "lines"),
    ("L1D LRU last use", 1, "pol_last_use"),
    ("L2 LRU stamp", 2, "pol_stamp"),
    ("LLC QLRU age", -1, "pol_age"),
    ("L1D stats", 1, "stats"),
    ("LLC stats", -1, "stats"),
)


def _specs(*, probe):
    probes = probe_addresses(victim_by_name("gdnpeu")) if probe else ()
    return [
        TrialSpec(
            victim="gdnpeu",
            scheme="dom-nontso",
            secret=1,
            seed=5,
            reference_accesses=refs,
            probe_accesses=probes,
        )
        for refs in ((), ((ADDR_REF, 60),))
    ]


def _flip_leader(mirror, cache, attr):
    """Flip one bit of one leader-lane element (a resident line for
    ``lines``, the first element otherwise)."""
    array = getattr(mirror.state.caches[cache], attr)
    leader = array[mirror.leader_lane]
    k = int(np.flatnonzero(leader != -1)[0]) if attr == "lines" else 0
    array[(mirror.leader_lane,) + np.unravel_index(k, leader.shape)] ^= 1


def _flip_before(monkeypatch, method, cache, attr):
    real = getattr(engine_mod.LockstepMirror, method)

    def flipped(self, *args, **kwargs):
        _flip_leader(self, cache, attr)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(engine_mod.LockstepMirror, method, flipped)


def test_unflipped_cohort_passes_both_checks():
    report = run_batch_group_detailed(_specs(probe=True))
    assert report.ejected == 0
    assert all(o.ok and o.summary.probe_latencies for o in report.outcomes)


@pytest.mark.parametrize("label,cache,attr", FLIPS, ids=[f[0] for f in FLIPS])
def test_finish_rejects_a_flipped_leader_element(monkeypatch, label, cache, attr):
    _flip_before(monkeypatch, "finish", cache, attr)
    with pytest.raises(BatchMirrorError, match="drifted from"):
        run_batch_group_detailed(_specs(probe=False))


@pytest.mark.parametrize("label,cache,attr", FLIPS, ids=[f[0] for f in FLIPS])
def test_run_probe_rejects_a_flipped_leader_element(
    monkeypatch, label, cache, attr
):
    _flip_before(monkeypatch, "run_probe", cache, attr)
    with pytest.raises(BatchMirrorError):
        run_batch_group_detailed(_specs(probe=True))
