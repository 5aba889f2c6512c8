"""The runner's group-dispatch loop: fallbacks of the fork and batch
layers to cold execution, and the fork+batch pool path.

A group is the only fallback boundary: a failure anywhere inside a
fork or batch group sends the whole group cold, where it is counted,
and never to another fast path."""

import pytest

import repro.snapshot.fork as fork
from repro.core.victims import ADDR_REF
from repro.runner import ParallelSweepRunner, SerialSweepRunner, TrialSpec, faults

REFS_A = ((ADDR_REF, 60),)
REFS_B = ((ADDR_REF, 60), (ADDR_REF + 64, 150))


@pytest.fixture(autouse=True)
def _no_fault_plan():
    faults.clear_plan()
    yield
    faults.clear_plan()


def _spec(**kw):
    base = dict(
        victim="gdnpeu", scheme="dom-nontso", secret=1, seed=4,
        reference_accesses=REFS_A,
    )
    base.update(kw)
    return TrialSpec(**base)


def _mixed_specs():
    # The grid of tests/batch/test_runner.py: one batch group, a fork
    # singleton, a sanitized spec and a structured failure.
    return [
        _spec(secret=s, seed=seed, reference_accesses=refs)
        for s in (0, 1)
        for seed in (4, 5)
        for refs in (REFS_A, REFS_B)
    ] + [
        _spec(scheme="muontrap"),
        _spec(sanitize=True),
        _spec(scheme="unsafe", max_cycles=40),
    ]


def _fork_specs():
    return [_spec(secret=s, seed=seed) for s in (0, 1) for seed in (4, 5)]


def test_failed_batch_group_is_tallied_and_runs_cold(monkeypatch):
    pytest.importorskip("numpy")
    import repro.batch.engine as engine

    def broken(specs, **kw):
        raise RuntimeError("mirror bug")

    monkeypatch.setattr(engine, "run_batch_group_detailed", broken)
    specs = _mixed_specs()
    result = SerialSweepRunner(batch=True).run(specs)
    assert result.outcomes == SerialSweepRunner().run_outcomes(specs)
    assert result.batch_stats["failed"] == 8
    assert "batched" not in result.batch_stats
    assert "ejected" not in result.batch_stats


def test_batch_stats_without_groups_have_no_lane_counts():
    pytest.importorskip("numpy")
    result = SerialSweepRunner(batch=True).run([_spec(scheme="muontrap")])
    assert result.batch_stats == {"bypass.min_lanes": 1}


def test_declined_fork_group_falls_back_to_cold(monkeypatch):
    calls = []

    def declined(specs):
        calls.append(len(specs))
        return None

    monkeypatch.setattr(fork, "run_fork_group", declined)
    specs = _fork_specs()
    assert SerialSweepRunner(fork=True).run_outcomes(
        specs
    ) == SerialSweepRunner().run_outcomes(specs)
    assert calls == [4]


def test_pool_failure_resets_pool_and_runs_cold(monkeypatch):
    resets = []

    def broken_map(self, fn, items):
        raise RuntimeError("pool lost")

    def reset(self):
        resets.append(True)

    monkeypatch.setattr(ParallelSweepRunner, "map", broken_map)
    monkeypatch.setattr(ParallelSweepRunner, "_reset_pool", reset)
    specs = _fork_specs()
    with ParallelSweepRunner(workers=2, fork=True) as runner:
        outcomes = runner.run_outcomes(specs)
    assert resets == [True]
    assert outcomes == SerialSweepRunner().run_outcomes(specs)


def test_parallel_fork_and_batch_match_cold():
    pytest.importorskip("numpy")
    specs = _mixed_specs()
    cold = SerialSweepRunner().run_outcomes(specs)
    with ParallelSweepRunner(workers=2, fork=True, batch=True) as runner:
        result = runner.run(specs)
    assert result.outcomes == cold
    assert result.batch_stats["batched"] == 8


def test_raising_cohort_fails_the_whole_batch_group(monkeypatch):
    pytest.importorskip("numpy")
    import repro.batch.engine as engine

    def broken(*args, **kw):
        raise RuntimeError("mirror bug")

    monkeypatch.setattr(engine, "_run_cohort", broken)
    specs = _mixed_specs()
    with pytest.raises(RuntimeError, match="mirror bug"):
        engine.run_batch_group_detailed(specs[:8])
    result = SerialSweepRunner(batch=True).run(specs)
    assert result.batch_stats["failed"] == 8
    assert "batched" not in result.batch_stats
    assert "ejected" not in result.batch_stats
    assert result.outcomes == SerialSweepRunner().run_outcomes(specs)


def test_raising_fork_variant_fails_the_whole_fork_group(monkeypatch):
    finish = fork._finish
    calls = []

    def probe_only(setup, fork_cycle):
        # The first call finishes the probe; every variant raises.
        calls.append(fork_cycle)
        if len(calls) > 1:
            raise RuntimeError("variant bug")
        return finish(setup, fork_cycle)

    monkeypatch.setattr(fork, "_finish", probe_only)
    specs = _fork_specs()
    assert fork.run_fork_group(specs) is None
    calls.clear()
    assert SerialSweepRunner(fork=True).run_outcomes(
        specs
    ) == SerialSweepRunner().run_outcomes(specs)


def test_failed_batch_group_is_not_replanned_for_fork(monkeypatch):
    pytest.importorskip("numpy")
    import repro.batch.engine as engine

    def broken(specs, **kw):
        raise RuntimeError("mirror bug")

    forked = []
    run_fork_group = fork.run_fork_group

    def counting(specs):
        forked.append(len(specs))
        return run_fork_group(specs)

    monkeypatch.setattr(engine, "run_batch_group_detailed", broken)
    monkeypatch.setattr(fork, "run_fork_group", counting)
    specs = _mixed_specs()
    result = SerialSweepRunner(fork=True, batch=True).run(specs)
    assert forked == []
    assert result.batch_stats["failed"] == 8
    assert result.outcomes == SerialSweepRunner().run_outcomes(specs)
