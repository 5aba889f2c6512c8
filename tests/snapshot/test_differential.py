"""Differential proof that snapshot/fork execution is exact.

The fork engine is only usable if a forked variant is *bit-identical*
to a cold-started trial — same summaries, same visible-access traces,
same structured event streams — for every speculation scheme.  These
tests run the comparison exhaustively.
"""

import pytest

from repro.core.harness import run_victim_trial
from repro.core.victims import victim_by_name
from repro.runner import SerialSweepRunner, TrialSpec
from repro.runner.runner import begin_spec_trial
from repro.schemes.registry import SCHEME_FACTORIES
from repro.snapshot.fork import _probe_to_fork_point
from repro.staticcheck.sanitizer import InvariantSanitizer
from repro.trace import Tracer

ALL_SCHEMES = sorted(SCHEME_FACTORIES)

SECRETS = (0, 1)
SEEDS = (100, 101, 102)


def _specs_for(scheme):
    return [
        TrialSpec(victim="gdnpeu", scheme=scheme, secret=secret, seed=seed)
        for secret in SECRETS
        for seed in SEEDS
    ]


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_fork_bit_identical_summaries(scheme):
    """Forked sweep == cold sweep, outcome for outcome, for 2 secrets
    x 3 seeds under every scheme (summaries carry the full visible
    trace and first-access map, so equality is trace-level)."""
    specs = _specs_for(scheme)
    cold = SerialSweepRunner().run_outcomes(specs)
    forked = SerialSweepRunner(fork=True).run_outcomes(specs)
    assert all(o.ok for o in cold)
    assert forked == cold


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_fork_bit_identical_event_trace(scheme):
    """A variant forked at the automatically found fork point emits the
    exact event stream of a cold run with that secret — full tracer,
    every kind."""
    victim = victim_by_name("gdnpeu")
    spec = TrialSpec(victim="gdnpeu", scheme=scheme, secret=1, seed=7)
    setup = begin_spec_trial(spec, victim, tracer=Tracer())
    secret_line = setup.machine.hierarchy.llc.layout.line_addr(
        victim.secret_addr
    )
    fork_cycle, fork_snap = _probe_to_fork_point(setup, secret_line)
    if fork_snap is None:
        pytest.skip(f"{scheme}: secret never sampled on this victim")

    # Fork the *other* secret from the probe's shared prefix.
    setup.machine.restore(fork_snap)
    setup.machine.hierarchy.memory.poke(victim.secret_addr, 0)
    setup.machine.run(
        until=lambda: setup.core.halted,
        max_cycles=spec.max_cycles - fork_cycle,
        fast_forward=True,
    )
    forked_events = list(setup.machine.tracer.events)

    cold_tracer = Tracer()
    cold = run_victim_trial(victim, scheme, 0, seed=7, tracer=cold_tracer)
    assert setup.machine.cycle == cold.cycles
    assert forked_events == list(cold_tracer.events)


@pytest.mark.parametrize(
    "scheme", ["unsafe", "dom-nontso", "stt", "muontrap", "invisispec-spectre"]
)
def test_restored_state_satisfies_invariants(scheme):
    """A restored fork snapshot is a valid pipeline state: run the
    suffix under the cycle-level invariant sanitizer and require every
    check to pass."""
    victim = victim_by_name("gdnpeu")
    spec = TrialSpec(victim="gdnpeu", scheme=scheme, secret=1, seed=3)
    setup = begin_spec_trial(spec, victim, tracer=Tracer())
    secret_line = setup.machine.hierarchy.llc.layout.line_addr(
        victim.secret_addr
    )
    fork_cycle, fork_snap = _probe_to_fork_point(setup, secret_line)
    if fork_snap is None:
        pytest.skip(f"{scheme}: secret never sampled on this victim")
    machine, core = setup.machine, setup.core
    machine.restore(fork_snap)
    machine.hierarchy.memory.poke(victim.secret_addr, 0)
    sanitizer = InvariantSanitizer().attach(core)
    machine.fault_injector = sanitizer  # also disables fast-forward
    machine.run(
        until=lambda: core.halted, max_cycles=spec.max_cycles - fork_cycle
    )
    assert core.halted
    assert sanitizer.invariant_checks > 0


def test_fork_group_with_failing_member_falls_back():
    """A spec whose trial deadlocks must surface the same structured
    failure whether or not forking is enabled."""
    specs = [
        TrialSpec(victim="gdnpeu", scheme="unsafe", secret=s, max_cycles=40)
        for s in SECRETS
    ]
    cold = SerialSweepRunner().run_outcomes(specs)
    forked = SerialSweepRunner(fork=True).run_outcomes(specs)
    assert [o.status for o in cold] == [o.status for o in forked]
    assert forked == cold
