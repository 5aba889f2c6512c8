"""The coherence-invalidation interference channel (extension).

A retirement-bound store's retire time is delayed by the GDNPEU gadget;
the store's write invalidates the attacker's cached copy of the line
(MESI), so a fixed-time probe of the attacker's *own* copy decodes the
secret — no load reordering, no replacement-state decoding (§3.3's
"many other memory address streams", Yao et al. HPCA'18).
"""

import pytest

from repro.core.harness import ATTACKER_CORE, prepare_machine
from repro.core.victims import gdnpeu_store_victim
from repro.system.agent import AttackerAgent
from repro.trace import Tracer

from tests.conftest import rows_named


def store_retire_time(scheme, secret):
    spec = gdnpeu_store_victim()
    machine, core, _ = prepare_machine(spec, scheme, secret, tracer=Tracer())
    machine.run(until=lambda: core.halted, max_cycles=30_000)
    (store,) = rows_named(core, "store A")
    return store.retire


def run_bit(scheme, secret, probe_cycle):
    spec = gdnpeu_store_victim()
    machine, core, _ = prepare_machine(spec, scheme, secret)
    agent = AttackerAgent(machine, ATTACKER_CORE)
    # Receiver setup: cache our own copy of A (Shared state).
    agent.read(spec.line_a)
    # Probe our own copy at the calibrated fixed time.
    agent.schedule_timed_read(spec.line_a, probe_cycle)
    machine.run(until=lambda: core.halted, max_cycles=30_000)
    observation = agent.scheduled_observations[0]
    # An L1-local hit -> our copy survived -> the store had NOT retired
    # yet -> the gadget interfered -> secret = 1.  (After invalidation
    # the probe is served by the LLC, so the discriminator is the
    # local-hit latency, not the LLC-miss threshold.)
    l1_threshold = machine.hierarchy.config.l1d.latency + 2
    return 1 if observation.latency <= l1_threshold else 0


class TestCoherenceChannel:
    def test_store_retire_shifts_with_secret(self):
        t0 = store_retire_time("dom-nontso", 0)
        t1 = store_retire_time("dom-nontso", 1)
        assert t1 - t0 > 20

    @pytest.mark.parametrize("scheme", ["dom-nontso", "invisispec-spectre"])
    def test_bits_decode_through_invalidation_timing(self, scheme):
        t0 = store_retire_time(scheme, 0)
        t1 = store_retire_time(scheme, 1)
        probe = (t0 + t1) // 2
        for secret in (0, 1, 1, 0):
            assert run_bit(scheme, secret, probe) == secret

    def test_fence_defense_blocks(self):
        t0 = store_retire_time("fence-spectre", 0)
        t1 = store_retire_time("fence-spectre", 1)
        assert t0 == t1  # nothing to calibrate: the channel is closed
        probe = t0 + 1
        assert run_bit("fence-spectre", 0, probe) == run_bit(
            "fence-spectre", 1, probe
        )

    def test_channel_requires_coherence(self):
        """With coherence disabled the attacker's stale copy never gets
        invalidated: every probe hits and the channel dies."""
        from dataclasses import replace

        from repro.core.victims import ATTACK_HIERARCHY, gdnpeu_store_victim

        cfg = replace(ATTACK_HIERARCHY, enable_coherence=False)
        spec = gdnpeu_store_victim()
        results = []
        for secret in (0, 1):
            machine, core, _ = prepare_machine(
                spec, "dom-nontso", secret, hierarchy_config=cfg
            )
            agent = AttackerAgent(machine, ATTACKER_CORE)
            agent.read(spec.line_a)
            agent.schedule_timed_read(spec.line_a, 127)
            machine.run(until=lambda: core.halted, max_cycles=30_000)
            results.append(agent.scheduled_observations[0].hit)
        assert results == [True, True]
