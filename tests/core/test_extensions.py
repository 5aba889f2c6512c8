"""Tests for the paper's extension/future-work attack variants:

* data-dependent arithmetic transmitter (§3.2.2 generalization);
* Prime+Probe receiver for the I-cache PoC (§4.1 note);
* the §6 W+1 occupancy sender vs CleanupSpec with randomized LLC
  replacement.
"""

import pytest

from repro.core.attack import (
    ATTACK_HIERARCHY_RANDOM_LLC,
    DCacheAttack,
    ICacheAttack,
    OccupancyAttack,
)
from repro.core.harness import run_victim_trial
from repro.core.victims import gdnpeu_arith_victim, gdnpeu_occupancy_victim
from repro.trace import Tracer

from tests.conftest import rows_named


class TestArithmeticTransmitter:
    @pytest.mark.parametrize(
        "scheme", ["dom-nontso", "invisispec-spectre", "safespec-wfb"]
    )
    def test_reorders_without_any_secret_load(self, scheme):
        """The transmitter is pure ALU work: loads never carry the
        secret, yet the A/B order still flips (inverted polarity)."""
        spec = gdnpeu_arith_victim()
        orders = [
            run_victim_trial(spec, scheme, s).order(spec.line_a, spec.line_b)
            for s in (0, 1)
        ]
        assert orders == ["yx", "xy"]

    def test_fence_blocks_it(self):
        spec = gdnpeu_arith_victim()
        orders = [
            run_victim_trial(spec, "fence-spectre", s).order(
                spec.line_a, spec.line_b
            )
            for s in (0, 1)
        ]
        assert orders[0] == orders[1]

    def test_dynamic_latency_observable(self):
        """The transmitter's execution time really is operand-dependent."""
        spec = gdnpeu_arith_victim()
        durations = {}
        for secret in (0, 1):
            result = run_victim_trial(
                spec, "dom-nontso", secret, tracer=Tracer()
            )
            tx = rows_named(result.core, "arith transmitter")
            assert tx, "transmitter executed speculatively"
            complete = tx[0].complete
            durations[secret] = (
                10**9 if complete is None else complete
            ) - tx[0].issue
        # slow case never completes before the squash or takes far longer
        assert durations[0] < 10


class TestPrimeProbeICache:
    def test_decodes_bits(self):
        attack = ICacheAttack("invisispec-spectre", receiver="primeprobe")
        for bit in (0, 1, 1, 0):
            assert attack.send_bit(bit).correct

    def test_blocked_for_protected_icache(self):
        attack = ICacheAttack("safespec-wfb", receiver="primeprobe")
        assert attack.send_bit(0).received == attack.send_bit(1).received

    def test_invalid_receiver_rejected(self):
        with pytest.raises(ValueError):
            ICacheAttack("dom-nontso", receiver="telepathy")


class TestOccupancySenderVsCleanupSpec:
    def test_qlru_receiver_defeated_by_randomized_llc(self):
        """Randomized LLC replacement (the CleanupSpec countermeasure)
        kills the replacement-state receiver: decode is secret-blind."""
        outputs = set()
        for bit in (0, 1, 0, 1):
            attack = DCacheAttack(
                "cleanupspec", hierarchy_config=ATTACK_HIERARCHY_RANDOM_LLC
            )
            outputs.add(attack.send_bit(bit).received)
        assert len(outputs) == 1

    def test_occupancy_attack_succeeds(self):
        attack = OccupancyAttack("cleanupspec", trials_per_bit=48)
        for bit in (0, 1, 0, 1):
            assert attack.send_bit(bit).correct

    def test_occupancy_attack_is_far_more_expensive(self):
        """'Makes exploitation more challenging' (§6), quantified."""
        cheap = DCacheAttack("dom-nontso").send_bit(1).cycles
        costly = OccupancyAttack("cleanupspec", trials_per_bit=48).send_bit(1).cycles
        # 48 victim invocations instead of 1; >2x in raw cycles even
        # with our idealized receiver timing
        assert costly > 2 * cheap

    def test_occupancy_statistics(self):
        """A-last (secret=1) is never evicted; A-first sometimes is."""
        attack = OccupancyAttack("cleanupspec", trials_per_bit=1)
        evictions = {0: 0, 1: 0}
        for secret in (0, 1):
            for t in range(48):
                resident, _ = attack._observe_once(secret, trial_seed=t)
                if not resident:
                    evictions[secret] += 1
        assert evictions[1] == 0
        assert evictions[0] >= 1

    def test_victim_spec_shape(self):
        spec = gdnpeu_occupancy_victim(num_fillers=16)
        # W+1 accesses to one set: A + 16 fillers, all congruent
        from repro.memory.address import AddressLayout

        layout = AddressLayout(line_size=64, num_sets=64, num_slices=1)
        congruent_flush = [
            line
            for line in spec.flush_lines
            if layout.same_set(line, spec.line_a)
        ]
        assert len(congruent_flush) >= 17  # A + 16 fillers
