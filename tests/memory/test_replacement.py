"""Tests for the replacement-policy zoo."""

import random

import pytest

from repro.memory.replacement import (
    LRUPolicy,
    NRUPolicy,
    RandomPolicy,
    SRRIPPolicy,
    TreePLRUPolicy,
    make_policy,
    POLICY_NAMES,
)


def fill_all(policy, ways):
    for w in range(ways):
        valid = [i < w for i in range(ways)]
        assert policy.select_victim(valid) == w
        policy.on_fill(w)


class TestLRU:
    def test_prefers_invalid_ways(self):
        p = LRUPolicy(4)
        assert p.select_victim([False, False, False, False]) == 0
        p.on_fill(0)
        assert p.select_victim([True, False, False, False]) == 1

    def test_evicts_least_recently_used(self):
        p = LRUPolicy(4)
        fill_all(p, 4)
        p.on_hit(0)  # 0 is now MRU; LRU is 1
        assert p.select_victim([True] * 4) == 1

    def test_order_sensitivity(self):
        """LRU state is non-commutative in the access order (§3.3)."""
        p1, p2 = LRUPolicy(2), LRUPolicy(2)
        for p in (p1, p2):
            fill_all(p, 2)
        p1.on_hit(0), p1.on_hit(1)
        p2.on_hit(1), p2.on_hit(0)
        assert p1.select_victim([True, True]) != p2.select_victim([True, True])


class TestNRU:
    def test_clears_when_all_referenced(self):
        p = NRUPolicy(2)
        p.on_hit(0)
        p.on_hit(1)  # all referenced -> reset, keep way 1
        assert p.state_summary() == [0, 1]

    def test_victim_is_unreferenced(self):
        p = NRUPolicy(4)
        fill_all(p, 4)
        # last fill (way 3) caused reset; ways 0-2 unreferenced
        assert p.select_victim([True] * 4) == 0


class TestSRRIP:
    def test_insert_distant_hit_near(self):
        p = SRRIPPolicy(2)
        p.on_fill(0)
        assert p.state_summary()[0] == p.max_rrpv - 1
        p.on_hit(0)
        assert p.state_summary()[0] == 0

    def test_aging_until_candidate(self):
        p = SRRIPPolicy(2)
        p.on_fill(0)
        p.on_fill(1)
        p.on_hit(0)
        p.on_hit(1)
        victim = p.select_victim([True, True])
        assert victim == 0  # both aged to max together; leftmost wins


class TestTreePLRU:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            TreePLRUPolicy(6)

    def test_victim_avoids_recent(self):
        p = TreePLRUPolicy(4)
        fill_all(p, 4)
        p.on_hit(3)
        assert p.select_victim([True] * 4) != 3

    def test_alternates(self):
        p = TreePLRUPolicy(2)
        fill_all(p, 2)
        p.on_hit(0)
        assert p.select_victim([True, True]) == 1
        p.on_hit(1)
        assert p.select_victim([True, True]) == 0


class TestRandom:
    def test_deterministic_with_seed(self):
        p1 = RandomPolicy(8, rng=random.Random(7))
        p2 = RandomPolicy(8, rng=random.Random(7))
        seq1 = [p1.select_victim([True] * 8) for _ in range(20)]
        seq2 = [p2.select_victim([True] * 8) for _ in range(20)]
        assert seq1 == seq2

    def test_prefers_invalid(self):
        p = RandomPolicy(4)
        assert p.select_victim([True, False, True, True]) == 1


class TestFactory:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_all_names_construct(self, name):
        p = make_policy(name, 4)
        assert p.num_ways == 4

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_policy("mystery", 4)

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_basic_protocol(self, name):
        """Every policy: fill all ways then pick a valid victim."""
        p = make_policy(name, 4)
        for w in range(4):
            valid = [i < w for i in range(4)]
            way = p.select_victim(valid)
            assert 0 <= way < 4
            assert not valid[way]
            p.on_fill(way)
        victim = p.select_victim([True] * 4)
        assert 0 <= victim < 4


class TestSnapshotFields:
    """``snapshot_state`` reads only the declared ``_SNAP_FIELDS``; a
    field added to a policy without declaring it would silently drop
    out of every capture, so the declaration is checked against a live,
    exercised instance."""

    @staticmethod
    def _exercised(name):
        p = make_policy(name, 8, rng=random.Random(3))
        fill_all(p, 8)
        for way in (3, 5, 3, 0):
            p.on_hit(way)
        p.on_fill(p.select_victim([True] * 8))
        return p

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_declared_fields_are_the_mutable_state(self, name):
        p = self._exercised(name)
        mutable = sorted(k for k in vars(p) if k not in p._SNAP_EXCLUDE)
        assert p._SNAP_FIELDS == tuple(mutable)

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_snapshot_is_the_sorted_field_copy(self, name):
        p = self._exercised(name)
        expected = tuple(
            (k, list(v) if isinstance(v, list) else v)
            for k, v in sorted(vars(p).items())
            if k not in p._SNAP_EXCLUDE
        )
        state = p.snapshot_state()
        assert state == expected
        for field, value in state:
            if isinstance(value, list):
                assert value is not getattr(p, field)
        clone = make_policy(name, 8, rng=random.Random(3))
        clone.restore_state(state)
        assert clone.snapshot_state() == state
