"""Tests for repro.exec.chaos — deterministic fault scheduling."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.exec import CHAOS_FAULTS, ChaosPolicy, unit_hash


class TestUnitHash:
    def test_deterministic(self):
        assert unit_hash(7, "chaos", "t-1", 0) == unit_hash(7, "chaos", "t-1", 0)

    def test_in_unit_interval(self):
        for i in range(200):
            u = unit_hash("x", i)
            assert 0.0 <= u < 1.0

    def test_sensitive_to_every_part(self):
        base = unit_hash(1, "a", 2)
        assert unit_hash(2, "a", 2) != base
        assert unit_hash(1, "b", 2) != base
        assert unit_hash(1, "a", 3) != base

    def test_spreads_over_the_interval(self):
        values = [unit_hash("spread", i) for i in range(500)]
        mean = sum(values) / len(values)
        assert 0.4 < mean < 0.6


class TestChaosPolicyDecide:
    def test_no_fractions_means_clean(self):
        policy = ChaosPolicy(seed=1)
        assert all(
            policy.decide(f"t-{i}", 0) is None for i in range(50)
        )

    def test_full_crash_fraction_always_crashes(self):
        policy = ChaosPolicy(seed=1, crash_fraction=1.0)
        assert all(
            policy.decide(f"t-{i}", 0) == "crash" for i in range(50)
        )

    def test_deterministic_per_seed(self):
        a = ChaosPolicy(seed=9, crash_fraction=0.3, hang_fraction=0.3)
        b = ChaosPolicy(seed=9, crash_fraction=0.3, hang_fraction=0.3)
        ids = [f"t-{i}" for i in range(64)]
        assert [a.decide(i, 0) for i in ids] == [b.decide(i, 0) for i in ids]

    def test_different_seeds_differ(self):
        ids = [f"t-{i}" for i in range(64)]
        a = ChaosPolicy(seed=1, crash_fraction=0.5)
        b = ChaosPolicy(seed=2, crash_fraction=0.5)
        assert [a.decide(i, 0) for i in ids] != [b.decide(i, 0) for i in ids]

    def test_attempts_reroll_independently(self):
        policy = ChaosPolicy(seed=3, crash_fraction=0.5)
        ids = [f"t-{i}" for i in range(64)]
        # some task must flip between attempts for 0.5 fractions on 64 ids
        assert any(
            policy.decide(task_id, 0) != policy.decide(task_id, 1)
            for task_id in ids
        )

    def test_decision_order_matches_chaos_faults(self):
        # with all mass on hang, the decision must be "hang", never "crash"
        policy = ChaosPolicy(seed=4, hang_fraction=1.0)
        assert policy.decide("t", 0) == "hang"
        assert CHAOS_FAULTS == ("crash", "hang")

    def test_fractions_roughly_respected(self):
        policy = ChaosPolicy(seed=5, crash_fraction=0.2)
        ids = [f"t-{i}" for i in range(500)]
        crashed = sum(
            1 for task_id in ids if policy.decide(task_id, 0) == "crash"
        )
        assert 0.1 < crashed / len(ids) < 0.3


class TestChaosPolicyValidation:
    def test_fraction_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            ChaosPolicy(seed=0, crash_fraction=1.5)
        with pytest.raises(InvalidParameterError):
            ChaosPolicy(seed=0, hang_fraction=-0.1)

    def test_fractions_must_sum_to_at_most_one(self):
        with pytest.raises(InvalidParameterError):
            ChaosPolicy(seed=0, crash_fraction=0.6, hang_fraction=0.6)
