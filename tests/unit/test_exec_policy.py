"""Tests for repro.exec.policy — the ambient execution policy."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.exec import (
    ChaosPolicy,
    ExecPolicy,
    current_exec_policy,
    using_exec_policy,
)


class TestExecPolicy:
    def test_defaults(self):
        policy = ExecPolicy()
        assert policy.retries == 2
        assert policy.task_timeout is None
        assert policy.fallback_serial is True
        assert policy.chaos is None

    def test_with_chaos_copies(self):
        base = ExecPolicy()
        chaos = ChaosPolicy(seed=3, crash_fraction=0.1)
        chaotic = base.with_chaos(chaos)
        assert chaotic.chaos is chaos and base.chaos is None
        assert chaotic.retries == base.retries

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retries": -1},
            {"task_timeout": 0.0},
            {"task_timeout": -5.0},
            {"backoff_base": -0.1},
            {"backoff_max": -1.0},
            {"backoff_factor": 0.5},
            {"heartbeat": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            ExecPolicy(**kwargs)


class TestAmbientPolicy:
    def test_default_is_lazily_built(self):
        assert current_exec_policy() == ExecPolicy()

    def test_using_installs_and_restores(self):
        before = current_exec_policy()
        custom = ExecPolicy(retries=9)
        with using_exec_policy(custom) as installed:
            assert installed is custom
            assert current_exec_policy() is custom
        assert current_exec_policy() == before

    def test_using_none_is_a_noop(self):
        custom = ExecPolicy(retries=5)
        with using_exec_policy(custom), using_exec_policy(None) as installed:
            assert installed is custom
            assert current_exec_policy() is custom

    def test_using_restores_on_error(self):
        before = current_exec_policy()
        with pytest.raises(RuntimeError):
            with using_exec_policy(ExecPolicy(retries=9)):
                raise RuntimeError("boom")
        assert current_exec_policy() == before
