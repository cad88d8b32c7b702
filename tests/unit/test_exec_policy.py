"""Tests for repro.exec.policy — the execution policy."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.exec import ExecPolicy


class TestExecPolicy:
    def test_defaults(self):
        policy = ExecPolicy()
        assert policy.retries == 2
        assert policy.task_timeout is None
        assert policy.chaos is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retries": -1},
            {"task_timeout": 0.0},
            {"task_timeout": -5.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            ExecPolicy(**kwargs)
