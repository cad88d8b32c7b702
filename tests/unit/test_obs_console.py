"""Tests for repro.obs.console — the quiet-aware stderr choke point."""

from __future__ import annotations

import time

import pytest

from repro.obs import console


@pytest.fixture(autouse=True)
def _loud():
    previous = console.set_quiet(False)
    yield
    console.set_quiet(previous)


class TestQuietFlag:
    def test_set_quiet_returns_previous(self):
        assert console.set_quiet(True) is False
        assert console.set_quiet(False) is True


class TestEmission:
    def test_info_goes_to_stderr_not_stdout(self, capsys):
        console.info("hello")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "hello" in captured.err

    def test_progress_and_warn_go_to_stderr(self, capsys):
        console.progress("working")
        console.warn("careful")
        captured = capsys.readouterr()
        assert "working" in captured.err and "careful" in captured.err

    def test_quiet_suppresses_info_progress_warn(self, capsys):
        console.set_quiet(True)
        console.info("a")
        console.progress("b")
        console.warn("c")
        assert capsys.readouterr().err == ""

    def test_error_survives_quiet(self, capsys):
        console.set_quiet(True)
        console.error("boom")
        captured = capsys.readouterr()
        assert "boom" in captured.err
        assert captured.out == ""


class TestWallClock:
    def test_wall_clock_is_unix_time(self):
        before = time.time()  # the test suite may read wall clocks freely
        stamp = console.wall_clock()
        after = time.time()
        assert before <= stamp <= after
