"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_design_args(self):
        args = build_parser().parse_args(
            ["design", "--k", "8", "--d", "3", "--t", "2", "--routing", "udr"]
        )
        assert (args.k, args.d, args.t, args.routing) == (8, 3, 2, "udr")

    def test_defaults(self):
        args = build_parser().parse_args(["analyze", "--k", "4", "--d", "2"])
        assert args.t == 1 and args.routing == "odr"
        assert not hasattr(args, "jobs")


class TestCommands:
    def test_design(self, capsys):
        assert main(["design", "--k", "6", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert "|P|                : 6" in out
        assert "ODR" in out

    def test_analyze_bounds_hold(self, capsys):
        assert main(["analyze", "--k", "6", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert "bounds hold     : True" in out

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        assert "[P]" in capsys.readouterr().out

    def test_experiments_single(self, capsys):
        assert main(["experiments", "--quick", "--only", "EXP-2"]) == 0
        assert "Verdict: PASS" in capsys.readouterr().out

    def test_experiments_single_writes_report(self, capsys, tmp_path):
        target = tmp_path / "exp2.md"
        argv = ["experiments", "--quick", "--only", "EXP-2"]
        assert main([*argv, "--write", str(target)]) == 0
        report = target.read_text(encoding="utf-8")
        assert "Verdict: PASS" in report
        out = capsys.readouterr().out
        assert out == f"{report}\nreport written to {target}\n"

    def test_simulate(self, capsys):
        assert main(["simulate", "--k", "4", "--d", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "packets delivered : 12" in out

    def test_simulate_with_failures(self, capsys):
        assert main(
            ["simulate", "--k", "5", "--d", "2", "--routing", "udr",
             "--fail-links", "5", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "injected 5 link failures" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--d", "2", "--ks", "4,6,8", "--family", "linear"]) == 0
        out = capsys.readouterr().out
        assert "growth exponent" in out


def _assert_named_error(capsys, argv):
    """``argv`` exits 2 with an ``error:`` line and no traceback."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected the flags
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "Traceback" not in captured.err
    return captured


#: the minimal valid invocation of each subcommand that took the
#: deleted ``--batch-size``/``--no-plan-cache``/``--metrics-out``/
#: ``--sample-resources``/``--profile`` flags.
_LOAD_COMMANDS = {
    "analyze": ["analyze", "--k", "4", "--d", "2"],
    "sweep": ["sweep", "--d", "2", "--ks", "4"],
    "experiments": ["experiments", "--only", "EXP-2"],
    "certify": ["certify", "--k", "3", "--d", "2"],
}

_BAD_INPUT = {
    "resume-without-checkpoint": ["certify", "--k", "3", "--d", "2", "--resume"],
    "radix-one": ["certify", "--k", "1", "--d", "2"],
    "design-radix-one": ["design", "--k", "1", "--d", "2"],
    "size-beyond-torus": ["certify", "--k", "3", "--d", "2", "--size", "100"],
    "unachievable-ub": ["certify", "--k", "3", "--d", "2", "--ub", "0.25"],
    "unknown-experiment": ["experiments", "--only", "EXP-99"],
    # only certify keeps a journal
    "checkpoint-on-experiments": [
        "experiments", "--only", "EXP-2", "--checkpoint", "{missing}"
    ],
    "resume-on-experiments": ["experiments", "--only", "EXP-2", "--resume"],
    "corrupt-trace": ["trace", "summarize", "{corrupt}"],
    "missing-trace": ["trace", "summarize", "{missing}"],
    "trace-directory": ["trace", "critical-path", "{dir}"],
    "deleted-parallel-engine": [
        "analyze", "--k", "4", "--d", "2", "--engine", "parallel"
    ],
    "jobs-on-analyze": ["analyze", "--k", "4", "--d", "2", "--jobs", "2"],
    # resilience flags are checked before the incumbent screen
    "negative-retries": ["certify", "--k", "4", "--d", "2", "--retries", "-1"],
    "zero-task-timeout": [
        "certify", "--k", "4", "--d", "2", "--task-timeout", "0"
    ],
    "chaos-crash-above-one": [
        "certify", "--k", "4", "--d", "2",
        "--chaos-seed", "1", "--chaos-crash", "1.5",
    ],
    "chaos-fractions-above-one": [
        "certify", "--k", "4", "--d", "2",
        "--chaos-seed", "1", "--chaos-crash", "0.6", "--chaos-hang", "0.6",
    ],
    "deleted-chaos-slow": [
        "certify", "--k", "4", "--d", "2",
        "--chaos-seed", "1", "--chaos-slow", "0.1",
    ],
}
for _command, _argv in _LOAD_COMMANDS.items():
    _BAD_INPUT[f"batch-size-on-{_command}"] = _argv + ["--batch-size", "8"]
    _BAD_INPUT[f"no-plan-cache-on-{_command}"] = _argv + ["--no-plan-cache"]
    _BAD_INPUT[f"metrics-out-on-{_command}"] = _argv + [
        "--metrics-out", "{missing}"
    ]
    _BAD_INPUT[f"sample-resources-on-{_command}"] = _argv + [
        "--sample-resources"
    ]
    _BAD_INPUT[f"profile-on-{_command}"] = _argv + ["--profile", "pstats"]
    if _command != "certify":
        _BAD_INPUT[f"engine-on-{_command}"] = _argv + ["--engine", "fft"]


class TestBadInput:
    @pytest.mark.parametrize(
        "argv", list(_BAD_INPUT.values()), ids=list(_BAD_INPUT)
    )
    def test_exits_2_with_named_error(self, capsys, tmp_path, argv):
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text("not a trace\n")
        paths = {
            "{corrupt}": corrupt,
            "{missing}": tmp_path / "nope.jsonl",
            "{dir}": tmp_path,
        }
        argv = [str(paths.get(arg, arg)) for arg in argv]
        captured = _assert_named_error(capsys, argv)
        # the --resume check runs before the incumbent screen
        assert "incumbent seed" not in captured.out
        assert not paths["{missing}"].exists()


class TestCertify:
    def test_default_size_seeds_linear_incumbent(self, capsys):
        assert main(["certify", "--k", "4", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert "incumbent seed  : linear(c=0) E_max = 2" in out
        assert "global min E_max: 2" in out
        assert "optimal count   : 292" in out
        assert "0 full evaluations" in out

    def test_prints_the_ladder(self, capsys):
        # T_5^2 n=5: Eq. 6's rung 1 is refuted, the minimum 2 certified
        assert main(["certify", "--k", "5", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert (
            "ladder          : E_max <= 1 refuted (31 nodes), "
            "E_max <= 2 certified (158 nodes)"
        ) in out

    def test_full_mode_prints_histogram(self, capsys):
        assert main(["certify", "--k", "3", "--d", "2", "--mode", "full"]) == 0
        out = capsys.readouterr().out
        assert "E_max histogram :" in out
        assert "orbits          : 4" in out

    def test_explicit_size_and_jobs(self, capsys):
        assert main(
            ["certify", "--k", "3", "--d", "2", "--size", "2", "--jobs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "certified space : all C(9, 2) = 36 placements" in out

    def test_chaos_run_prints_the_serial_stdout_and_its_degradation(
        self, capsys
    ):
        assert main(["certify", "--k", "4", "--d", "2"]) == 0
        serial = capsys.readouterr().out
        chaos = ["certify", "--k", "4", "--d", "2", "--jobs", "2",
                 "--chaos-seed", "7", "--retries", "3"]
        assert main(chaos) == 0
        captured = capsys.readouterr()
        assert captured.out == serial
        assert "resilience: exact-search[T_4^2 n=4" in captured.err
        assert main(["--quiet", *chaos]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial
        assert "resilience:" not in captured.err

    def test_failed_run_still_prints_its_degradation(self, capsys):
        # rung 1 fans out, every pool attempt crashes and all 3 roots fall
        # back to serial; then no placement reaches E_max <= 1
        failing = ["certify", "--k", "5", "--d", "2", "--jobs", "2",
                   "--chaos-seed", "7", "--chaos-crash", "1.0",
                   "--retries", "0", "--ub", "1"]
        assert main(failing) == 2
        err = capsys.readouterr().err
        assert "error: no placement achieved E_max <= 1" in err
        (line,) = [
            line for line in err.splitlines()
            if line.startswith("resilience: ")
        ]
        assert line.startswith(
            "resilience: exact-search[T_5^2 n=5 E_max<=1]: 3/3 tasks"
        )
        assert "3 serial fallbacks" in line
        assert main(["--quiet", *failing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no placement achieved E_max <= 1")
        assert len(err.splitlines()) == 1


class TestAnalyzeMarkdown:
    def test_markdown_flag(self, capsys):
        assert main(["analyze", "--k", "6", "--d", "2", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Placement analysis")
        assert "Bisection certificates" in out


class TestObservabilityFlags:
    def test_certify_trace_roundtrip(self, capsys, tmp_path):
        from repro.obs import read_trace

        path = tmp_path / "out.jsonl"
        assert main(
            ["certify", "--k", "3", "--d", "2", "--trace", str(path)]
        ) == 0
        err = capsys.readouterr().err
        assert f"trace written to {path}" in err
        records = read_trace(path)
        assert records[0]["label"] == "certify"
        names = {r.get("name") for r in records if r.get("kind") == "span"}
        assert "search.certify" in names

    def test_trace_summarize_subcommand(self, capsys, tmp_path):
        path = tmp_path / "out.jsonl"
        assert main(
            ["certify", "--k", "3", "--d", "2", "--trace", str(path)]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Trace summary — certify")
        assert "search.certify" in out

    def test_quiet_silences_stderr_but_not_results(self, capsys):
        assert main(["--quiet", "analyze", "--k", "6", "--d", "2"]) == 0
        captured = capsys.readouterr()
        assert "bounds hold     : True" in captured.out
        assert captured.err == ""

    def test_certify_progress_emits_heartbeat_lines(self, capsys, monkeypatch):
        import repro.placements.exact_search as es

        monkeypatch.setattr(es, "_HEARTBEAT_SECONDS", 0.0)
        # T_3^2 certifies on rung 1; T_5^2 refutes it without reaching a
        # leaf, and its search still reports while that rung runs
        for k in ("3", "5"):
            assert main(["certify", "--k", k, "--d", "2", "--progress"]) == 0
            err = capsys.readouterr().err
            assert f"exact-search T_{k}^2" in err
            assert "nodes expanded" in err
            # heartbeats name the ladder rung being searched
            assert "rung E_max <= 1" in err


#: ``repro lint`` argv → (exit code, a line its stdout must carry);
#: ``{dirty}`` is a file with exactly one RL007 finding.
_LINT_CASES = {
    "list-rules": (["--list-rules"], 0, "RL007  mutable default argument"),
    "one-finding": (["{dirty}"], 1, "1 finding(s) in 1 file(s) [RL007×1]"),
    "unknown-code": (["--select", "RL999", "{dirty}"], 2, ""),
}


class TestLint:
    """``repro lint`` forwards its arguments to the lint runner unchanged."""

    @pytest.mark.parametrize(
        "argv, code, expected", list(_LINT_CASES.values()), ids=list(_LINT_CASES)
    )
    def test_matches_the_runner(self, capsys, tmp_path, argv, code, expected):
        from repro.devtools.lint.__main__ import run

        dirty = tmp_path / "mod.py"
        dirty.write_text("def f(acc=[]):\n    return acc\n")
        argv = [str(dirty) if arg == "{dirty}" else arg for arg in argv]
        assert main(["lint", *argv]) == code
        via_cli = capsys.readouterr().out
        assert expected in via_cli
        assert run(argv) == code
        assert capsys.readouterr().out == via_cli

    def test_help_prints_the_runners_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for option in ("--format", "--select", "--ignore", "--list-rules"):
            assert option in out
