"""Unit tests for writing the experiment report with ``--write``."""

from repro.cli import main


class TestCliWrite:
    def test_experiments_write_flag(self, tmp_path, capsys):
        target = tmp_path / "cli_report.md"
        code = main(["experiments", "--quick", "--write", str(target)])
        assert code == 0
        text = target.read_text(encoding="utf-8")
        assert text.startswith("# Reproduction experiment report")
        assert "23/23 experiments passed" in text
        assert "report written to" in capsys.readouterr().out

    def test_creates_parent_dirs(self, tmp_path, capsys):
        target = tmp_path / "nested" / "dir" / "r.md"
        code = main(["experiments", "--quick", "--write", str(target)])
        assert code == 0
        assert target.exists()
        assert f"report written to {target}" in capsys.readouterr().out
