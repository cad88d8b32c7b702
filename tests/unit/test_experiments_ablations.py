"""Unit tests for EXP-21 … EXP-23 internals."""

from repro.experiments import get_experiment


class TestTieAblation:
    def test_quick_passes(self):
        result = get_experiment("EXP-21").run(quick=True)
        assert result.passed

    def test_odd_k_control_present(self):
        result = get_experiment("EXP-21").run(quick=True)
        ks = result.tables[0].column("k")
        assert 5 in ks  # the odd-radix control row

    def test_unrestricted_never_higher(self):
        result = get_experiment("EXP-21").run(quick=True)
        col = result.tables[0].column("unrestricted <= restricted")
        assert all(col)


class TestGlobalOptimality:
    def test_quick_passes(self):
        result = get_experiment("EXP-22").run(quick=True)
        assert result.passed

    def test_reports_placement_counts(self):
        result = get_experiment("EXP-22").run(quick=True)
        counts = result.tables[0].column("placements evaluated")
        assert counts[0] == 84  # C(9, 3)

    def test_exhaustive_note_present(self):
        result = get_experiment("EXP-22").run(quick=True)
        assert any(
            f.startswith("[note] certification is exact and exhaustive")
            for f in result.findings
        )

    def test_cross_checked_against_brute_force(self):
        result = get_experiment("EXP-22").run(quick=True)
        assert any("brute-force catalog" in f for f in result.findings)

    def test_linear_optimal_column_reported(self):
        result = get_experiment("EXP-22").run(quick=True)
        assert result.tables[0].column("linear optimal") == [True]


class TestMixedRadix:
    def test_quick_passes(self):
        result = get_experiment("EXP-23").run(quick=True)
        assert result.passed

    def test_shapes_reported(self):
        result = get_experiment("EXP-23").run(quick=True)
        shapes = result.tables[0].column("shape")
        assert "4x8" in shapes

    def test_square_consistency_check_present(self):
        result = get_experiment("EXP-23").run(quick=True)
        assert any("edge-for-edge" in f for f in result.findings)

    def test_lcm_flat_ratio_check_present(self):
        result = get_experiment("EXP-23").run(quick=True)
        assert any("lcm construction" in f for f in result.findings)
