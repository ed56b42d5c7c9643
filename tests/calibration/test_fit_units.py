"""Unit tests for the fit/residual machinery itself."""

import pytest

from repro.calibration import fit, targets


class TestResidual:
    def test_errors(self):
        r = fit.Residual("x", 2.0, 2.1)
        assert r.abs_error == pytest.approx(0.1)
        assert r.rel_error == pytest.approx(0.05)

    def test_zero_paper_value(self):
        r = fit.Residual("x", 0.0, 0.5)
        assert r.rel_error == 0.0


class TestResidualSets:
    def test_table1_has_all_rows(self):
        residuals = fit.table1_residuals()
        assert len(residuals) == len(targets.TABLE1_ROWS)
        labels = [r.label for r in residuals]
        assert labels[0].startswith("PSU")

    def test_fig5_has_three_factors(self):
        residuals = fit.fig5_residuals()
        assert len(residuals) == 3
        assert all("improvement" in r.label for r in residuals)

    def test_pvc_residuals_cover_grid(self):
        residuals = fit.pvc_residuals("mysql", scale_factor=0.01)
        # 2 downgrades x 3 levels x (energy, time)
        assert len(residuals) == 12
        assert sum("energy" in r.label for r in residuals) == 6
        assert sum("time" in r.label for r in residuals) == 6

    def test_qed_residuals_selected_batches(self):
        residuals = fit.qed_residuals(scale_factor=0.02,
                                      batch_sizes=(35,))
        assert len(residuals) == 2

    def test_headline_residuals_four_entries(self):
        residuals = fit.headline_residuals(scale_factor=0.01)
        labels = {r.label for r in residuals}
        assert labels == {
            "commercial headline energy", "commercial headline time",
            "mysql headline energy", "mysql headline time",
        }

    def test_headline_residuals_follow_the_seed(self):
        at_seed = {r.label: r.measured
                   for r in fit.headline_residuals(0.01, seed=3)}
        sweep = {r.label: r.measured
                 for r in fit.pvc_residuals("commercial", 0.01, seed=3)}
        assert at_seed["commercial headline energy"] == sweep[
            "commercial medium 5% energy"]
        assert at_seed["commercial headline time"] == sweep[
            "commercial medium 5% time"]
        default = {r.label: r.measured
                   for r in fit.headline_residuals(0.01)}
        assert at_seed != default  # other data, other last digits


class TestTargetHelpers:
    def test_energy_ratio_target_validates_keys(self):
        with pytest.raises(KeyError):
            targets.energy_ratio_target("mysql", "medium", 7)
        with pytest.raises(KeyError):
            targets.energy_ratio_target("oracle", "medium", 5)

    def test_edp_consistency(self):
        """Energy targets x time model reproduce the EDP deltas they
        were derived from (internal consistency of targets.py)."""
        for (profile, downgrade), deltas in targets.EDP_DELTAS.items():
            for pct, edp_delta in deltas.items():
                energy = targets.energy_ratio_target(
                    profile, downgrade, pct
                )
                if profile == "mysql":
                    time_ratio = targets.mysql_time_ratio(pct)
                else:
                    time_ratio = targets.commercial_time_ratio(pct)
                assert energy * time_ratio == pytest.approx(
                    1.0 + edp_delta, abs=1e-9
                )
