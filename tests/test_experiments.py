"""Experiment recipes, report plumbing, and the config-driven runner."""

import configparser
import json
import math
from fractions import Fraction

import pytest

from dirlab import (
    DirlabError,
    PreconditionFailed,
    default_config_path,
    product_cantor,
    run_adaptable_directions,
    run_all,
    run_garnett_decay,
    run_scaling_lattice,
    run_slope_band,
    write_reports,
)
from dirlab import experiments
from dirlab.experiments import ExperimentReport
from dirlab.fitting import FitResult
from dirlab.measure import SlopeBandReport

CANTOR_S = 2 * math.log(3) / math.log(4)


class TestScalingLattice:
    def test_full_dimension_exponent(self):
        report = run_scaling_lattice(2, 2, [2, 4, 8, 16])
        verdict = report.verdicts["exponent"]
        assert verdict["expected"] == pytest.approx(1.0)
        assert verdict["series"] == "occupied"
        assert verdict["passed"]
        assert report.passed()
        assert report.series["q"] == [2, 4, 8, 16]
        assert len(report.series["occupied"]) == 4
        assert report.exponents["occupied"] is not None

    def test_thin_regime_uses_area_series(self):
        report = run_scaling_lattice(2, 0.8, [4, 8, 16])
        verdict = report.verdicts["exponent"]
        assert verdict["series"] == "occupied_area"
        assert verdict["expected"] == pytest.approx(2 - 2 / 0.8)

    def test_input_validation(self):
        with pytest.raises(PreconditionFailed):
            run_scaling_lattice(2, 2, [])
        with pytest.raises(PreconditionFailed):
            run_scaling_lattice(2, 2, [4, 4, 8])
        with pytest.raises(PreconditionFailed):
            run_scaling_lattice(2, 2.5, [2, 4])


class TestGarnettDecay:
    def test_series_shapes(self):
        report = run_garnett_decay([1, 2, 3])
        assert report.series["depth"] == [1, 2, 3]
        assert report.series["eps"] == [16.0**-1, 16.0**-2, 16.0**-3]
        assert report.series["points"] == [4, 16, 64]
        assert len(report.series["control_fraction"]) == 3
        verdict = report.verdicts["decay"]
        assert verdict["passed"] == (
            report.series["coverage_fraction"][2]
            < report.series["coverage_fraction"][1]
        )

    def test_verdict_ignores_shallow_depths(self):
        report = run_garnett_decay([1, 2])
        assert "decay" not in report.verdicts
        assert report.passed()

    def test_depths_must_increase(self):
        with pytest.raises(PreconditionFailed):
            run_garnett_decay([3, 2])
        with pytest.raises(PreconditionFailed):
            run_garnett_decay([])


class TestAdaptableDirections:
    def test_cantor_sample(self):
        P = product_cantor(2, m=3, ratio=Fraction(1, 4), depth=3)
        report = run_adaptable_directions(P, CANTOR_S, label="cantor-3")
        assert report.parameters["label"] == "cantor-3"
        assert set(report.verdicts) == {
            "adaptable",
            "separated_subset",
            "direction_ratio",
        }
        assert report.passed()
        assert report.series["rank"] == 2
        assert report.series["count_ratio"] > 0.5

    def test_degenerate_control_skips_ratio_verdict(self):
        from dirlab import hyperplane_sample

        P = hyperplane_sample(2, 12)
        report = run_adaptable_directions(P, 1.5, label="control")
        assert "direction_ratio" not in report.verdicts
        assert report.series["rank"] == 1


class TestSlopeBand:
    def test_depth_four_run(self):
        report = run_slope_band(
            2, 3, Fraction(1, 4), 4, [2.0**-k for k in range(3, 7)]
        )
        band = report.verdicts["band"]
        assert band["passed"]
        assert band["observed"] < 1.0
        assert report.series["exponent_fit_permitted"] is False
        assert report.series["exponent_fit_note"] != "evaluated"
        assert "exponent" not in report.verdicts
        assert report.parameters["s"] == pytest.approx(CANTOR_S)

    @pytest.mark.parametrize("offset, passed", [(0.3, True), (0.7, False)])
    def test_exponent_verdict_when_fit_permitted(self, monkeypatch, offset, passed):
        def clean_fit_sweep(mu, s, eps_list, c=None):
            slope = s - 1 + offset
            return SlopeBandReport(
                epsilons=[0.125, 0.0625, 0.03125, 0.015625],
                integrals=[1.2, 1.1, 1.05, 1.0],
                reference_level=1.0,
                band_constant=2.0,
                deviation_exponent=slope,
                exponent_predicted=s - 1,
                fit=FitResult(slope=slope, intercept=0.0, r_squared=0.99, n_points=3),
                chart_mass=0.5,
                split_level=1,
                denominator_gap=0.25,
            )

        monkeypatch.setattr(experiments, "slope_band_sweep", clean_fit_sweep)
        report = run_slope_band(2, 3, Fraction(1, 4), 2, [2.0**-k for k in range(3, 7)])
        assert report.series["exponent_fit_permitted"] is True
        assert report.series["exponent_fit_note"] == "evaluated"
        verdict = report.verdicts["exponent"]
        assert set(verdict) == {"passed", "observed", "expected", "tolerance"}
        assert verdict["observed"] == pytest.approx(CANTOR_S - 1 + offset)
        assert verdict["expected"] == pytest.approx(CANTOR_S - 1)
        assert verdict["passed"] is passed
        assert report.verdicts["band"]["passed"]
        assert report.passed() is passed


class TestReportPlumbing:
    def test_passed_reflects_verdicts_and_errors(self):
        ok = ExperimentReport(
            experiment="x",
            parameters={},
            series={},
            verdicts={"v": {"passed": True}},
        )
        bad = ExperimentReport(
            experiment="x",
            parameters={},
            series={},
            verdicts={"v": {"passed": False}},
        )
        failed = ExperimentReport(
            experiment="x", parameters={}, series={}, error="boom"
        )
        assert ok.passed()
        assert not bad.passed()
        assert not failed.passed()

    def test_json_round_trip(self):
        report = run_scaling_lattice(2, 2, [2, 4, 8])
        data = json.loads(report.to_json())
        assert data["experiment"] == "scaling_lattice"
        assert data["series"]["q"] == [2, 4, 8]
        assert data["version"]
        assert list(report.to_dict()) == ["experiment", "parameters", "series", "exponents",
                                          "verdicts", "error", "version", "timestamp"]


def write_config(path, text):
    path.write_text(text)
    return path


class TestRunAll:
    def test_empty_config(self, tmp_path):
        cfg = write_config(tmp_path / "empty.ini", "")
        assert run_all(cfg) == []

    def test_missing_config(self, tmp_path):
        with pytest.raises(PreconditionFailed):
            run_all(tmp_path / "absent.ini")

    def test_small_suite_with_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path / "suite.ini",
            "[tiny-scaling]\n"
            "kind = scaling_lattice\n"
            "d = 2\ns = 2\nq_list = 2 4 8\n"
            "\n"
            "[tiny-adaptable]\n"
            "kind = adaptable_directions\n"
            "d = 2\nm = 3\nratio = 1/4\ndepth = 2\n",
        )
        out = tmp_path / "reports"
        reports = run_all(cfg, out_dir=out)
        assert [r.parameters["section"] for r in reports] == [
            "tiny-scaling",
            "tiny-adaptable",
        ]
        assert all(r.passed() for r in reports)
        assert (out / "tiny-scaling.json").exists()
        assert (out / "tiny-adaptable.json").exists()
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].split(",")[:3] == ["section", "experiment", "verdict"]
        assert len(summary) >= 3

    def test_unknown_kind_aborts_before_running(self, tmp_path):
        cfg = write_config(
            tmp_path / "bad.ini",
            "[good]\nkind = scaling_lattice\nd = 2\ns = 2\nq_list = 2 4 8\n"
            "[typo]\nkind = scaling_latice\n",
        )
        with pytest.raises(PreconditionFailed, match="typo"):
            run_all(cfg)

    def test_missing_key_names_section_and_key(self, tmp_path):
        cfg = write_config(
            tmp_path / "bad.ini", "[half]\nkind = scaling_lattice\nd = 2\n"
        )
        with pytest.raises(PreconditionFailed) as info:
            run_all(cfg)
        assert "half" in str(info.value)
        assert "s" in str(info.value)

    def test_bad_literal_diagnosed(self, tmp_path):
        cfg = write_config(
            tmp_path / "bad.ini",
            "[broken]\nkind = scaling_lattice\nd = two\ns = 2\nq_list = 2 4\n",
        )
        with pytest.raises(PreconditionFailed, match="broken"):
            run_all(cfg)

    @pytest.mark.parametrize("kind", ["adaptable_directions", "slope_band"])
    @pytest.mark.parametrize("m, ratio", [(3, "1"), (3, "0"), (3, "-1/2"), (0, "1/4")])
    def test_bad_cantor_family_aborts_before_running(self, tmp_path, kind, m, ratio):
        cfg = write_config(
            tmp_path / "bad.ini",
            f"[cantor-{m}]\nkind = {kind}\nd = 2\nm = {m}\nratio = {ratio}\ndepth = 1\neps_list = 0.1\n",
        )
        with pytest.raises(PreconditionFailed, match=rf"section \[cantor-{m}\]"):
            run_all(cfg)

    @pytest.mark.parametrize("ratio", [Fraction(1), Fraction(0), Fraction(-1, 2)])
    def test_slope_band_checks_family_first(self, ratio):
        with pytest.raises(PreconditionFailed):
            run_slope_band(2, 3, ratio, 1, [0.1])

    def test_runtime_failure_is_recorded_not_raised(self, tmp_path):
        cfg = write_config(
            tmp_path / "mixed.ini",
            "[will-fail]\n"
            "kind = garnett_decay\n"
            "depths = 11 12\n"
            "\n"
            "[will-pass]\n"
            "kind = scaling_lattice\n"
            "d = 2\ns = 2\nq_list = 2 4 8\n",
        )
        reports = run_all(cfg)
        assert len(reports) == 2
        assert reports[0].error is not None
        assert not reports[0].passed()
        assert reports[1].passed()

    def test_determinism_excluding_timestamp(self, tmp_path):
        cfg = write_config(
            tmp_path / "det.ini",
            "[same]\nkind = scaling_lattice\nd = 2\ns = 2\nq_list = 2 4 8\n",
        )
        first = [r.to_dict() for r in run_all(cfg)]
        second = [r.to_dict() for r in run_all(cfg)]
        for a, b in zip(first, second):
            a.pop("timestamp")
            b.pop("timestamp")
            assert a == b

    def test_write_reports_error_row(self, tmp_path):
        report = ExperimentReport(
            experiment="broken", parameters={"section": "x"}, series={}, error="boom"
        )
        write_reports([report], tmp_path)
        rows = (tmp_path / "summary.csv").read_text().splitlines()
        assert any("completed" in row and "False" in row for row in rows[1:])


class TestDefaultConfig:
    def test_shipped_config_parses(self):
        path = default_config_path()
        assert path.exists()
        parser = configparser.ConfigParser()
        parser.read_string(path.read_text())
        kinds = {parser[s]["kind"] for s in parser.sections()}
        assert kinds == {
            "scaling_lattice",
            "garnett_decay",
            "adaptable_directions",
            "slope_band",
        }
