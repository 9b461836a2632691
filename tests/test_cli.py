"""End-to-end command-line behavior: outputs, files, and exit codes."""

import json
from fractions import Fraction

import pytest

from dirlab import read_point_set
from dirlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_points(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SQUARE = "2 4 exact\n0 0\n0 1\n1 0\n1 1\n"


class TestGenerate:
    def test_lattice_to_file(self, tmp_path, capsys):
        target = tmp_path / "lattice.txt"
        code, out, _ = run_cli(
            capsys, "generate", "lattice", "--q", "1", "--d", "2", "--to", str(target)
        )
        assert code == 0
        ps = read_point_set(target)
        assert len(ps) == 4 and ps.mode == "exact"

    def test_lattice_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "lattice", "--q", "1", "--to", "-")
        assert code == 0
        assert out.splitlines()[0] == "2 4 exact"

    @pytest.mark.parametrize("kind", [["lattice", "--q", "3", "--d", "3"],
                                      ["graph", "--d", "2", "--n", "7"]])
    def test_stdout_matches_file(self, tmp_path, capsys, kind):
        target = tmp_path / "points.txt"
        code, _, _ = run_cli(capsys, "generate", *kind, "--to", str(target))
        assert code == 0
        code, out, _ = run_cli(capsys, "generate", *kind, "--to", "-")
        assert code == 0
        assert out.encode("ascii") == target.read_bytes()

    def test_lattice_past_point_cap_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "generate", "lattice", "--q", "100000", "--d", "3")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "point cap" in err and "Traceback" not in err

    def test_garnett_depth_two(self, tmp_path, capsys):
        target = tmp_path / "garnett.txt"
        code, *_ = run_cli(
            capsys, "generate", "garnett", "--depth", "2", "--to", str(target)
        )
        assert code == 0
        assert len(read_point_set(target)) == 16

    def test_cantor_with_explicit_family(self, tmp_path, capsys):
        target = tmp_path / "cantor.txt"
        code, *_ = run_cli(
            capsys,
            "generate",
            "cantor",
            "--d",
            "2",
            "--depth",
            "1",
            "--m",
            "3",
            "--ratio",
            "1/4",
            "--to",
            str(target),
        )
        assert code == 0
        ps = read_point_set(target)
        assert len(ps) == 9
        assert Fraction(3, 8) in {p[0] for p in ps.points}

    def test_ifs_custom_maps(self, tmp_path, capsys):
        target = tmp_path / "ifs.txt"
        code, *_ = run_cli(
            capsys,
            "generate",
            "ifs",
            "--ratio",
            "1/2",
            "--offsets",
            "0,0;1/2,1/2",
            "--depth",
            "3",
            "--to",
            str(target),
        )
        assert code == 0
        ps = read_point_set(target)
        assert len(ps) == 8
        assert (Fraction(7, 8), Fraction(7, 8)) in set(ps.points)

    def test_out_directory_default_file(self, tmp_path, capsys):
        code, *_ = run_cli(
            capsys, "--out", str(tmp_path / "gen"), "generate", "hyperplane",
            "--d", "3", "--n", "9",
        )
        assert code == 0
        assert (tmp_path / "gen" / "hyperplane.txt").exists()


class TestDirections:
    def test_count_json(self, tmp_path, capsys):
        points = write_points(tmp_path, "sq.txt", SQUARE)
        code, out, _ = run_cli(capsys, "directions", "count", points)
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 4
        assert payload["n_pairs"] == 6

    @pytest.mark.parametrize("signed", [[], ["--signed"]])
    def test_count_past_census_budget_is_usage_error(self, tmp_path, capsys, monkeypatch, signed):
        from dirlab import directions

        points = write_points(tmp_path, "tri.txt", "2 3 exact\n0 0\n1 0\n0 1\n")  # 3 pairs, not a product
        monkeypatch.setattr(directions, "CENSUS_KEY_LIMIT", 2)
        code, out, err = run_cli(capsys, "directions", "count", points, *signed)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "key budget" in err and "Traceback" not in err
        monkeypatch.setattr(directions, "CENSUS_KEY_LIMIT", 3)
        code, out, _ = run_cli(capsys, "directions", "count", points, *signed)
        assert code == 0 and json.loads(out)["count"] == 3 * (2 if signed else 1)

    def test_count_signed(self, tmp_path, capsys):
        points = write_points(tmp_path, "sq.txt", SQUARE)
        code, out, _ = run_cli(capsys, "directions", "count", points, "--signed")
        assert json.loads(out)["count"] == 8

    def test_coverage_rows(self, tmp_path, capsys):
        points = write_points(tmp_path, "sq.txt", SQUARE)
        code, out, _ = run_cli(
            capsys, "directions", "coverage", points, "--eps", "0.2", "0.1"
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["eps"] for row in payload["grids"]] == [0.2, 0.1]
        for row in payload["grids"]:
            assert 0 < row["fraction"] <= 1

    def test_coverage_sweeps_the_pairs_once(self, tmp_path, capsys, monkeypatch):
        from dirlab import LatticeSpec, directions, geometry, lattice_set, sphere_coverage, write_point_set

        P = lattice_set(LatticeSpec(q=4, d=3))
        points = str(tmp_path / "lattice.txt")
        write_point_set(P, points)
        want = [
            {"eps": eps, "occupied": grid.occupied(), "total_cells": grid.total_cells,
             "fraction": grid.coverage_fraction()}
            for eps in (0.3, 0.1, 0.05) for grid in [sphere_coverage(P, eps, antipodal=False)]
        ]
        passes = []

        def pair_differences(P, *args, **kwargs):
            passes.append(len(P))
            return geometry._pair_differences(P, *args, **kwargs)

        monkeypatch.setattr(directions, "_pair_differences", pair_differences)
        code, out, _ = run_cli(capsys, "directions", "coverage", points, "--eps", "0.3", "0.1", "0.05", "--signed")
        assert code == 0 and len(passes) == 1
        assert json.loads(out)["grids"] == want

    def test_coverage_of_huge_exact_coordinates_is_usage_error(self, tmp_path, capsys):
        points = write_points(tmp_path, "huge.txt", f"2 3 exact\n{10**200} 0\n0 1\n1 0\n")
        code, out, err = run_cli(capsys, "directions", "coverage", points, "--eps", "0.1")
        assert code == 2 and out == "" and "2^500" in err

    def test_pps_exit_codes(self, tmp_path, capsys):
        good = write_points(
            tmp_path,
            "good.txt",
            "3 5 exact\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n1/4 1/4 1/4\n",
        )
        code, out, _ = run_cli(capsys, "directions", "pps", good)
        assert code == 0
        assert json.loads(out)["passed"] is True

        flat = write_points(
            tmp_path, "flat.txt", "3 4 exact\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n"
        )
        code, out, _ = run_cli(capsys, "directions", "pps", flat)
        assert code == 0
        assert json.loads(out)["applicable"] is False

    def test_separate_lists_keys(self, tmp_path, capsys):
        points = write_points(tmp_path, "sq.txt", SQUARE)
        code, out, _ = run_cli(
            capsys, "directions", "separate", points, "--delta", "0.1", "--keys"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == len(payload["keys"]) == 4

    def test_out_copies_json(self, tmp_path, capsys):
        points = write_points(tmp_path, "sq.txt", SQUARE)
        out_dir = tmp_path / "reports"
        code, out, _ = run_cli(
            capsys, "--out", str(out_dir), "directions", "count", points
        )
        assert code == 0
        disk = json.loads((out_dir / "count.json").read_text())
        assert disk == json.loads(out)

    def test_seed_recorded(self, tmp_path, capsys):
        points = write_points(tmp_path, "sq.txt", SQUARE)
        code, out, _ = run_cli(capsys, "--seed", "7", "directions", "count", points)
        assert json.loads(out)["seed"] == 7


class TestMeasure:
    def test_energy_value(self, tmp_path, capsys):
        points = write_points(tmp_path, "pair.txt", "2 2 exact\n0 0\n1 0\n")
        code, out, _ = run_cli(capsys, "measure", "energy", points, "--s", "2")
        assert code == 0
        assert json.loads(out)["energy"] == pytest.approx(0.5)

    def test_adaptable_exit_code_on_failure(self, tmp_path, capsys):
        points = write_points(
            tmp_path, "line.txt", "2 4 exact\n0 0\n1/4 0\n1/2 0\n3/4 0\n"
        )
        code, out, _ = run_cli(
            capsys, "measure", "adaptable", points, "--s", "1.5"
        )
        assert code == 1
        assert json.loads(out)["separated"] is False

    def test_energy_past_the_exact_bit_limit_is_usage_error(self, tmp_path, capsys):
        points = write_points(tmp_path, "square.txt", SQUARE)
        code, out, err = run_cli(capsys, "measure", "energy", points, "--s", "1000000")
        assert code == 2 and out == "" and err.startswith("error:") and "bit limit" in err

    @pytest.mark.parametrize("command", [["energy"], ["adaptable", "--bound", "5"]], ids=["energy", "adaptable"])
    def test_energy_past_float64_is_usage_error(self, command, tmp_path, capsys):
        points = write_points(tmp_path, "close.txt", "2 2 exact\n0 0\n1/1000000 0\n")
        code, out, err = run_cli(capsys, "measure", command[0], points, "--s", "100", *command[1:])
        assert code == 2 and out == "" and err.startswith("error:") and "float64" in err

    def test_adaptable_with_nan_bound_is_usage_error(self, tmp_path, capsys):
        points = write_points(tmp_path, "square.txt", SQUARE)
        code, out, err = run_cli(capsys, "measure", "adaptable", points, "--s", "1.5", "--bound", "nan")
        assert code == 2 and out == "" and err.startswith("error:") and "nan" in err

    def test_adaptable_refuses_a_radius_below_the_cell_range(self, tmp_path, capsys):
        # s = 2/700 puts the radius of four points at 2^-700, so the grid
        # cells of the separation check would leave int64
        points = write_points(tmp_path, "tiny.txt", f"2 4 exact\n1/{2**560} 0\n1/{2**559} 0\n1 1\n0 0\n")
        code, out, err = run_cli(capsys, "measure", "adaptable", points, "--s", repr(2 / 700), "--bound", "5")
        assert code == 2
        assert err.startswith("error:") and "too small" in err and out == ""

    @pytest.mark.parametrize("s", ["1", "1.5"])
    def test_energy_of_huge_exact_coordinates_is_usage_error(self, tmp_path, capsys, s):
        points = write_points(tmp_path, "huge.txt", f"2 3 exact\n{10**400} 0\n0 1\n1 1\n")
        code, out, err = run_cli(capsys, "measure", "energy", points, "--s", s)
        assert code == 2 and out == "" and err.startswith("error:") and "2^500" in err

    def test_adaptable_of_huge_exact_coordinates_is_usage_error(self, tmp_path, capsys):
        points = write_points(tmp_path, "huge.txt", f"2 3 exact\n{10**400} 0\n0 1\n1 1\n")
        code, out, err = run_cli(capsys, "measure", "adaptable", points, "--s", "1.5", "--bound", "5")
        assert code == 2 and out == "" and "2^500" in err

    def test_density_of_huge_exact_coordinates_is_usage_error(self, tmp_path, capsys):
        upper = write_points(tmp_path, "big.txt", f"2 2 exact\n0 0\n1 {10**400}\n")
        lower = write_points(tmp_path, "low.txt", "2 2 exact\n0 -1\n1 -2\n")
        code, out, err = run_cli(capsys, "measure", "density", upper, lower, "--eps", "0.1")
        assert code == 2 and out == "" and err.startswith("error:") and "2^500" in err

    def test_split_report(self, tmp_path, capsys):
        points = write_points(
            tmp_path,
            "lat4.txt",
            "2 25 exact\n"
            + "".join(
                f"{Fraction(i, 4)} {Fraction(j, 4)}\n"
                for i in range(5)
                for j in range(5)
            ),
        )
        code, out, _ = run_cli(
            capsys, "measure", "split", points, "--c", "0.0625"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["level"] == 1
        assert payload["piece_sizes"] == [2, 2]

    def test_density_full_values(self, tmp_path, capsys):
        upper = write_points(tmp_path, "u.txt", "2 1 exact\n3/4 1\n")
        lower = write_points(tmp_path, "l.txt", "2 1 exact\n0 0\n")
        code, out, _ = run_cli(
            capsys,
            "measure",
            "density",
            upper,
            lower,
            "--eps",
            "0.0625",
            "--pitch",
            "0.0625",
            "--full",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["values"] == [0, 0, 0, 16, 16, 0, 0, 0]
        assert payload["integral"] == pytest.approx(2.0)

    def test_band_runs(self, tmp_path, capsys):
        rows = [
            " ".join(str(c) for c in p)
            for p in __import__("dirlab").product_cantor(
                2, m=3, ratio=Fraction(1, 4), depth=3
            ).points
        ]
        points = write_points(
            tmp_path, "cantor.txt", f"2 {len(rows)} exact\n" + "\n".join(rows) + "\n"
        )
        code, out, _ = run_cli(
            capsys,
            "measure",
            "band",
            points,
            "--s",
            "1.585",
            "--eps",
            "0.125",
            "0.0625",
            "0.03125",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["normalized_integral"]) == 3
        assert payload["band_constant"] is not None


    @pytest.mark.parametrize("command, eps, message", [
        ("band", "inf", "finite"),
        ("band", "1e-300", "cell cap"),
        ("density", "inf", "finite"),
        ("density", "nan", "finite"),
        ("density", "1e-300", "cell cap"),
    ])
    def test_bad_window_width_is_usage_error(self, tmp_path, capsys, command, eps, message):
        if command == "band":
            rows = [" ".join(map(str, p)) for p in __import__("dirlab").product_cantor(
                2, m=3, ratio=Fraction(1, 4), depth=2).points]
            inputs = [write_points(tmp_path, "c.txt", f"2 {len(rows)} exact\n" + "\n".join(rows) + "\n"),
                      "--s", "1.585"]
        else:
            inputs = [write_points(tmp_path, "u.txt", "2 1 exact\n3/4 1\n"),
                      write_points(tmp_path, "l.txt", "2 1 exact\n0 0\n")]
        code, out, err = run_cli(capsys, "measure", command, *inputs, "--eps", eps)
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err and "Traceback" not in err


class TestExperimentAndErrors:
    def test_experiment_run_passing_config(self, tmp_path, capsys):
        cfg = tmp_path / "ok.ini"
        cfg.write_text(
            "[quick]\nkind = scaling_lattice\nd = 2\ns = 2\nq_list = 2 4 8\n"
        )
        code, out, _ = run_cli(capsys, "experiment", "run", str(cfg))
        assert code == 0
        assert "quick exponent: PASS" in out

    def test_experiment_run_failing_verdict(self, tmp_path, capsys):
        cfg = tmp_path / "strict.ini"
        cfg.write_text(
            "[strict]\nkind = scaling_lattice\nd = 2\ns = 2\n"
            "q_list = 2 4 8\ntolerance = 0.0001\n"
        )
        code, out, _ = run_cli(capsys, "experiment", "run", str(cfg))
        assert code == 1
        assert "FAIL" in out

    def test_experiment_default_config_path(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "default-config")
        assert code == 0
        assert out.strip().endswith("default.ini")

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "directions", "count", str(tmp_path / "absent.txt")
        )
        assert code == 2
        assert "error:" in err

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[x]\nkind = nope\n")
        code, _, err = run_cli(capsys, "experiment", "run", str(cfg))
        assert code == 2
        assert "error:" in err

    def test_zero_denominator_is_usage_error(self, tmp_path, capsys):
        points = write_points(tmp_path, "bad.txt", "2 2 exact\n0 0\n1/0 1\n")
        code, _, err = run_cli(capsys, "directions", "count", points)
        assert code == 2
        assert "error:" in err and "line 3" in err

    def test_non_ascii_byte_is_usage_error(self, tmp_path, capsys):
        points = tmp_path / "bad.txt"
        points.write_bytes("2 2 exact\n0 0\n1 é\n".encode("utf-8"))
        code, out, err = run_cli(capsys, "directions", "count", str(points))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "ASCII" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["cantor", "--d", "2", "--depth", "2", "--m", "3", "--ratio", "abc"],
            ["cantor", "--d", "2", "--depth", "2", "--m", "3", "--ratio", "1/0"],
            ["ifs", "--ratio", "1/0", "--offsets", "0,0", "--depth", "1"],
            ["ifs", "--ratio", "1/4", "--offsets", "0,x", "--depth", "1"],
        ],
        ids=["cantor-abc", "cantor-1/0", "ifs-1/0", "ifs-offset-x"],
    )
    def test_bad_fraction_token_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "generate", *argv)
        assert code == 2
        assert err.startswith("error:") and "is not a number" in err
        assert out == ""

    @pytest.mark.parametrize("kind", ["hyperplane", "graph"])
    def test_grid_sample_point_cap_is_usage_error(self, capsys, kind):
        code, _, err = run_cli(capsys, "generate", kind, "--d", "3", "--n", "100000000")
        assert code == 2
        assert "error:" in err and "point cap" in err

    @pytest.mark.parametrize("m, ratio", [("3", "--ratio=1"), ("3", "--ratio=0"), ("3", "--ratio=-1/2"),
                                          ("0", "--ratio=1/4")])
    def test_bad_cantor_family_is_usage_error(self, capsys, m, ratio):
        code, out, err = run_cli(capsys, "generate", "cantor", "--d", "2", "--depth", "1", "--m", m, ratio)
        assert code == 2
        assert err.startswith("error:") and out == ""

    @pytest.mark.parametrize("kind, extra", [("adaptable_directions", ""), ("slope_band", "eps_list = 0.1\n")])
    @pytest.mark.parametrize("ratio", ["1", "0", "-1/2"])
    def test_bad_cantor_section_is_usage_error(self, tmp_path, capsys, kind, extra, ratio):
        cfg = tmp_path / "cantor.ini"
        cfg.write_text(f"[bad-family]\nkind = {kind}\nd = 2\nm = 3\nratio = {ratio}\ndepth = 1\n{extra}")
        code, out, err = run_cli(capsys, "experiment", "run", str(cfg))
        assert code == 2
        assert err.startswith("error:") and "[bad-family]" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["band", "--s", "0", "--eps", "0.1"],
            ["band", "--s", "-1", "--eps", "0.1"],
            ["adaptable", "--s", "0", "--bound", "5"],
            ["adaptable", "--s", "nan", "--bound", "3"],
            ["energy", "--s", "nan"],
            ["energy", "--s", "inf"],
        ],
        ids=["band-0", "band-negative", "adaptable-0", "adaptable-nan", "energy-nan", "energy-inf"],
    )
    def test_bad_exponent_is_usage_error(self, tmp_path, capsys, argv):
        points = write_points(tmp_path, "sq.txt", SQUARE)
        code, out, err = run_cli(capsys, "measure", argv[0], points, *argv[1:])
        assert code == 2
        assert err.startswith("error:") and "finite and positive" in err and out == ""

    def test_too_fine_coverage_pitch_is_usage_error(self, tmp_path, capsys):
        points = write_points(tmp_path, "sq.txt", SQUARE)
        code, out, err = run_cli(capsys, "directions", "coverage", points, "--eps", "1e-200")
        assert code == 2
        assert err.startswith("error:") and "too fine" in err

    def test_degenerate_input_reported(self, tmp_path, capsys):
        points = write_points(tmp_path, "one.txt", "2 1 exact\n0 0\n")
        code, _, err = run_cli(capsys, "directions", "count", points)
        assert code == 2
        assert "error:" in err
