"""Command-line surface, exercised in process through run()."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ahiso.cli import _build_parser, _load_model, _metric_from_model_dict, emit_summary, run
from ahiso.imcf import flow_spheres
from ahiso.models import make_ads_schwarzschild
from ahiso.profiles import gap_table, hyperbolic_profile

FOUR_PI = 4.0 * math.pi


@pytest.fixture()
def hyp_model(tmp_path):
    path = tmp_path / "hyperbolic.json"
    path.write_text(json.dumps({"type": "hyperbolic"}))
    return str(path)


@pytest.fixture()
def ads_model(tmp_path):
    path = tmp_path / "ads_m1.json"
    path.write_text(json.dumps({"type": "ads_schwarzschild", "mass": 1.0}))
    return str(path)


def _parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0].startswith("# manifest: ")
    manifest = json.loads(lines[0][len("# manifest: ") :])
    header = lines[1].split(",")
    body = np.array(
        [[float(x) for x in line.split(",")] for line in lines[2:]]
    )
    return manifest, header, body


def _capture(capsys, argv, expect=0):
    rc = run(argv)
    out = capsys.readouterr().out
    assert rc == expect
    return out


class TestTables:
    def test_spheres(self, capsys, ads_model):
        out = _capture(
            capsys, ["spheres", "--model", ads_model, "--n", "20"]
        )
        manifest, header, body = _parse_csv(out)
        assert header == [
            "s",
            "rho",
            "area",
            "H",
            "Ric_nu",
            "K",
            "R",
            "hawking_mass",
            "stability_total",
        ]
        assert body.shape == (20, 9)
        s, area = body[:, 0], body[:, 2]
        assert np.allclose(area, FOUR_PI * s * s, rtol=1e-14)
        assert np.allclose(body[:, 7], 1.0, atol=1e-10)
        assert manifest["subcommand"] == "spheres"
        assert manifest["parameters"]["model"]["mass"] == 1.0

    def test_imcf(self, capsys, ads_model):
        out = _capture(
            capsys,
            ["imcf", "--model", ads_model, "--s0", "2", "--t-max", "2", "--dt", "0.25"],
        )
        _, header, body = _parse_csv(out)
        assert header == ["t", "s", "area", "volume", "hawking"]
        assert body[0, 0] == 0.0
        assert body[-1, 0] == 2.0
        # area law B(t) = B(0) e^t
        assert np.allclose(body[:, 2], body[0, 2] * np.exp(body[:, 0]), rtol=1e-8)
        assert np.all(np.diff(body[:, 3]) > 0.0)

    def test_compare_ode_tracks_hyperbolic(self, capsys):
        b0 = hyperbolic_profile(1.0)
        out = _capture(
            capsys,
            [
                "compare-ode",
                "--b0",
                repr(b0),
                "--v-end",
                "1e4",
                "--n",
                "100",
            ],
        )
        _, header, body = _parse_csv(out)
        assert header == ["v", "B", "A_H"]
        rel = np.abs(body[:, 1] - body[:, 2]) / body[:, 2]
        assert float(np.max(rel)) <= 1e-6

    def test_compare_ode_reads_quad_tol(self, capsys):
        argv = ["compare-ode", "--b0", "12", "--v-end", "10", "--n", "3"]
        manifest, _, _ = _parse_csv(_capture(capsys, argv))
        assert manifest["parameters"]["quad_tol"] == 1e-10
        assert "ode_tol" not in manifest["parameters"]
        manifest, _, _ = _parse_csv(_capture(capsys, argv + ["--quad-tol", "1e-12"]))
        assert manifest["parameters"]["quad_tol"] == 1e-12

    def test_profile(self, capsys, ads_model):
        out = _capture(
            capsys,
            ["profile", "--model", ads_model, "--v-min", "10", "--n", "12"],
        )
        _, header, body = _parse_csv(out)
        assert header == ["v", "A_g", "A_H", "gap", "scaled_gap"]
        assert body.shape == (12, 5)
        assert np.allclose(body[:, 3], body[:, 1] - body[:, 2], atol=1e-9)
        # large-volume rows sit strictly below the hyperbolic profile
        assert body[-1, 3] < 0.0

    def test_expansion_grid_is_dyadic(self, capsys, ads_model):
        out = _capture(capsys, ["expansion", "--model", ads_model, "--n", "5"])
        _, header, body = _parse_csv(out)
        assert header == ["v", "A_g", "A_H", "gap", "scaled_gap"]
        ratios = body[1:, 0] / body[:-1, 0]
        assert np.allclose(ratios, 4.0, rtol=1e-12)
        assert body[-1, 0] == 1e6

    def test_stability(self, capsys, hyp_model):
        out = _capture(capsys, ["stability", "--model", hyp_model, "--n", "10"])
        _, header, body = _parse_csv(out)
        assert header == ["s", "stability_total", "lambda_0", "lambda_1", "lambda_2"]
        assert np.allclose(body[:, 1], 8.0 * math.pi, atol=1e-10)
        assert np.all(body[:, 3] == 0.0)

    def test_renorm_vol_json(self, capsys, ads_model):
        out = _capture(capsys, ["renorm-vol", "--model", ads_model])
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(10.5797970598, abs=1e-6)
        assert doc["truncation_rho"] == 20.0
        assert doc["tail_estimate"] > 0.0
        assert doc["quad_error"] >= 0.0
        m = doc["manifest"]
        assert m["subcommand"] == "renorm-vol"
        assert set(m) == {
            "subcommand",
            "model_digest",
            "parameters",
            "timestamp",
            "tool_version",
        }

    def test_out_file(self, capsys, tmp_path, hyp_model):
        dest = tmp_path / "spheres.csv"
        rc = run(
            ["spheres", "--model", hyp_model, "--n", "5", "--out", str(dest)]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""
        manifest, _, body = _parse_csv(dest.read_text())
        assert body.shape == (5, 9)
        assert manifest["model_digest"] != "-"

    @pytest.mark.parametrize(
        "argv, compute",
        [
            (
                ["imcf", "--s0", "2", "--t-max", "2", "--dt", "0.25"],
                lambda metric: flow_spheres(metric, 2.0, 2.0, 0.25),
            ),
            (
                ["profile", "--v-min", "10", "--n", "12"],
                lambda metric: gap_table(metric, np.geomspace(10.0, 1e6, 12)),
            ),
        ],
        ids=["imcf", "profile"],
    )
    def test_cells_are_repr_of_the_record_fields(
        self, capsys, ads_model, argv, compute
    ):
        out = _capture(capsys, argv + ["--model", ads_model])
        cells = [line.split(",") for line in out.splitlines()[2:]]
        columns = list(vars(compute(make_ads_schwarzschild(1.0))).values())
        assert len(cells) == columns[0].size
        want = [[repr(float(col[i])) for col in columns] for i in range(len(cells))]
        assert cells == want

    def test_deterministic_bodies(self, capsys, ads_model):
        argv = ["spheres", "--model", ads_model, "--n", "15"]
        first = _capture(capsys, argv).split("\n", 1)[1]
        second = _capture(capsys, argv).split("\n", 1)[1]
        assert first == second


class TestValidate:
    def test_valid_model_exits_zero(self, capsys, ads_model):
        out = _capture(capsys, ["validate", "--model", ads_model])
        doc = json.loads(out)
        assert doc["is_ah"] is True
        assert doc["min_scalar_curvature_excess"] == 0.0
        assert doc["messages"] == []

    def test_invalid_model_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"type": "perturbed", "mass": 0.0, "coeffs": [-0.05, 0.01]})
        )
        rc = run(["validate", "--model", str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert doc["is_ah"] is False
        assert any("scalar curvature" in m for m in doc["messages"])


class TestErrorPaths:
    def test_unknown_flag(self, hyp_model):
        assert run(["spheres", "--model", hyp_model, "--bogus"]) == 1

    def test_missing_model_file(self, tmp_path):
        assert run(["spheres", "--model", str(tmp_path / "nope.json")]) == 1

    def test_malformed_model_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert run(["spheres", "--model", str(path)]) == 1

    def test_unknown_model_type(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"type": "flat"}))
        assert run(["spheres", "--model", str(path)]) == 1

    def test_grid_below_core(self, ads_model):
        assert run(["spheres", "--model", ads_model, "--s-min", "0.5"]) == 1

    @pytest.mark.parametrize("subcommand", ["spheres", "stability"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--s-min", "1.0"], "--s-min must exceed the core radius"),
            (["--s-min", "3", "--s-max", "2"], "--s-max must exceed --s-min"),
            (["--s-min", "3", "--s-max", "3"], "--s-max must exceed --s-min"),
            (["--n", "0"], "--n must be positive"),
        ],
    )
    def test_bad_radius_grid(self, capsys, ads_model, subcommand, flags, message):
        assert run([subcommand, "--model", ads_model] + flags) == 1
        assert message in capsys.readouterr().err

    def test_infeasible_mass_floor(self, capsys):
        b0 = hyperbolic_profile(1.0)
        rc = run(
            [
                "compare-ode",
                "--b0",
                repr(b0),
                "--v-end",
                "100",
                "--mass-floor",
                "1.0",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "radicand negative" in err

    def test_unreachable_tolerance_exits_two(self, ads_model, monkeypatch):
        # A tolerance below machine precision exhausts the quadrature
        # budget; capped here so the failure arrives in milliseconds
        # instead of after the full 4e5 evaluations.
        import functools

        import ahiso.models
        from ahiso.numerics import integrate

        monkeypatch.setattr(
            ahiso.models, "integrate", functools.partial(integrate, max_evals=2000)
        )
        rc = run(["renorm-vol", "--model", ads_model, "--quad-tol", "1e-30"])
        assert rc == 2

    def test_unwritable_out_path(self, tmp_path, hyp_model):
        dest = tmp_path / "missing_dir" / "x.csv"
        assert run(["spheres", "--model", hyp_model, "--out", str(dest)]) == 1

    def test_no_subcommand(self):
        assert run([]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["imcf", "--s0", "2", "--t-max", "inf"],
            ["imcf", "--s0", "2", "--t-max", "1e308", "--dt", "0.5"],
            ["renorm-vol", "--rho", "711"],
            ["profile", "--rho", "1e308"],
            ["spheres", "--quad-tol", "nan"],
            ["renorm-vol", "--quad-tol", "0"],
            ["imcf", "--s0", "2", "--ode-tol", "nan"],
        ],
    )
    def test_out_of_range_input_exits_one(self, capsys, ads_model, argv):
        assert run(argv + ["--model", ads_model]) == 1
        assert "error: " in capsys.readouterr().err


def _float_flags(subparser):
    """The option strings of ``subparser`` that parse to a float."""
    for action in subparser._actions:
        try:
            parsed = action.type("0.5") if action.type else None
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            parsed = None
        if action.option_strings and isinstance(parsed, float):
            yield action.option_strings[0]


def test_every_float_flag_rejects_nonfinite_and_huge_values(tmp_path, capsys):
    # Flags are read from the parser, so a new one is swept too.  Each
    # base command runs in milliseconds; one flag at a time is set to nan,
    # inf or 1e308 (and 0 for a tolerance), which must exit 1 or 2 without
    # an exception escaping.
    model = tmp_path / "ads_m1.json"
    model.write_text(json.dumps({"type": "ads_schwarzschild", "mass": 1.0}))
    m = ["--model", str(model)]
    base = {
        "spheres": m + ["--n", "3"],
        "imcf": m + ["--s0", "2", "--t-max", "1", "--dt", "0.5"],
        "compare-ode": ["--b0", "12", "--v-end", "10", "--n", "3"],
        "profile": m + ["--v-max", "10", "--n", "2"],
        "expansion": m + ["--v-max", "10", "--n", "2"],
        "renorm-vol": m,
        "stability": m + ["--n", "3"],
        "validate": m,
        "summary": [str(tmp_path)],
    }
    parser = _build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    assert set(subparsers) == set(base)
    swept, bad = 0, []
    for name, subparser in subparsers.items():
        assert run([name] + base[name]) in (0, 1), name
        for flag in _float_flags(subparser):
            for value in ["nan", "inf", "1e308"] + (["0"] if "tol" in flag else []):
                argv = [name] + base[name] + [flag, value]
                with np.errstate(all="ignore"):
                    rc = run(argv)
                swept += 1
                if rc not in (1, 2):
                    bad.append((argv[0], flag, value, rc))
    capsys.readouterr()
    assert swept >= 100
    assert not bad


class TestParserReuse:
    """One parser serves every call in a process; calls stay independent."""

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_calls_do_not_leak_into_each_other(self, capsys, ads_model):
        imcf = ["imcf", "--model", ads_model, "--s0", "2", "--t-max", "1"]
        manifest, _, body = _parse_csv(_capture(capsys, imcf + ["--dt", "0.5"]))
        assert manifest["parameters"]["dt"] == 0.5
        assert body.shape[0] == 3
        assert run(imcf + ["--bogus"]) == 1
        assert run([]) == 1
        manifest, _, body = _parse_csv(_capture(capsys, imcf))
        assert manifest["parameters"]["dt"] == 0.01
        assert body.shape[0] == 101

    def test_subprocess_body_matches_in_process(self, capsys, ads_model):
        argv = ["imcf", "--model", ads_model, "--s0", "2", "--t-max", "0.5", "--dt", "0.1"]
        here = _capture(capsys, argv)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-m", "ahiso.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        assert child.stdout.split("\n", 1)[1] == here.split("\n", 1)[1]


def _build_suite(root, model_path, tag):
    """Write one full batch of result files for the summary aggregator."""
    res = root / f"res_{tag}"
    res.mkdir()

    def go(argv, name):
        assert run(argv + ["--out", str(res / name)]) == 0

    go(["spheres", "--model", model_path, "--n", "50"], "spheres.csv")
    go(["stability", "--model", model_path, "--n", "30"], "stability.csv")
    go(
        ["imcf", "--model", model_path, "--s0", "2", "--t-max", "5", "--dt", "0.05"],
        "imcf.csv",
    )
    go(
        [
            "compare-ode",
            "--b0",
            repr(hyperbolic_profile(1.0)),
            "--v-end",
            "1e4",
            "--n",
            "100",
        ],
        "compare.csv",
    )
    go(
        ["profile", "--model", model_path, "--v-min", "1", "--n", "12"],
        "profile.csv",
    )
    go(["expansion", "--model", model_path, "--n", "6"], "expansion.csv")
    go(["renorm-vol", "--model", model_path], "renorm.json")
    run(["validate", "--model", model_path, "--out", str(res / "validate.json")])
    return res


_CRITERIA = {
    "hawking_identity",
    "scalar_floor",
    "profile_ode_match",
    "area_comparison",
    "gap_volume_limit",
    "expansion_coefficient",
    "flow_laws",
    "stability_bounds",
    "gauss_bonnet",
    "renorm_volume_sign",
}


@pytest.fixture(scope="module")
def hyp_suite(tmp_path_factory):
    root = tmp_path_factory.mktemp("summary_hyp")
    model = root / "hyperbolic.json"
    model.write_text(json.dumps({"type": "hyperbolic"}))
    return _build_suite(root, str(model), "hyp")


@pytest.fixture(scope="module")
def ads_suite(tmp_path_factory):
    root = tmp_path_factory.mktemp("summary_ads")
    model = root / "ads_m1.json"
    model.write_text(json.dumps({"type": "ads_schwarzschild", "mass": 1.0}))
    return _build_suite(root, str(model), "ads")


class TestSummary:
    def test_hyperbolic_suite_all_green(self, capsys, hyp_suite):
        out = _capture(capsys, ["summary", str(hyp_suite)])
        doc = json.loads(out)
        assert set(doc["verdicts"]) == _CRITERIA
        assert all(v == "pass" for v in doc["verdicts"].values())
        assert doc["n_runs"] == 8

    def test_ads_suite_reports_known_failures(self, ads_suite):
        # Criteria checked on the full volume range fail honestly for a
        # positive-mass model: the small-volume rows sit above the
        # hyperbolic profile, and the scaled gap misses the pinned
        # target constant.
        doc = emit_summary(str(ads_suite))
        assert set(doc["verdicts"]) == _CRITERIA
        assert doc["verdicts"]["hawking_identity"] == "pass"
        assert doc["verdicts"]["scalar_floor"] == "pass"
        assert doc["verdicts"]["flow_laws"] == "pass"
        assert doc["verdicts"]["gap_volume_limit"] == "pass"
        assert doc["verdicts"]["area_comparison"] == "fail"
        assert doc["verdicts"]["expansion_coefficient"] == "fail"
        gap = doc["criteria"]["area_comparison"]
        assert gap["measured"] > gap["tolerance"]

    def test_criterion_records_have_uniform_shape(self, hyp_suite):
        doc = emit_summary(str(hyp_suite))
        for record in doc["criteria"].values():
            assert set(record) >= {"measured", "tolerance", "status"}

    def test_ragged_file_is_skipped(self, tmp_path, hyp_model):
        # A truncated last row left columns of unequal length, and the
        # Hawking-mass check failed to broadcast them.
        res = tmp_path / "res"
        res.mkdir()
        whole, cut = res / "whole.csv", res / "cut.csv"
        argv = ["spheres", "--model", hyp_model, "--n", "5", "--out", str(whole)]
        assert run(argv) == 0
        lines = whole.read_text().splitlines()
        lines[-1] = ",".join(lines[-1].split(",")[:4])
        cut.write_text("\n".join(lines) + "\n")
        doc = emit_summary(str(res))
        assert doc["n_runs"] == 1
        assert doc["verdicts"]["hawking_identity"] == "pass"

    def test_empty_directory_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(["summary", str(empty)]) == 1

    def test_manifest_model_round_trips_parameters(self, tmp_path):
        path = tmp_path / "pert.json"
        path.write_text(json.dumps({"type": "perturbed", "mass": 1.0, "coeffs": [0.1, 0.05]}))
        metric, model, _ = _load_model(str(path))
        assert model["core_radius"] == metric.core_radius
        assert _metric_from_model_dict(json.loads(json.dumps(model))) == metric
