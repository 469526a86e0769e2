"""Command-line surface, exercised in process through run()."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ahiso.cli import (
    _build_parser,
    _load_model,
    _metric_from_model_dict,
    _read_run,
    emit_summary,
    run,
)
from ahiso.imcf import flow_spheres
from ahiso.models import default_grid, make_ads_schwarzschild
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


def _extreme_model_files():
    for kind in ("hyperbolic", "ads_schwarzschild", "perturbed"):
        for x in (1e308, 1e300, 1e-300, 5e-324, -1e308):
            yield {"type": kind, "mass": x}
            yield {"type": kind, "mass": 0.5, "coeffs": [x]}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("model", list(_extreme_model_files()), ids=repr)
def test_validate_sweeps_extreme_model_files(capsys, tmp_path, model):
    # A valid model gets a report (exit 0, or 1 when it is not AH) and a
    # core above which f > 0; an invalid one exits 1 naming the offending
    # number, never 2 or with an exception.  ads m = 1e300 (core 1.26e100)
    # and m = 1e308 (-2m overflows) used to exit 2, and ads m = 5e-324
    # passed with core 0 although f(5e-324) = -1.
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    rc = run(["validate", "--model", str(path)])
    out, err = capsys.readouterr()
    assert rc in (0, 1), err
    if out:
        doc = json.loads(out)
        assert doc["is_ah"] is (rc == 0)
        metric = _metric_from_model_dict(doc["manifest"]["parameters"]["model"])
        # f is nan where its terms overflow, as at 5e-324 for c_2 = 1e308.
        with np.errstate(all="ignore"):
            assert not metric.f(max(metric.core_radius * (1.0 + 1e-9), 5e-324)) <= 0.0
    else:
        assert rc == 1
        value = model["coeffs"][0] if "coeffs" in model else model["mass"]
        assert repr(value) in err, err


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

    @pytest.mark.parametrize(
        "subcommand, mass", [("spheres", 6e8), ("stability", 6e8), ("stability", 1e300)]
    )
    def test_default_radius_grid_scales_with_the_core(
        self, capsys, tmp_path, subcommand, mass
    ):
        # Omitted ends are default_grid's, core + 0.1 max(1, core) and
        # max(1e3, 1e3 core).  Fixed ends core + 0.1 and 1e3 made these
        # exit 1: core 1062.7 lies above 1e3, and at core 1.26e100,
        # core + 0.1 == core.
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"type": "ads_schwarzschild", "mass": mass}))
        out = _capture(capsys, [subcommand, "--model", str(path), "--n", "4"])
        manifest, _, body = _parse_csv(out)
        params = manifest["parameters"]
        core = params["model"]["core_radius"]
        assert core > 1e3
        want = default_grid(_metric_from_model_dict(params["model"]), 4)
        assert [params["s_min"], params["s_max"]] == [core + 0.1 * core, 1e3 * core]
        assert body[:, 0].tolist() == want.tolist()

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

    def test_exhausted_quadrature_budget_exits_two(self, ads_model, monkeypatch):
        # A budget of one Gauss-Kronrod panel cannot meet the 1e-13
        # tolerance of the integrals behind V.
        import functools

        import ahiso.models
        from ahiso.numerics import integrate

        monkeypatch.setattr(
            ahiso.models, "integrate", functools.partial(integrate, max_evals=15)
        )
        rc = run(["renorm-vol", "--model", ads_model])
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
            ["profile", "--v-min", "1e308"],
        ],
    )
    def test_out_of_range_input_exits_one(self, capsys, ads_model, argv):
        assert run(argv + ["--model", ads_model]) == 1
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("mass_floor", ["0", "0.5"])
    @pytest.mark.parametrize("v_end", ["1e300", "1e307", "5e307", "8e307"])
    def test_compare_ode_near_the_float_maximum_warns_nothing(self, capsys, v_end, mass_floor):
        # Past s ~ 1.3e154 the volume element is inf / inf.  Its overflow
        # warning escaped run() under error::RuntimeWarning at 5e307 and
        # 8e307 (and at 1e307 with a mass floor) instead of exiting 2.
        # Up to 1e307 the curve exists at either floor, so with a floor the
        # ladder's top rung in w must stay below where 8 pi b^2 overflows.
        argv = ["compare-ode", "--b0", "12.5", "--v-end", v_end, "--mass-floor", mass_floor]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run(argv + ["--n", "5"])
        allowed = (0,) if float(v_end) <= 1e307 else (0, 2)
        assert rc in allowed, capsys.readouterr().err


def _base_argv(model, results_dir):
    """A valid argv tail per subcommand that runs in milliseconds."""
    m = ["--model", str(model)]
    return {
        "spheres": m + ["--n", "3"],
        "imcf": m + ["--s0", "2", "--t-max", "1", "--dt", "0.5"],
        "compare-ode": ["--b0", "12", "--v-end", "10", "--n", "3"],
        "profile": m + ["--v-max", "10", "--n", "2"],
        "expansion": m + ["--v-max", "10", "--n", "2"],
        "renorm-vol": m,
        "stability": m + ["--n", "3"],
        "validate": m,
        "summary": [str(results_dir)],
    }


def _float_flags(subparser):
    """The option strings of ``subparser`` that parse to a float."""
    for action in subparser._actions:
        try:
            parsed = action.type("0.5") if action.type else None
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            parsed = None
        if action.option_strings and isinstance(parsed, float):
            yield action.option_strings[0]


# Every float flag, by subcommand: the sweep below reads them from the
# parser and must find exactly these.
_FLOAT_FLAGS = {
    ("spheres", "--s-min"), ("spheres", "--s-max"),
    ("imcf", "--s0"), ("imcf", "--t-max"), ("imcf", "--dt"),
    ("compare-ode", "--b0"), ("compare-ode", "--v0"),
    ("compare-ode", "--v-end"), ("compare-ode", "--mass-floor"),
    ("profile", "--v-min"), ("profile", "--v-max"),
    ("expansion", "--v-max"),
    ("renorm-vol", "--rho"),
    ("stability", "--s-min"), ("stability", "--s-max"),
}


def _subparsers():
    parser = _build_parser()
    return next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


def test_every_float_flag_rejects_nonfinite_and_huge_values(tmp_path, capsys):
    # Flags are read from the parser, so a new one is swept too (and must
    # be added to _FLOAT_FLAGS).  Each base command runs in milliseconds;
    # one flag at a time is set to nan, inf or 1e308, which must exit 1
    # or 2 without an exception escaping.
    model = tmp_path / "ads_m1.json"
    model.write_text(json.dumps({"type": "ads_schwarzschild", "mass": 1.0}))
    base = _base_argv(model, tmp_path)
    subparsers = _subparsers()
    assert set(subparsers) == set(base)
    swept, runs, bad = set(), 0, []
    for name, subparser in subparsers.items():
        assert run([name] + base[name]) in (0, 1), name
        for flag in _float_flags(subparser):
            swept.add((name, flag))
            for value in ["nan", "inf", "1e308"]:
                argv = [name] + base[name] + [flag, value]
                with np.errstate(all="ignore"):
                    rc = run(argv)
                runs += 1
                if rc not in (1, 2):
                    bad.append((argv[0], flag, value, rc))
    capsys.readouterr()
    assert swept == _FLOAT_FLAGS
    assert runs == 45
    assert not bad


def _declared(subparser):
    """The dest of every flag or positional of ``subparser`` but --out."""
    return {a.dest for a in subparser._actions if a.dest not in ("help", "out")}


def test_manifest_parameters_are_the_declared_flags(tmp_path):
    # The manifest records every flag a subcommand declares (--model as
    # the model record) and nothing else, defaults resolved.
    model = tmp_path / "ads_m1.json"
    model.write_text(json.dumps({"type": "ads_schwarzschild", "mass": 1.0}))
    res = tmp_path / "res"
    res.mkdir()
    base = _base_argv(model, res)
    subparsers = _subparsers()
    assert list(subparsers)[-1] == "summary"  # it reads the others' outputs
    for name, subparser in subparsers.items():
        out = res / f"{name}.out"
        assert run([name] + base[name] + ["--out", str(out)]) == 0, name
        manifest, _, _ = _read_run(str(out))
        assert set(manifest["parameters"]) == _declared(subparser), name
        assert (manifest["model_digest"] == "-") == ("model" not in _declared(subparser))


# The parsed flags of each subcommand, as its manifest records them.  No
# tolerance is among them: each integral runs at one fixed tolerance.
_PARAMETERS = {
    "spheres": {"model", "s_min", "s_max", "n"},
    "imcf": {"model", "s0", "t_max", "dt"},
    "compare-ode": {"b0", "v0", "v_end", "mass_floor", "n"},
    "profile": {"model", "v_min", "v_max", "n", "log_grid"},
    "expansion": {"model", "v_max", "n"},
    "renorm-vol": {"model", "rho"},
    "stability": {"model", "s_min", "s_max", "n"},
    "validate": {"model"},
    "summary": {"results_dir"},
}


@pytest.mark.parametrize("name", sorted(_PARAMETERS))
def test_manifest_holds_no_tolerance(tmp_path, ads_model, name):
    res = tmp_path / "res"
    res.mkdir()
    # summary needs one run to read.
    assert run(["validate", "--model", ads_model, "--out", str(res / "v.json")]) == 0
    out = tmp_path / "run.out"
    assert run([name] + _base_argv(ads_model, res)[name] + ["--out", str(out)]) == 0
    params = set(_read_run(str(out))[0]["parameters"])
    assert params.isdisjoint({"quad_tol", "ode_tol"})
    assert params == _PARAMETERS[name]


# Flags that other subcommands declare, or that no subcommand declares
# any more, but these do not read: each must be rejected, not ignored.
_UNREAD_FLAGS = [
    ("compare-ode", "--model"),
    ("summary", "--model"),
    # The scaled gap takes the renormalized volume's limit, not V(rho).
    ("profile", "--rho"),
    ("expansion", "--rho"),
] + [
    # Every tolerance is fixed.
    (name, flag)
    for flag in ("--quad-tol", "--ode-tol")
    for name in (
        "spheres", "imcf", "compare-ode", "profile", "expansion",
        "renorm-vol", "stability", "validate", "summary",
    )
]


@pytest.mark.parametrize("name, flag", _UNREAD_FLAGS)
def test_a_flag_the_subcommand_does_not_read_exits_one(capsys, tmp_path, ads_model, name, flag):
    argv = _base_argv(ads_model, tmp_path)[name]
    value = {"--model": ads_model, "--rho": "20"}.get(flag, "1e-3")
    assert run([name] + argv + [flag, value]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


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

    def test_header_only_table_has_empty_columns(self, tmp_path, hyp_model):
        path = tmp_path / "spheres.csv"
        assert run(["spheres", "--model", hyp_model, "--n", "2", "--out", str(path)]) == 0
        path.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n")
        manifest, kind, data = _read_run(str(path))
        assert (manifest["subcommand"], kind) == ("spheres", "csv")
        assert list(data) == ["s", "rho", "area", "H", "Ric_nu", "K", "R",
                              "hawking_mass", "stability_total"]
        assert all(col.shape == (0,) for col in data.values())

    def test_non_numeric_cell_is_skipped(self, tmp_path, hyp_model):
        path = tmp_path / "spheres.csv"
        assert run(["spheres", "--model", hyp_model, "--n", "2", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        lines[-1] = "x" + lines[-1][lines[-1].index(","):]
        path.write_text("\n".join(lines) + "\n")
        assert _read_run(str(path)) is None

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
