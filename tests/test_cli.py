"""Command-line surface, exercised in process through run()."""

import argparse
import contextlib
import errno
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import ahiso.cli as cli
from ahiso.cli import (
    _build_parser,
    _load_model,
    _metric_from_model_dict,
    _parse,
    _read_run,
    emit_summary,
    run,
)
from ahiso.imcf import flow_spheres
from ahiso.models import default_grid, make_ads_schwarzschild, rho_from_s
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

    def test_spheres_across_a_wide_gap(self, capsys, ads_model):
        # Two rows, 1.1 and 1e100: one panel between them saw none of the
        # integrand and put rho(1.1) at 0.95035 instead of 0.71187.
        out = _capture(capsys, ["spheres", "--model", ads_model, "--s-max", "1e100", "--n", "2"])
        _, _, body = _parse_csv(out)
        s, rho = body[0, 0], body[0, 1]
        assert abs(rho - rho_from_s(make_ads_schwarzschild(1.0), s)) <= 1e-12

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


def _child_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class _NoSpaceAfter:
    """A text file whose write keeps the first ``n`` characters, then fails
    as a full disk does."""

    def __init__(self, fh, n):
        self._fh, self._n = fh, n

    def write(self, text):
        self._fh.write(text[: self._n])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


class TestRewriteInPlace:
    """An existing --out file is written over and cut to the new length."""

    def _spheres(self, model, n, out=None):
        argv = ["spheres", "--model", model, "--n", str(n)]
        return argv + ["--out", str(out)] if out else argv

    def test_shorter_table_leaves_no_stale_tail(self, capsys, tmp_path, ads_model):
        dest, link = tmp_path / "x.csv", tmp_path / "link.csv"
        assert run(self._spheres(ads_model, 50, dest)) == 0
        inode = dest.stat().st_ino
        os.link(dest, link)
        via = tmp_path / "via.csv"
        via.symlink_to(dest)
        assert run(self._spheres(ads_model, 3, via)) == 0
        body = _capture(capsys, self._spheres(ads_model, 3)).split("\n", 1)[1]
        text = dest.read_text()
        manifest, _, rows = _parse_csv(text)
        assert manifest["parameters"]["n"] == 3 and rows.shape == (3, 9)
        assert text.split("\n", 1)[1] == body
        assert dest.stat().st_ino == inode and link.read_text() == text
        assert via.is_symlink()

    def test_new_file_mode_follows_the_umask(self, tmp_path, ads_model):
        old = os.umask(0o027)
        try:
            assert run(self._spheres(ads_model, 3, tmp_path / "x.csv")) == 0
        finally:
            os.umask(old)
        assert (tmp_path / "x.csv").stat().st_mode & 0o777 == 0o640

    def test_failed_write_is_cut_where_it_stopped(self, capsys, monkeypatch, tmp_path, ads_model):
        # Without the cut, rows 21 to 50 of the first table would survive
        # behind the new manifest and its partial rows.
        import ahiso.cli

        dest = tmp_path / "x.csv"
        assert run(self._spheres(ads_model, 50, dest)) == 0
        new = self._spheres(ads_model, 20, dest)
        body = _capture(capsys, new[:-2]).split("\n", 1)[1]
        keep = len(body) * 2 // 3
        monkeypatch.setattr(
            ahiso.cli, "open", lambda *a, **k: _NoSpaceAfter(open(*a, **k), keep),
            raising=False,
        )
        assert run(new) == 1
        monkeypatch.undo()
        assert "cannot write output file" in capsys.readouterr().err
        text = dest.read_text()
        assert len(text) == keep and body.startswith(text.split("\n", 1)[1])
        got = _read_run(str(dest))
        assert got is None or (
            got[0]["parameters"]["n"] == 20 and got[1]["area"].size < 20
        )

    def test_file_size_limit_cuts_at_the_limit(self, tmp_path, ads_model):
        # A real partial write: past RLIMIT_FSIZE the kernel refuses the
        # rest with EFBIG (Python ignores SIGXFSZ), after the buffered
        # layer has written what fits.
        import resource

        dest = tmp_path / "x.csv"
        assert run(self._spheres(ads_model, 50, dest)) == 0
        limit = dest.stat().st_size // 4
        env = _child_env()
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        child = subprocess.run(
            [sys.executable, "-m", "ahiso.cli", *self._spheres(ads_model, 20, dest)],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1])
            ),
        )
        assert child.returncode == 1 and "cannot write output file" in child.stderr
        text = dest.read_text()
        assert len(text) == limit
        assert json.loads(text.splitlines()[0][len("# manifest: "):])["parameters"]["n"] == 20
        got = _read_run(str(dest))
        assert got is None or got[1]["area"].size < 20

    def test_dev_null_is_written_without_a_cut(self, ads_model):
        assert run(["validate", "--model", ads_model, "--out", os.devnull]) == 0
        assert run(self._spheres(ads_model, 3, os.devnull)) == 0

    def test_dev_stdout_into_a_pipe_matches_stdout(self, capsys, ads_model):
        body = _capture(capsys, self._spheres(ads_model, 3)).split("\n", 1)[1]
        child = subprocess.run(
            [sys.executable, "-m", "ahiso.cli", *self._spheres(ads_model, 3, "/dev/stdout")],
            capture_output=True, text=True, env=_child_env(), timeout=120, check=True,
        )
        assert child.stdout.split("\n", 1)[1] == body

    def test_fifo_reader_gets_the_whole_table(self, capsys, tmp_path, ads_model):
        body = _capture(capsys, self._spheres(ads_model, 20)).split("\n", 1)[1]
        fifo = tmp_path / "table.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        assert run(self._spheres(ads_model, 20, fifo)) == 0
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert got[0].split("\n", 1)[1] == body

    def test_directory_is_refused(self, capsys, tmp_path, ads_model):
        assert run(self._spheres(ads_model, 3, tmp_path)) == 1
        assert "error: cannot write output file" in capsys.readouterr().err


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


@pytest.mark.parametrize("model", list(_extreme_model_files()), ids=repr)
def test_validate_sweeps_extreme_model_files(capsys, tmp_path, model):
    # A valid model gets a report (exit 0, or 1 when it is not AH) and a
    # core above which f > 0; an invalid one exits 1 naming the offending
    # number, never 2 or with an exception.  ads m = 1e300 (core 1.26e100)
    # and m = 1e308 (-2m overflows) used to exit 2, and ads m = 5e-324
    # passed with core 0 although f(5e-324) = -1.  No overflow warning is
    # forgiven: c_2 = 1e308 overflowed only in a decay fit that is gone.
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
            (["--s-max", "inf"], "--s-max must exceed --s-min and be finite"),
            (["--n", "0"], "--n must be positive"),
        ],
    )
    def test_bad_radius_grid(self, capsys, ads_model, subcommand, flags, message):
        assert run([subcommand, "--model", ads_model] + flags) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, mass",
        [("spheres", 6e8), ("stability", 6e8), ("spheres", 1e300), ("stability", 1e300)],
    )
    def test_default_radius_grid_scales_with_the_core(
        self, capsys, tmp_path, subcommand, mass
    ):
        # Omitted ends are default_grid's, core + 0.1 max(1, core) and
        # max(1e3, 1e3 core).  Fixed ends core + 0.1 and 1e3 made these
        # exit 1: core 1062.7 lies above 1e3, and at core 1.26e100,
        # core + 0.1 == core.  spheres at m = 1e300 then overflowed in the
        # gap element of its rho column (a RuntimeWarning).
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

    def test_exhausted_quadrature_budget_exits_two(self, capsys, tmp_path, ads_model, monkeypatch):
        # A budget of one Gauss-Kronrod panel cannot meet the 1e-13
        # tolerance of the integrals behind V.
        import ahiso.numerics

        monkeypatch.setattr(ahiso.numerics, "_MAX_EVALS", 15)
        rc = run(["renorm-vol", "--model", ads_model])
        assert rc == 2
        # Here a semi-infinite tail stalls above its relative target
        # 1e-13 |value|; the message named its abs_tol, "target 1.000e-300".
        path = tmp_path / "pert.json"
        path.write_text(json.dumps({"type": "perturbed", "mass": 0.66, "coeffs": [4.3, -2.6, 1.3]}))
        monkeypatch.setattr(ahiso.numerics, "_MAX_EVALS", 105)
        capsys.readouterr()
        assert run(["renorm-vol", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert "target 1.000e-300" not in err
        assert "the larger of abs_tol and 1e-13 |value|)" in err

    def test_unwritable_out_path(self, tmp_path, hyp_model):
        dest = tmp_path / "missing_dir" / "x.csv"
        assert run(["spheres", "--model", hyp_model, "--out", str(dest)]) == 1

    def test_no_subcommand(self):
        assert run([]) == 1

    @pytest.mark.parametrize("subcommand", ["spheres", "stability"])
    @pytest.mark.parametrize(
        "s_max, rc", [("1e151", 0), ("1.0000000000000001e151", 1), ("1e152", 1), ("4e153", 1)]
    )
    def test_huge_s_max_is_refused_by_name(self, capsys, tmp_path, subcommand, s_max, rc):
        # On pert(0.5, [0.2]), spheres --s-max 5e151 and stability --s-max
        # 4e153 overflowed in a multiply (a RuntimeWarning escaping run)
        # where 1e151 and 3e153 exit 0.
        path = tmp_path / "pert.json"
        path.write_text(json.dumps({"type": "perturbed", "mass": 0.5, "coeffs": [0.2]}))
        assert run([subcommand, "--model", str(path), "--n", "3", "--s-max", s_max]) == rc
        refused = "--s-max must be at most 1e+151" in capsys.readouterr().err
        assert refused == (rc == 1)

    @pytest.mark.parametrize(
        "argv",
        [
            ["imcf", "--s0", "2", "--t-max", "inf"],
            ["imcf", "--s0", "2", "--t-max", "1e308", "--dt", "0.5"],
            ["renorm-vol", "--rho", "711"],
            ["profile", "--v-min", "1e308"],
            # 8e300 samples are refused before any grid is allocated.
            ["imcf", "--s0", "2", "--t-max", "8", "--dt", "1e-300"],
            # The first tail from sinh(350) overflowed in the gap element.
            ["renorm-vol", "--rho", "350"],
        ],
    )
    def test_out_of_range_input_exits_one(self, capsys, ads_model, argv):
        assert run(argv + ["--model", ads_model]) == 1
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, argv, column",
        [
            ({"type": "hyperbolic"}, ["spheres", "--s-min", "1e-160"], "K"),
            ({"type": "hyperbolic"}, ["stability", "--s-min", "1e-160"], "stability_total"),
            ({"type": "perturbed", "mass": 0, "coeffs": [1]}, ["spheres", "--s-min", "1e-80"], "Ric_nu"),
            ({"type": "perturbed", "mass": 0, "coeffs": [1]}, ["stability", "--s-min", "1e-80"], "stability_total"),
            ({"type": "perturbed", "mass": 0, "coeffs": [1]}, ["imcf", "--s0", "1e-300"], "hawking"),
        ],
        ids=["hyp-spheres", "hyp-stability", "pert-spheres", "pert-stability", "pert-imcf"],
    )
    def test_overflowing_closed_form_column_is_named(self, capsys, tmp_path, model, argv, column):
        # K = 1/s^2, R + 6 = 2 s^-4 and the deficit s^-2 overflow at these
        # radii: a RuntimeWarning escaped run under error::RuntimeWarning.
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert run(argv + ["--model", str(path)]) == 2
        assert f"column {column!r} holds a non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["profile", "expansion"])
    def test_infinite_v_max_is_refused_by_name(self, capsys, ads_model, subcommand):
        # An infinite end used to reach the volume grid, whose invalid-value
        # warning escaped run() under error::RuntimeWarning.
        assert run([subcommand, "--model", ads_model, "--v-max", "inf"]) == 1
        assert "--v-max" in capsys.readouterr().err

    @pytest.mark.parametrize("rho", ["0", "-0.0", "-0.1"])
    def test_nonpositive_truncation_radius_is_refused_by_name(self, capsys, tmp_path, rho):
        # pert(0.5, [0.2]): rho = +-0 died dividing by sinh(0), and -0.1
        # exited 0 with a negative tail estimate.
        path = tmp_path / "pert.json"
        path.write_text(json.dumps({"type": "perturbed", "mass": 0.5, "coeffs": [0.2]}))
        assert run(["renorm-vol", "--model", str(path), "--rho", rho]) == 1
        assert "truncation_rho must be finite and > 0" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "argv, flag",
        [
            # v_max 4^(1 - n): 4^-540 underflowed to 0 although the product
            # does not, and the message named v_grid.
            (["expansion", "--n", "541"], None),
            (["expansion", "--n", "560"], "--n"),
            # Subnormal radii repeat along the flow; the message named s_grid.
            (["imcf", "--s0", "5e-324"], "--s0"),
            # 1/sinh(rho) overflowed in coordinate_gap's tail ("infinite
            # upper limit requires a > 0"); G from below the split is a head
            # integral up to it.
            (["renorm-vol", "--rho", "1e-310"], None),
        ],
        ids=["expansion-n541", "expansion-n560", "imcf-s0", "renorm-vol-rho"],
    )
    def test_flag_at_the_float_range_edge_is_answered_or_named(self, capsys, hyp_model, argv, flag):
        # Each exited 1 with a message that named an internal, not the flag.
        rc = run(argv + ["--model", hyp_model])
        err = capsys.readouterr().err
        if flag is None:
            assert rc == 0, err
        else:
            assert rc == 1
            assert f"error: {flag} " in err


def test_gap_convergence_script_refuses_an_underflowing_n():
    # The script built v_max 4^-k itself, which underflows to 0 past
    # n ~ 538: --n 600 ended in gap_table's "v_grid must be positive and
    # strictly increasing" traceback.  It now takes expansion's grid.
    script = Path(__file__).resolve().parent.parent / "scripts" / "gap_convergence.py"
    child = subprocess.run(
        [sys.executable, str(script), "--n", "600", "--masses", "1.0"],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert child.returncode == 2 and "Traceback" not in child.stderr
    assert "error: --n 600 puts --v-max 4^(1 - n) below the smallest float" in child.stderr


def test_job_memory_script_lists_traced_peaks_largest_first(capsys, monkeypatch):
    # Two small flow jobs in place of the workload's forty.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "scripts"))
    import job_memory

    jobs = [
        job_memory.workloads.Job("imcf", "ads_m1", (("s0", 2.0), ("t-max", 1.0), ("dt", 0.1))),
        job_memory.workloads.Job("imcf", "pert_m1", (("s0", 2.0), ("t-max", 3.0), ("dt", 0.01))),
    ]
    monkeypatch.setattr(job_memory.workloads, "generate", lambda workload, seed, n: jobs)
    assert job_memory.main(["--workload", "flow", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[2:4] for line in lines] == [["job", "001"], ["job", "000"]]
    assert lines[0].endswith("imcf pert_m1 --s0 2.0 --t-max 3.0 --dt 0.01")
    peaks = [float(line.split()[0]) for line in lines]
    assert peaks[0] >= peaks[1] > 0.0


@pytest.mark.parametrize("mass", [1e30, 1e300])
def test_huge_core_tables_exit_zero_without_warning(capsys, tmp_path, mass):
    # With a split at core + 1, m = 1e30 exhausted the quadrature budget
    # (exit 2 after ~20 s) and m = 1e300 divided by zero on the core.  The
    # default rho = 20 lies below the image of a core this large.
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"type": "ads_schwarzschild", "mass": mass}))
    m = ["--model", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["profile"], ["expansion"], ["spheres"], ["renorm-vol", "--rho", "240"]):
            assert run(argv + m) == 0, capsys.readouterr().err
        assert run(["renorm-vol"] + m) == 1
    assert "below the image" in capsys.readouterr().err


def test_huge_core_far_rho_refused_by_name_without_warning(capsys, tmp_path):
    # At ads m = 1e300, rho = 348 puts s past 1.3e154, where s * s
    # overflows in the gap element: it warned "overflow encountered in
    # multiply" (a traceback under error::RuntimeWarning) before the
    # finite check refused the run.
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"type": "ads_schwarzschild", "mass": 1e300}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["renorm-vol", "--rho", "348", "--model", str(path)]) == 2
    assert "integrand not finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model, argv",
    [
        ({"type": "perturbed", "mass": 1, "coeffs": [0, 0, 0.01]}, ["spheres", "--s-max", "1e80", "--n", "5"]),
        ({"type": "perturbed", "mass": 1, "coeffs": [0, 0, 0.01]}, ["spheres", "--s-max", "1e80", "--n", "50"]),
        ({"type": "perturbed", "mass": 1, "coeffs": [0.1, 0.05]}, ["renorm-vol", "--rho", "237.5"]),
        ({"type": "perturbed", "mass": 1, "coeffs": [0.1, 0.05]}, ["renorm-vol", "--rho", "300"]),
        ({"type": "perturbed", "mass": 1, "coeffs": [0.1, 0.05]}, ["renorm-vol", "--rho", "348"]),
    ],
    ids=["spheres-n5", "spheres-n50", "renorm-vol-237.5", "renorm-vol-300", "renorm-vol-348"],
)
def test_far_radii_exit_zero_without_warning(capsys, tmp_path, model, argv):
    # The sweep's relative-target tail at 1e80 (G ~ 3e-241) spent its whole
    # budget (21 s, exit 2), and core_quotient overflowed far above the
    # core in the sweep's and s_from_rho's head chart.
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    start = time.perf_counter()
    assert run(argv + ["--model", str(path)]) == 0, capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


def test_subnormal_coefficient_models(capsys, tmp_path):
    # Both models raised "cannot normalize the reversed polynomial".
    # f = 1 + s^2 + 5e-324 s^-2 > 0 has no core; ads m = 5e-324 has the
    # subnormal core 1e-323, near which its integrands would overflow.
    pert = tmp_path / "pert.json"
    pert.write_text(json.dumps({"type": "perturbed", "mass": 0.0, "coeffs": [5e-324]}))
    ads = tmp_path / "ads.json"
    ads.write_text(json.dumps({"type": "ads_schwarzschild", "mass": 5e-324}))
    argvs = _base_argv(pert, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cmd, argv in argvs.items():
            if "--model" in argv:
                assert run([cmd] + argv) == 0, capsys.readouterr().err
        assert run(["validate", "--model", str(ads)]) == 1
    assert "core radius 1e-323 of the model with mass 5e-324" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model",
    [
        {"type": "ads_schwarzschild", "mass": 1e-150},
        {"type": "ads_schwarzschild", "mass": 1e-300},
        {"type": "perturbed", "mass": 0.0, "coeffs": [-1e-200]},
        {"type": "perturbed", "mass": 0.0, "coeffs": [0.0, 6e10, -0.0333]},
    ],
    ids=["ads-1e-150", "ads-1e-300", "perturbed-1e-200", "balanced-core-5.55e-13"],
)
def test_tiny_core_profile_tables_exit_zero_without_warning(capsys, tmp_path, model):
    # The volume inversion evaluated its near-core start for every row; at
    # such a core the element there underflows to 0, or core_quotient(0)
    # divided by an underflowed power of the core.  On the balanced core,
    # where two tail terms cancel, core_quotient's divided-difference terms
    # cancelled to 0 at delta = 1: spheres, profile, expansion and
    # renorm-vol warned in sqrt, and imcf found its integrand not finite.
    # Every other subcommand with a model runs on each model too.
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    imcf = ["imcf", "--s0", "2", "--t-max", "2", "--dt", "0.25"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["profile"], ["expansion"], ["validate"], ["renorm-vol"],
                     ["spheres"], ["stability"], imcf):
            assert run(argv + ["--model", str(path)]) == 0, capsys.readouterr().err


@pytest.mark.parametrize(
    "model",
    [
        {"type": "ads_schwarzschild", "mass": 1e-300},
        {"type": "perturbed", "mass": 0.0, "coeffs": [-1e-200]},
    ],
    ids=["ads-1e-300", "perturbed-1e-200"],
)
def test_tiny_volumes_at_a_tiny_core_are_answered(capsys, tmp_path, model):
    # Volumes from 5e-324 put (s core)^k below the normal floats.  The
    # per-batch ladder warned in its overflow probe (ads m = 1e-300, then
    # "bracket closed") and at density(0) (the perturbed model), and was
    # then made to refuse such volumes by name.
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    argv = ["profile", "--model", str(path), "--v-min", "5e-324", "--v-max", "1e-200", "--n", "5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, body = _parse_csv(_capture(capsys, argv))
    v, a_g, a_h = body[:, 0], body[:, 1], body[:, 2]
    if model["type"] == "ads_schwarzschild":
        # A mass of 1e-300 moves no volume above 5e-324 by a rounding.
        assert np.all(np.abs(a_g - a_h) <= 2.0 * np.spacing(a_h))
        return
    # The core is 1e-100: the smallest volume's region is the horizon, and
    # for s^2 << 1, f ~ 1 - c / s^2 holds
    # V(s) = 2 pi [2/3 (s^2 - c)^(3/2) + 2 c (s^2 - c)^(1/2)], c = 1e-200.
    assert a_g[0] == FOUR_PI * 1e-200
    x = a_g[1:] / FOUR_PI - 1e-200
    want = 2.0 * math.pi * (2.0 / 3.0 * x**1.5 + 2e-200 * np.sqrt(x))
    assert np.allclose(want, v[1:], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize(
    "model, v_min",
    [({"type": "ads_schwarzschild", "mass": 1.0}, "1e-320"), ({"type": "hyperbolic"}, "5e-324")],
    ids=["ads-m1-1e-320", "hyperbolic-5e-324"],
)
def test_subnormal_volumes_on_a_stock_core_converge(capsys, tmp_path, model, v_min):
    # Newton's stop test |step| <= 1e-10 |t| is 0 at a subnormal iterate,
    # which rounding keeps from being met: "still active after 64 rounds".
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    argv = ["profile", "--model", str(path), "--v-min", v_min, "--v-max", "1", "--n", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, body = _parse_csv(_capture(capsys, argv))
    assert body[0, 0] == float(v_min)
    if model["type"] == "hyperbolic":
        # The volumes and the element are scaled by 2^p to normal floats;
        # unscaled sums of the lattice's panels gave A_g = 1.08e-215 here.
        assert abs(body[0, 1] - body[0, 2]) <= 4.0 * np.spacing(body[0, 2])
    else:
        # Below v ~ 1e-150 the region is the horizon, of area 4 pi core^2.
        assert body[0, 1] == FOUR_PI


def test_ladder_climbs_to_a_far_radius(capsys, tmp_path):
    # f ~ c_2 / s^2 puts s_v near (v sqrt(c_2) / pi)^(1/4) ~ 1e56, more than
    # 80 doublings above the first guess: "failed to bracket s".  There
    # the volume is pi s^4 / sqrt(c_2), so A_g = 4 sqrt(pi v) c_2^(1/4).  With
    # --v-max 1e150 the per-batch ladder left the row at 1e75 in a bracket
    # 16 decades wide: "still active after 64 rounds".
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"type": "perturbed", "mass": 0.0, "coeffs": [1e220]}))
    for argv in (["profile"], ["expansion"], ["profile", "--v-max", "1e150"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, body = _parse_csv(_capture(capsys, argv + ["--model", str(path), "--n", "3"]))
        v, a_g = body[:, 0], body[:, 1]
        near = v <= 1e75
        assert near.sum() >= 2
        assert np.allclose(a_g[near], 4.0 * np.sqrt(math.pi * v[near]) * 1e55, rtol=1e-9)


def test_a_far_first_bracket_converges(capsys, tmp_path):
    # f ~ 1 / s^2 near s = 0 holds V = pi s^4 there, so A_g = 4 sqrt(pi v).
    # The per-batch ladder bracketed s_v = 7.5e-76 between the guess 6.2e-101
    # and the next rung, 5.5e-15: "still active after 64 rounds".
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"type": "perturbed", "mass": 0.0, "coeffs": [1.0]}))
    argv = ["profile", "--model", str(path), "--v-min", "1e-300", "--n", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, body = _parse_csv(_capture(capsys, argv))
    assert body[0, 0] == 1e-300
    assert body[0, 1] == pytest.approx(4.0 * math.sqrt(math.pi * 1e-300), rel=1e-12)


def test_far_flow_volumes_match_the_closed_form(capsys, hyp_model):
    # Each row's volume is the start volume plus the flow's increments.  One
    # GK15 panel from 0 to s0 put the start 39.49 high (2.5e-11 relative),
    # with an error bound of 0.13.
    argv = ["imcf", "--model", hyp_model, "--s0", "5.01e5", "--t-max", "1", "--dt", "0.5"]
    _, header, body = _parse_csv(_capture(capsys, argv))
    s, vol = body[:, header.index("s")], body[:, header.index("volume")]
    want = 2.0 * math.pi * (s * np.sqrt(1.0 + s * s) - np.arcsinh(s))
    assert np.all(np.abs(vol - want) <= 1e-13 * want)


def test_overflowing_flow_is_a_numeric_failure(capsys, ads_model):
    # The radius grows like e^{t/2} and overflows near t = 1418: math.fsum
    # refused the infinite stages with "error: -inf + inf in fsum" (exit 1).
    argv = ["imcf", "--model", ads_model, "--s0", "2", "--t-max", "2000", "--dt", "100"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: solve_ode: ")
    assert "x=" in err and "h=" in err


@pytest.mark.parametrize(
    "coeffs", [[1, -2, 4], [1.3, -2.9, 5.6], [1, -2.5, 5]], ids=repr
)
@pytest.mark.parametrize(
    "subcommand", ["validate", "profile", "expansion", "spheres", "stability", "renorm-vol"]
)
def test_bent_tail_models_run_every_table(capsys, tmp_path, subcommand, coeffs):
    # R + 6 > 0 everywhere on these models (see test_models.py), whose tails
    # a log-log fit once read as decaying slower than s^-2: validate,
    # profile and expansion refused them with exit 1.
    path = tmp_path / "bent.json"
    path.write_text(json.dumps({"type": "perturbed", "mass": 0.1, "coeffs": coeffs}))
    rc = run([subcommand, "--model", str(path)])
    out, err = capsys.readouterr()
    assert rc == 0, err
    if subcommand == "validate":
        assert json.loads(out)["decay_exponent_estimate"] == 2.0


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
    # or 2 without an exception escaping.  nan and inf must be refused
    # before numpy warns, and so must --s-max 1e308, above its bound
    # 1e151; other flags at 1e308 run with warnings off, since they
    # may still overflow on the way to exit 2.
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
                quiet = value == "1e308" and flag != "--s-max"
                with np.errstate(all="ignore") if quiet else contextlib.nullcontext():
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
        manifest, _ = _read_run(str(out))
        assert set(manifest["parameters"]) == _declared(subparser), name
        assert (manifest["model_digest"] == "-") == ("model" not in _declared(subparser))


# The parsed flags of each subcommand, as its manifest records them.  No
# tolerance is among them: each integral runs at one fixed tolerance.
_PARAMETERS = {
    "spheres": {"model", "s_min", "s_max", "n"},
    "imcf": {"model", "s0", "t_max", "dt"},
    "compare-ode": {"b0", "v0", "v_end", "mass_floor", "n"},
    "profile": {"model", "v_min", "v_max", "n"},
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
    # The profile grid is always log-spaced.
    ("profile", "--log-grid"),
    ("profile", "--no-log-grid"),
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


def _both_hops(monkeypatch, call):
    """call() as is, then with every argv sent through the top-level parser."""
    first = call()
    with monkeypatch.context() as patch:
        patch.setattr(_build_parser(), "subcommands", {})
        return first, call()


def test_one_hop_parse_matches_the_top_level_parser(tmp_path, monkeypatch):
    # For every subcommand, the namespace of its own parser, with
    # subcommand set, is the top-level parser's, and so are the manifest
    # parameters of the run.
    model = tmp_path / "ads_m1.json"
    model.write_text(json.dumps({"type": "ads_schwarzschild", "mass": 1.0}))
    res = tmp_path / "res"
    res.mkdir()
    assert run(["validate", "--model", str(model), "--out", str(res / "v.json")]) == 0
    for name, tail in _base_argv(model, res).items():
        out = tmp_path / f"{name}.out"
        argv = [name] + tail + ["--out", str(out)]
        args = _parse(argv)
        assert args == _build_parser().parse_args(argv), name
        assert args.subcommand == name
        one, two = _both_hops(
            monkeypatch, lambda: (run(argv), _read_run(str(out))[0]["parameters"])
        )
        assert one == two and one[0] == 0, name


@pytest.mark.parametrize(
    "argv, rc, message",
    [
        ([], 1, "the following arguments are required: subcommand"),
        (["bogus"], 1, "invalid choice: 'bogus'"),
        (["spheres", "--model", "m.json", "--bogus"], 1, "unrecognized arguments: --bogus"),
        (["spheres", "--n", "3"], 1, "the following arguments are required: --model"),
        (["--n", "3"], 1, "invalid choice: '3'"),
        (["-h"], 0, "usage: ahiso [-h]"),
        (["spheres", "-h"], 0, "usage: ahiso spheres [-h]"),
    ],
)
def test_parse_errors_keep_their_exit_codes_and_messages(capsys, monkeypatch, argv, rc, message):
    def call():
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out + err

    one, two = _both_hops(monkeypatch, call)
    assert one == two
    assert one[0] == rc and message in one[1]


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
        child = subprocess.run(
            [sys.executable, "-m", "ahiso.cli", *argv],
            capture_output=True, text=True, env=_child_env(), timeout=120, check=True,
        )
        assert child.stdout.split("\n", 1)[1] == here.split("\n", 1)[1]

    def test_subprocess_numeric_failure_exits_two(self, ads_model):
        # main() passes run's exit code 2 to the process.  The flow's radius
        # grows like e^{t/2}; from s0 = 1e300 it overflows near t = 35, in
        # ~3,300 steps (from s0 = 2, near t = 1418, in process:
        # test_overflowing_flow_is_a_numeric_failure).
        argv = ["imcf", "--model", ads_model, "--s0", "1e300", "--t-max", "2000", "--dt", "100"]
        child = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "ahiso.cli", *argv],
            capture_output=True, text=True, env=_child_env(), timeout=120,
        )
        assert child.returncode == 2
        assert child.stderr.startswith("numeric failure: solve_ode: ")


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


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One small well-formed output of each subcommand a criterion reads,
    for ads m = 1, by file name."""
    root = tmp_path_factory.mktemp("outputs")
    model = root / "ads_m1.json"
    model.write_text(json.dumps({"type": "ads_schwarzschild", "mass": 1.0}))
    argv = _base_argv(model, root)
    names = {"spheres": "spheres.csv", "stability": "stability.csv", "imcf": "imcf.csv",
             "compare-ode": "compare.csv", "profile": "profile.csv", "renorm-vol": "renorm.json"}
    for sub, name in names.items():
        assert run([sub] + argv[sub] + ["--out", str(root / name)]) == 0
    return {name: (root / name).read_text() for name in names.values()}


def _drop_column(column):
    def edit(text):
        manifest, header, *rows = text.splitlines()
        i = header.split(",").index(column)
        cut = [",".join(c for j, c in enumerate(line.split(",")) if j != i)
               for line in [header, *rows]]
        return "\n".join([manifest, *cut]) + "\n"
    return edit


def _drop_key(key):
    def edit(text):
        obj = json.loads(text)
        del obj[key]
        return json.dumps(obj)
    return edit


def _edit_manifest(change):
    def edit(text):
        first, rest = text.split("\n", 1)
        manifest = json.loads(first[len("# manifest: "):])
        change(manifest)
        return "# manifest: " + json.dumps(manifest) + "\n" + rest
    return edit


# A malformed result file, how it is made from a well-formed one, and the
# well-formed output beside it; each stopped summary with the error named.
_MALFORMED = {
    "stability-without-lambda_2": ("stability.csv", _drop_column("lambda_2"), "profile.csv"),  # KeyError
    "compare-ode-without-A_H": ("compare.csv", _drop_column("A_H"), "profile.csv"),  # KeyError
    "imcf-without-hawking": ("imcf.csv", _drop_column("hawking"), "profile.csv"),  # KeyError
    # KeyError in _summarize_gap_limit, which pairs it with the profile.
    "renorm-vol-without-value": ("renorm.json", _drop_key("value"), "profile.csv"),
    "parameters-a-list": (  # AttributeError
        "spheres.csv", _edit_manifest(lambda m: m.update(parameters=[])), "profile.csv"
    ),
    "subcommand-a-list": (  # TypeError: unhashable
        "spheres.csv", _edit_manifest(lambda m: m.update(subcommand=["spheres"])), "profile.csv"
    ),
    "model-without-mass": (  # KeyError
        "spheres.csv", _edit_manifest(lambda m: m["parameters"]["model"].pop("mass")), "profile.csv"
    ),
    "model-digest-a-list": (  # TypeError: unhashable, in _summarize_gap_limit
        "profile.csv", _edit_manifest(lambda m: m.update(model_digest=["-"])), "renorm.json"
    ),
    "mass-past-the-float-range": (  # OverflowError: an integer no float holds
        "spheres.csv", _edit_manifest(lambda m: m["parameters"]["model"].update(mass=10**400)),
        "profile.csv",
    ),
}


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

    @pytest.mark.parametrize("case", list(_MALFORMED))
    def test_malformed_file_is_not_counted(self, capsys, tmp_path, outputs, case):
        name, edit, beside = _MALFORMED[case]
        res = tmp_path / "res"
        res.mkdir()
        (res / name).write_text(edit(outputs[name]))
        assert run(["summary", str(res)]) == 1
        assert "no recognizable result files" in capsys.readouterr().err
        (res / beside).write_text(outputs[beside])
        doc = emit_summary(str(res))
        assert doc["n_runs"] == 1
        assert _capture(capsys, ["summary", str(res)]).startswith("{")
        (res / name).unlink()
        assert doc == emit_summary(str(res))

    @pytest.mark.parametrize(
        "name", ["spheres.csv", "stability.csv", "imcf.csv", "compare.csv", "profile.csv"]
    )
    def test_header_only_table_counts_but_measures_nothing(self, capsys, tmp_path, outputs, name):
        # Such a table stopped summary: imcf's with an IndexError, and
        # spheres', stability's and profile's on a zero-size maximum.
        res = tmp_path / "res"
        res.mkdir()
        (res / name).write_text("\n".join(outputs[name].splitlines()[:2]) + "\n")
        doc = json.loads(_capture(capsys, ["summary", str(res)]))
        assert doc["n_runs"] == 1
        assert set(doc["verdicts"].values()) == {"missing"}

    def test_header_only_table_has_empty_columns(self, tmp_path, monkeypatch, hyp_model):
        path = tmp_path / "spheres.csv"
        assert run(["spheres", "--model", hyp_model, "--n", "2", "--out", str(path)]) == 0
        path.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n")
        columns = ("s", "rho", "area", "H", "Ric_nu", "K", "R", "hawking_mass", "stability_total")
        monkeypatch.setitem(cli._CHECKED, "spheres", columns)
        manifest, data = _read_run(str(path))
        assert manifest["subcommand"] == "spheres"
        assert list(data) == list(columns)
        assert all(col.shape == (0,) for col in data.values())

    def test_non_numeric_cell_is_skipped(self, tmp_path, monkeypatch, hyp_model):
        path = tmp_path / "spheres.csv"
        assert run(["spheres", "--model", hyp_model, "--n", "2", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        lines[-1] = "x" + lines[-1][lines[-1].index(","):]
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setitem(cli._CHECKED, "spheres", tuple(lines[1].split(",")))
        assert _read_run(str(path)) is None

    @pytest.mark.parametrize("suite", ["hyp_suite", "ads_suite"])
    def test_checked_columns_give_the_summary_of_full_reads(
        self, request, tmp_path, monkeypatch, suite
    ):
        # Every subcommand's output, the summary's own among them: reading
        # every column of every table, and every float of every JSON
        # object, changes no criterion, so _CHECKED declares all that the
        # criteria read.
        res = tmp_path / "res"
        shutil.copytree(request.getfixturevalue(suite), res)
        assert run(["summary", str(res), "--out", str(res / "summary.json")]) == 0
        checked = emit_summary(str(res))
        assert checked["n_runs"] == 9
        for path in res.iterdir():
            text = path.read_text()
            if text.startswith("# manifest: "):
                manifest, header = text.splitlines()[:2]
                sub = json.loads(manifest[len("# manifest: "):])["subcommand"]
                names = header.split(",")
            else:
                obj = json.loads(text)
                sub = obj["manifest"]["subcommand"]
                names = [key for key, val in obj.items() if type(val) is float]
            monkeypatch.setitem(cli._CHECKED, sub, tuple(names))
        assert checked == emit_summary(str(res))

    def test_only_checked_columns_are_converted(self, tmp_path, hyp_model):
        path = tmp_path / "spheres.csv"
        assert run(["spheres", "--model", hyp_model, "--n", "3", "--out", str(path)]) == 0
        _, data = _read_run(str(path))
        assert list(data) == ["area", "K", "R", "hawking_mass"]
        assert all(col.shape == (3,) for col in data.values())

    @pytest.mark.parametrize(
        "edit, counted",
        [
            # The last row cut short, or one cell too many.
            (lambda cells: cells[:-1], False),
            (lambda cells: cells + ["1.0"], False),
            # A non-numeric cell in a checked column, and in one no
            # criterion reads.
            (lambda cells: cells[:2] + ["x"] + cells[3:], False),
            (lambda cells: ["x"] + cells[1:], True),
        ],
        ids=["short-row", "long-row", "checked-x", "unchecked-x"],
    )
    def test_checked_read_skips_ragged_and_non_numeric_tables(
        self, tmp_path, hyp_model, edit, counted
    ):
        path = tmp_path / "spheres.csv"
        assert run(["spheres", "--model", hyp_model, "--n", "3", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[1].split(",")[2] == "area"
        lines[-1] = ",".join(edit(lines[-1].split(",")))
        path.write_text("\n".join(lines) + "\n")
        assert (_read_run(str(path)) is not None) == counted

    @pytest.mark.parametrize(
        "text", ["# manifest: [1]\na,b\n1,2\n", '{"manifest": 3, "value": 1.0}\n']
    )
    def test_a_manifest_that_is_not_an_object_is_skipped(self, capsys, tmp_path, hyp_model, text):
        # Such a file stopped summary with an AttributeError.
        res = tmp_path / "res"
        res.mkdir()
        (res / "odd.out").write_text(text)
        assert run(["validate", "--model", hyp_model, "--out", str(res / "v.json")]) == 0
        assert json.loads(_capture(capsys, ["summary", str(res)]))["n_runs"] == 1

    def test_two_row_flow_is_summarized(self, capsys, tmp_path, ads_model):
        # The time bound takes central differences over three samples; a
        # two-row flow still reports the area law and the mass decrease.
        res = tmp_path / "res"
        res.mkdir()
        argv = ["imcf", "--model", ads_model, "--s0", "2", "--t-max", "0.5",
                "--dt", "0.5", "--out", str(res / "imcf.csv")]
        assert run(argv) == 0
        doc = json.loads(_capture(capsys, ["summary", str(res)]))
        flow = doc["criteria"]["flow_laws"]
        assert flow["status"] == "pass"
        assert set(flow["measured"]) == {"area_law", "mass_decrease"}

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
