#!/usr/bin/env python3
"""Run random validated models through the CLI and tally the outcomes.

    python3 scripts/fuzz_models.py --seed 5 --count 60 --timeout 30

The models come from a seeded scan: the mass is 0 or 10^U(-3, 1) (even
odds), and 1 to 4 tail coefficients are each 0 with probability 0.2,
else +-10^U(-4, 11).  A draw is kept when ``make_perturbed`` accepts it
and ``validate_ah`` passes, until ``--count`` are kept; its core may be 0.
Each kept model runs ``spheres --n 5``, ``profile --n 5`` and the
float-range ``profile --v-min 1e-300 --v-max 1e12 --n 7``, each in a
child process under ``-W error::RuntimeWarning`` with the package
imported from this checkout's ``src/``, stopped after ``--timeout``
seconds.  An outcome is ``ok`` (exit 0), ``exit 1`` or ``exit 2`` (a
refusal or a numeric failure, by name), ``traceback`` or ``timeout``.
One line per (run, outcome) class, the run named by all its flags,
gives its count, one model that reproduces it and the last line of
that run's stderr.  The script exits 1 if any run ended in a
``traceback`` or a ``timeout``, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from ahiso.models import make_perturbed, validate_ah  # noqa: E402

RUNS = (
    ["spheres", "--n", "5"],
    ["profile", "--n", "5"],
    ["profile", "--v-min", "1e-300", "--v-max", "1e12", "--n", "7"],
)


def scan(seed: int):
    """The validated models of the scan at ``seed``, in order, without end."""
    rng = random.Random(seed)
    while True:
        mass = 0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-3.0, 1.0)
        coeffs = [
            0.0 if rng.random() < 0.2 else rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-4.0, 11.0)
            for _ in range(rng.randint(1, 4))
        ]
        try:
            metric = make_perturbed(mass, coeffs)
        except ValueError:
            continue
        if validate_ah(metric).is_ah:
            yield {"type": "perturbed", "mass": mass, "coeffs": coeffs}


def outcome(argv: list[str], timeout: float) -> tuple[str, str]:
    """The outcome class of one CLI run and the last line of its stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "ahiso.cli", *argv]
    try:
        child = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", f"still running after {timeout:g} s"
    last = (child.stderr.strip().splitlines() or [""])[-1]
    if child.returncode == 0:
        return "ok", ""
    if "Traceback" in child.stderr:
        return "traceback", last
    return f"exit {child.returncode}", last


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--count", type=int, default=60, help="models to keep")
    parser.add_argument("--timeout", type=float, default=30.0, help="seconds per run")
    args = parser.parse_args()
    if args.count < 1 or not args.timeout > 0.0:
        parser.error("--count and --timeout must be positive")

    classes: dict[tuple[str, str], list] = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        for model in itertools.islice(scan(args.seed), args.count):
            path.write_text(json.dumps(model))
            for argv in RUNS:
                what, message = outcome([*argv, "--model", str(path), "--out", os.devnull], args.timeout)
                entry = classes.setdefault((" ".join(argv), what), [0, model, message])
                entry[0] += 1

    print(f"seed {args.seed}: {args.count} validated models, core >= 0")
    for (run, what), (n, model, message) in sorted(classes.items()):
        print(f"{run:52s} {what:9s} {n:4d}  {json.dumps(model)}  {message}".rstrip())
    return 1 if any(what in ("traceback", "timeout") for _, what in classes) else 0


if __name__ == "__main__":
    sys.exit(main())
