"""Cold start: no route loads scipy.

Each check runs in a fresh interpreter, because this test process may
have imported scipy itself and would hide a module-level import.  `import
axiwave`, a spectral `propagate` of every kind, rk4, a beam `boost`,
`transform` and `verify` need numpy alone, and no module of the package
imports scipy.  The default `verify` and `propagate` (every kind, and
rk4) run clean with every warning an error.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import axiwave
from axiwave.fileio import write_beams_json, write_state_csv
from axiwave.grids import SpectralProfile, convert_rep, gaussian_packet, \
    make_grid
from axiwave.relativity import BeamState
from axiwave.verify import run_verification

# runs each (label, argv) step through `cli.main` and prints, per step,
# the exit code and the scipy modules loaded so far
_CHILD = """
import json, sys

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

import axiwave
rows = [["import axiwave", 0, scipy_modules()]]
from axiwave import cli
for label, argv in json.loads(sys.argv[1]):
    rows.append([label, cli.main(argv), scipy_modules()])
print(json.dumps(rows))
"""


def _fresh(args, cwd):
    """`python *args` in a fresh interpreter that imports this package."""
    src = str(Path(axiwave.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def _run_fresh(steps, cwd):
    done = _fresh(["-c", _CHILD, json.dumps(steps)], cwd)
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout.strip().splitlines()[-1])
    return {label: (code, set(mods)) for label, code, mods in rows}


@pytest.fixture(scope="module")
def spectral_and_rk4(tmp_path_factory):
    out = tmp_path_factory.mktemp("cold")
    steps = [[kind, ["propagate", "--kind", kind, "--grid-size", "64",
                     "--out", str(out / kind)]]
             for kind in ("scalar", "wave", "weyl", "maxwell")]
    steps.append(["rk4", ["propagate", "--method", "rk4", "--grid-size", "32",
                          "--t-max", "1", "--out", str(out / "rk4")]])
    return _run_fresh(steps, out)


@pytest.fixture(scope="module")
def file_routes(tmp_path_factory):
    out = tmp_path_factory.mktemp("cold")
    grid = make_grid(64, 12.0)
    write_state_csv(convert_rep(gaussian_packet(grid, 3.0, width=3.0), "f"),
                    out / "state.csv")
    kap = grid.conjugate().nodes
    vals = np.where(kap > 0, np.exp(-((kap - 3.0) ** 2)), 0.0).astype(complex)
    write_beams_json([BeamState(np.array([0.0, 0.6, 0.8]),
                                SpectralProfile(grid.conjugate(), vals))],
                     out / "beams.json")
    steps = [["boost", ["boost", "--v", "0.6", "--in", str(out / "beams.json"),
                        "--out", str(out / "boosted.json")]],
             ["transform", ["transform", "--in", str(out / "state.csv"),
                            "--out", str(out / "spec.csv")]],
             ["verify", ["verify", "--out", str(out / "report.json")]]]
    return _run_fresh(steps, out)


@pytest.mark.parametrize("label", ["import axiwave", "scalar", "wave", "weyl",
                                   "maxwell", "boost"])
def test_spectral_routes_load_no_scipy(spectral_and_rk4, file_routes, label):
    code, mods = {**spectral_and_rk4, **file_routes}[label]
    assert code == 0
    assert not mods


@pytest.mark.parametrize("label", ["rk4", "transform", "verify"])
def test_r2r_routes_load_no_scipy(spectral_and_rk4, file_routes, label):
    # the trig routes run their DCT-IV on numpy's FFT
    code, mods = {**spectral_and_rk4, **file_routes}[label]
    assert code == 0
    assert not mods


def test_default_verify_raises_no_warning(tmp_path):
    done = _fresh(["-W", "error", "-m", "axiwave.cli", "verify", "--out",
                   "report.json"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "report.json").read_text() == \
        run_verification().to_json() + "\n"
    # and so does the default propagate of every kind, and rk4
    for kind in ("scalar", "wave", "weyl", "maxwell", "rk4"):
        flags = ["--method", "rk4"] if kind == "rk4" else ["--kind", kind]
        done = _fresh(["-W", "error", "-m", "axiwave.cli", "propagate",
                       *flags, "--out", kind], tmp_path)
        assert done.returncode == 0, (kind, done.stderr)
        assert (tmp_path / kind / "diagnostics.csv").exists()


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_module_imports_scipy():
    sources = sorted(Path(axiwave.__file__).resolve().parent.glob("*.py"))
    assert sources
    for path in sources:
        names = _imported_modules(ast.parse(path.read_text()))
        assert not any(n.split(".")[0] == "scipy" for n in names), path.name


def test_no_module_imports_scipy_interpolate():
    sources = sorted(Path(axiwave.__file__).resolve().parent.glob("*.py"))
    assert sources
    for path in sources:
        names = _imported_modules(ast.parse(path.read_text()))
        assert not any(n.split(".")[:2] == ["scipy", "interpolate"]
                       for n in names), path.name


def test_no_module_imports_a_private_scipy_module():
    # scipy's private modules (scipy.*._*) may move between releases
    sources = sorted(Path(axiwave.__file__).resolve().parent.glob("*.py"))
    assert sources
    for path in sources:
        names = _imported_modules(ast.parse(path.read_text()))
        assert not any(n.split(".")[0] == "scipy" and any(
            part.startswith("_") for part in n.split(".")[1:])
            for n in names), path.name
