import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import axiwave
from axiwave import cli
from axiwave.cli import main
from axiwave.fileio import (FileFormatError, read_beams_json,
                            read_spectral_csv, read_state_csv,
                            write_beams_json, write_spectral_csv,
                            write_state_csv)
from axiwave.grids import (AxialField, SpectralProfile, convert_rep,
                           gaussian_packet, make_grid, make_spectral_grid)
from axiwave.relativity import BeamState
from axiwave.spectral import analyze
from axiwave.verify import RunConfig


def test_state_csv_round_trip(tmp_path):
    grid = make_grid(64, 12.0)
    fld = convert_rep(gaussian_packet(grid, 3.0, width=3.0), "f")
    path = tmp_path / "state.csv"
    write_state_csv(fld, path)
    back = read_state_csv(path)
    assert back.rep == "f"
    assert back.grid.n_half == 64
    np.testing.assert_array_equal(back.values, fld.values)
    header = path.read_text().splitlines()[0]
    assert header.startswith("# rep=F n_half=64 h=")


def test_spectral_csv_round_trip(tmp_path):
    grid = make_grid(64, 12.0)
    phi = analyze(convert_rep(gaussian_packet(grid, 3.0, width=3.0), "f"))
    path = tmp_path / "spec.csv"
    write_spectral_csv(phi, path)
    back = read_spectral_csv(path)
    assert back.grid.same_as(phi.grid)
    np.testing.assert_array_equal(back.values, phi.values)


def test_malformed_csv_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# rep=F n_half=8 h=0.5\nlambda,re,im\n1.0,2.0\n")
    with pytest.raises(FileFormatError, match=r"bad\.csv:3"):
        read_state_csv(path)
    path2 = tmp_path / "bad2.csv"
    path2.write_text("no header here\n")
    with pytest.raises(FileFormatError, match="malformed header"):
        read_state_csv(path2)


@pytest.mark.parametrize("layout,spacing", [
    ("state", "h=abc"), ("state", "h=0"), ("state", "h=-1"),
    ("state", "h=nan"), ("state", "h=5e-324"),
    ("spectral", "dk=0"), ("spectral", "dk=abc")])
def test_malformed_header_spacing_reports_line_1(tmp_path, layout, spacing):
    grid = make_grid(8, 4.0)
    fld = convert_rep(gaussian_packet(grid, 1.0, width=1.0), "f")
    path = tmp_path / "bad.csv"
    if layout == "state":
        write_state_csv(fld, path)
        read = read_state_csv
    else:
        write_spectral_csv(analyze(fld), path)
        read = read_spectral_csv
    lines = path.read_text().splitlines()
    lines[0] = re.sub(r"\b(h|dk)=\S+", spacing, lines[0])
    path.write_text("\n".join(lines) + "\n")
    name = spacing.split("=")[0]
    with pytest.raises(FileFormatError,
                       match=rf"^{re.escape(str(path))}:1: .*\b{name}\b"):
        read(path)


def test_beams_json_round_trip(tmp_path):
    grid = make_grid(32, 10.0)
    sg = grid.conjugate()
    kap = sg.nodes
    vals = np.where(kap > 0, np.exp(-((kap - 3.0) ** 2)), 0.0).astype(complex)
    beam = BeamState(np.array([0.0, 0.0, 1.0]), SpectralProfile(sg, vals))
    path = tmp_path / "beams.json"
    write_beams_json([beam], path)
    back = read_beams_json(path)
    assert len(back) == 1
    np.testing.assert_array_equal(back[0].profile.values, vals)
    np.testing.assert_array_equal(back[0].direction, beam.direction)


def json_dump_beams(beams, path):
    """The beam file as `json.dump`'s own indented, key-sorted encoder
    writes it."""
    payload = {"beams": [{
        "direction": [float(x) for x in b.direction],
        "dk": float(b.profile.grid.dk),
        "kappa": [float(x) for x in b.profile.grid.nodes],
        "re": [float(x) for x in b.profile.values.real],
        "im": [float(x) for x in b.profile.values.imag],
    } for b in beams]}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


BIG = np.finfo(float).max


def _odd_beams():
    """Three beams with -0.0, 1e+-300 and the extreme doubles in them."""
    rng = np.random.default_rng(11)
    beams = []
    for n, dk in ((8, 1e-300), (9, 0.37), (40, 1e300)):
        vals = (rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)) \
            * 10.0 ** rng.uniform(-300, 300, size=2 * n)
        vals[:4] = [-0.0 + 0.0j, 1e300 - 1e-300j, complex(5e-324, BIG),
                    complex(-BIG, -0.0)]
        axis = rng.normal(size=3)
        profile = SpectralProfile(make_spectral_grid(n, dk), vals)
        beams.append(BeamState(axis / np.linalg.norm(axis), profile))
    return beams


@pytest.mark.parametrize("count", [0, 1, 3])
def test_beams_json_equals_indented_json_dump(tmp_path, count):
    beams = _odd_beams()[:count]
    write_beams_json(beams, tmp_path / "fast.json")
    json_dump_beams(beams, tmp_path / "dump.json")
    assert (tmp_path / "fast.json").read_bytes() == \
        (tmp_path / "dump.json").read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_writers_refuse_non_finite(tmp_path, bad):
    beam = _odd_beams()[0]
    vals = beam.profile.values.copy()
    vals[5] = bad
    profile = SpectralProfile(beam.profile.grid, vals)
    for write, obj in (
            (write_beams_json, [BeamState(beam.direction, profile)]),
            (write_spectral_csv, profile),
            (write_state_csv, AxialField(make_grid(8, 1.0), "f", vals))):
        path = tmp_path / write.__name__
        with pytest.raises(ValueError, match="non-finite"):
            write(obj, path)
        assert not path.exists()


def test_cli_transform_round_trip(tmp_path):
    grid = make_grid(64, 12.0)
    fld = convert_rep(gaussian_packet(grid, 3.0, width=3.0), "f")
    src = tmp_path / "state.csv"
    spec = tmp_path / "spec.csv"
    back = tmp_path / "back.csv"
    write_state_csv(fld, src)
    assert main(["transform", "--in", str(src), "--out", str(spec)]) == 0
    assert main(["transform", "--inverse", "--in", str(spec),
                 "--out", str(back)]) == 0
    restored = read_state_csv(back)
    err = np.max(np.abs(restored.values - fld.values))
    assert err <= 1e-2 * np.max(np.abs(fld.values))


def test_cli_boost_v0_identity(tmp_path):
    grid = make_grid(32, 10.0)
    sg = grid.conjugate()
    kap = sg.nodes
    vals = np.where(kap > 0, np.exp(-((kap - 3.0) ** 2)), 0.0).astype(complex)
    beam = BeamState(np.array([0.0, 0.0, 1.0]), SpectralProfile(sg, vals))
    src = tmp_path / "beams.json"
    dst = tmp_path / "out.json"
    write_beams_json([beam], src)
    assert main(["boost", "--v", "0.0", "--axis", "z", "--in", str(src),
                 "--out", str(dst)]) == 0
    out = read_beams_json(dst)
    assert len(out) == 1
    assert np.max(np.abs(out[0].profile.values - vals)) <= 1e-14


def test_cli_boost_parallel_peak(tmp_path):
    grid = make_grid(64, 16.0)
    sg = grid.conjugate()
    kap = sg.nodes
    vals = np.where(kap > 0, np.exp(-(((kap - 8.0) / 1.0) ** 2)), 0.0)
    beam = BeamState(np.array([0.0, 0.0, 1.0]),
                     SpectralProfile(sg, vals.astype(complex)))
    src = tmp_path / "beams.json"
    dst = tmp_path / "out.json"
    write_beams_json([beam], src)
    assert main(["boost", "--v", "0.6", "--axis", "z", "--in", str(src),
                 "--out", str(dst)]) == 0
    out = read_beams_json(dst)
    peak = out[0].profile.grid.nodes[np.argmax(np.abs(out[0].profile.values))]
    assert abs(peak - 4.0) <= out[0].profile.grid.dk


def test_cli_propagate_writes_snapshots(tmp_path):
    outdir = tmp_path / "run"
    code = main(["propagate", "--kind", "scalar", "--k0", "8", "--width", "4",
                 "--t-max", "5", "--snapshots", "6", "--grid-size", "128",
                 "--extent", "40", "--out", str(outdir)])
    assert code == 0
    snaps = sorted(os.listdir(outdir))
    assert "diagnostics.csv" in snaps
    assert sum(s.startswith("snapshot_") for s in snaps) == 6
    diag = (outdir / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == "time,norm,min_rho,continuity_residual"
    times = [float(row.split(",")[0]) for row in diag[1:]]
    assert times == sorted(times)


def test_cli_propagate_methods_agree(tmp_path):
    args = ["propagate", "--kind", "scalar", "--k0", "3", "--width", "8",
            "--t-max", "1", "--snapshots", "2", "--grid-size", "128",
            "--extent", "40"]
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--method", "spectral", "--out", str(a_dir)]) == 0
    assert main(args + ["--method", "rk4", "--out", str(b_dir)]) == 0
    fa = read_state_csv(a_dir / "snapshot_001.csv")
    fb = read_state_csv(b_dir / "snapshot_001.csv")
    mask = fa.grid.interior_mask()
    num = np.linalg.norm((fa.values - fb.values)[mask])
    den = np.linalg.norm(fa.values[mask])
    assert num / den <= 1e-2


def test_cli_maxwell_constraint_violation(tmp_path, capsys):
    from axiwave.grids import AxialField
    grid = make_grid(32, 10.0)
    w = gaussian_packet(grid, 3.0, width=3.0).values
    comps = [AxialField(grid, "g", w), AxialField(grid, "g", 1j * w),
             AxialField(grid, "g", 0.3 * w)]
    src = tmp_path / "f3.csv"
    write_state_csv(comps, src)
    code = main(["propagate", "--kind", "maxwell", "--in", str(src),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "transversality" in capsys.readouterr().err


def test_cli_usage_error_exit_code(tmp_path, capsys):
    assert main(["no-such-command"]) == 2
    assert main(["boost", "--v", "0.5"]) == 2  # missing --in
    capsys.readouterr()
    for flag, value in (("--t-max", "inf"), ("--t-max", "nan"),
                        ("--t-max", "0"), ("--t-max", "-1"),
                        ("--snapshots", "0"),
                        ("--k0", "nan"), ("--k0", "inf"),
                        ("--width", "0"), ("--width", "-1"),
                        ("--width", "nan"), ("--width", "inf"),
                        ("--width", "0.05"), ("--width", "1e-300"),
                        ("--method", "rk4"),
                        ("--in", str(tmp_path / "missing.csv"))) + GRID_FLAGS:
        kind = "wave" if flag in ("--in", "--method") else "scalar"
        assert main(["propagate", "--kind", kind, "--grid-size", "16",
                     flag, value, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert not (tmp_path / "run").exists()
    for flag, value in GRID_FLAGS:
        assert main(["verify", flag, value,
                     "--out", str(tmp_path / "report.json")]) == 2
        cap = capsys.readouterr()
        assert cap.err.startswith("error: ") and flag in cap.err
        assert not cap.out and not (tmp_path / "report.json").exists()


GRID_FLAGS = (("--grid-size", "0"), ("--grid-size", "7"), ("--grid-size", "-4"),
              ("--extent", "nan"), ("--extent", "inf"),
              ("--extent", "0"), ("--extent", "-1"),
              ("--extent", "5e-324"), ("--extent", "1e-310"))


@pytest.mark.parametrize("size", ["8", "15"])
def test_cli_verify_grid_size_minimum(tmp_path, capsys, size):
    # the ledger also runs at --grid-size // 2, which the grid rule bounds
    code = main(["verify", "--grid-size", size,
                 "--out", str(tmp_path / "r.json")])
    cap = capsys.readouterr()
    assert code == 2
    assert cap.err == (f"error: --grid-size {size} --extent 40.0 --seed 7 "
                       "--tol-scale 1.0: n_half must be at least 16\n")
    assert not cap.out and not (tmp_path / "r.json").exists()


def test_run_config_applies_grid_rule():
    for bad in ({"n_half": 8}, {"n_half": 15}, {"extent": 1e-320},
                {"extent": 5e-324}):
        with pytest.raises(ValueError):
            RunConfig(**bad)


def _python(args, cwd=None, timeout=120):
    """`python *args` in a fresh interpreter that imports this package."""
    src = str(Path(axiwave.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


def _cli(*argv, timeout=120):
    """Run the CLI in a fresh interpreter (under -O), stderr unfiltered."""
    return _python(["-O", "-m", "axiwave.cli", *argv], timeout=timeout)


def test_cli_tiny_extent_without_asserts(tmp_path):
    # under -O no assert guards the nodes, so only the grid rule stands
    # between a tiny extent and a division by zero
    done = _cli("propagate", "--grid-size", "8", "--extent", "5e-324",
                "--out", str(tmp_path / "run"))
    assert done.returncode == 2
    assert done.stderr.startswith("error: --grid-size 8 --extent 5e-324")
    assert len(done.stderr.splitlines()) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag", ["--k0", "--t-max", "--extent"])
def test_cli_propagate_rejects_overflowing_run(tmp_path, flag):
    # the run itself overflows: no snapshot file may carry nan cells, and
    # no numpy warning comes before the one error line
    done = _cli("propagate", flag, "1e308", "--out", str(tmp_path / "run"))
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and flag in done.stderr
    assert len(done.stderr.splitlines()) == 1
    # neither --out nor the scratch directory beside it is left behind
    assert list(tmp_path.iterdir()) == []


def _huge_state(path):
    grid = make_grid(16, 40.0)
    write_state_csv(AxialField(grid, "f", np.full(grid.size, 1e307)), path)


def _huge_beam(path):
    sg = make_grid(64, 40.0).conjugate()
    m = sg.nodes / sg.dk
    write_beams_json([BeamState([0.0, 0.0, 1.0], SpectralProfile(
        sg, np.where(m > 0, 1e307 * np.exp(-(m - 16.0) ** 2 / 16.0), 0.0)))],
        path)


@pytest.mark.parametrize("make, command", [
    (_huge_state, ["transform"]), (_huge_beam, ["boost", "--v", "0.6"])],
    ids=["transform", "boost"])
def test_cli_refuses_to_write_non_finite_output(tmp_path, make, command):
    # finite inputs whose results overflow (the spectrum of a constant
    # 1e307, the dilation's sums over a beam of peak 1e307): the writer
    # refuses them, so nothing is written that the readers would reject
    make(tmp_path / "in")
    out = tmp_path / "out"
    done = _cli(*command, "--in", str(tmp_path / "in"), "--out", str(out))
    assert done.returncode == 2
    errors = [ln for ln in done.stderr.splitlines() if ln.startswith("error:")]
    assert errors == [f"error: {out}: refusing to write a non-finite value"]
    assert "RuntimeWarning" not in done.stderr
    assert not out.exists()


@settings(max_examples=40, deadline=None)
@given(n_half=st.integers(8, 64), log_dk=st.floats(-300.0, 300.0),
       log_peak=st.floats(-300.0, 307.0), v=st.floats(-0.99, 0.99),
       axis=st.sampled_from(["z", "x", "1,1,0", "-0.3,0.4,0.5"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n_half=64, log_dk=-250.0, log_peak=307.0, v=0.6, axis="z", seed=0)
def test_cli_boost_output_reads_back_or_is_refused(n_half, log_dk, log_peak,
                                                   v, axis, seed):
    # any well-formed beam file, at any accepted grid scale: the output
    # reads back, or the run exits 2 with one error line and no file
    rng = np.random.default_rng(seed)
    sg = make_spectral_grid(n_half, 10.0 ** log_dk)
    beams = [BeamState(d / np.linalg.norm(d), SpectralProfile(
        sg, 10.0 ** log_peak * (rng.uniform(-1, 1, sg.size)
                                + 1j * rng.uniform(-1, 1, sg.size))))
        for d in rng.normal(size=(2, 3))]
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp, "in.json"), Path(tmp, "out.json")
        write_beams_json(beams, src)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")   # the lossy-boost warnings
            code = main(["boost", "--v", repr(v), "--axis", axis,
                         "--in", str(src), "--out", str(out)])
        if code == 0:
            assert len(read_beams_json(out)) >= len(beams)
        else:
            assert code == 2
            assert err.getvalue().startswith("error: ")
            assert len(err.getvalue().splitlines()) == 1
            assert not out.exists()


@pytest.mark.parametrize("kind, n_comp", [
    ("scalar", 1), ("weyl", 2), ("maxwell", 3)])
def test_cli_propagate_refuses_overflowed_diagnostics(tmp_path, capsys, kind,
                                                       n_comp):
    # every sample of a constant 1e160 is finite, but |g|^2 overflows: the
    # diagnostics read inf, and the run is refused like an overflowed one
    grid = make_grid(16, 40.0)
    big = np.full(grid.size, 1e160 + 0j)
    write_state_csv([AxialField(grid, "f", x) for x in (
        big, 1j * big, 0 * big)[:n_comp]], tmp_path / "in.csv")
    out = tmp_path / "run"
    assert main(["propagate", "--kind", kind, "--in", str(tmp_path / "in.csv"),
                 "--snapshots", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: the run overflowed; lower --k0, --t-max or --extent\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]


def test_cli_propagate_writes_each_snapshot_as_it_is_made(tmp_path,
                                                           monkeypatch):
    default, stream, accepts_in, columns = cli.KINDS["scalar"]
    before_last = []

    def watched(comps, times, **kw):
        rows = stream(comps, times, **kw)
        for i in range(len(times)):
            if i == len(times) - 1:   # what exists before the last request
                before_last.extend(sorted(
                    p.name for p in tmp_path.rglob("snapshot_*.csv")))
            yield next(rows)

    monkeypatch.setitem(cli.KINDS, "scalar",
                        (default, watched, accepts_in, columns))
    out = tmp_path / "run"
    assert main(["propagate", "--grid-size", "16", "--snapshots", "4",
                 "--out", str(out)]) == 0
    assert before_last == ["snapshot_000.csv", "snapshot_001.csv",
                           "snapshot_002.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]
    assert len(list(out.glob("snapshot_*.csv"))) == 4


@pytest.mark.parametrize("argv", [
    ["--t-max", "1e308"], ["--kind", "maxwell", "--in", "f3.csv"]])
def test_cli_propagate_fault_keeps_existing_out(tmp_path, monkeypatch, argv):
    # a faulting run leaves an --out that holds an older run as it was
    monkeypatch.chdir(tmp_path)
    grid = make_grid(16, 4.0)
    w = gaussian_packet(grid, 3.0, width=1.0).values
    write_state_csv([AxialField(grid, "g", v) for v in (w, 1j * w, 0.3 * w)],
                    "f3.csv")
    assert main(["propagate", "--grid-size", "16", "--snapshots", "2",
                 "--out", "run"]) == 0
    (tmp_path / "run" / "notes.txt").write_text("kept\n")
    old = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    assert main(["propagate", "--snapshots", "3", *argv,
                 "--out", "run"]) == 2
    assert {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()} == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f3.csv", "run"]
    # a run that succeeds replaces its own files and leaves the others
    assert main(["propagate", "--grid-size", "16", "--snapshots", "1",
                 "--out", "run"]) == 0
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(old)


def test_cli_propagate_makes_missing_out_parents(tmp_path):
    out = tmp_path / "a" / "b" / "c"
    assert main(["propagate", "--grid-size", "16", "--snapshots", "2",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "diagnostics.csv", "snapshot_000.csv", "snapshot_001.csv"]
    assert [p.name for p in tmp_path.iterdir()] == ["a"]


@pytest.mark.parametrize("argv,code", [
    (["propagate", "--method", "rk4", "--extent", "1e-300"], 0),
    (["verify", "--grid-size", "16", "--extent", "1e-300"], 1),
    (["verify", "--grid-size", "64", "--extent", "1e-5"], 1),
    (["propagate", "--method", "rk4", "--grid-size", "8", "--t-max", "3e8"],
     0)])
def test_cli_finishes_rk4_run_of_any_step_count(tmp_path, argv, code):
    # 5.1e303 (6.4e302, 2.56e8, 2.4e8) RK4 steps: one power of the
    # full-step factor per snapshot, so each run ends in about a second
    # and writes its output; the degenerate ledgers fail their entries
    done = _cli(*argv, "--out", str(tmp_path / "out"), timeout=60)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert (tmp_path / "out").exists()


def test_cli_verify_degenerate_ledger_fails_without_traceback(tmp_path):
    # h = 250 leaves the fixed-width packets with no density on the nodes
    # (max rho = 0): the run fails its entries and still writes the report
    done = _cli("verify", "--grid-size", "16", "--extent", "4000",
                "--out", str(tmp_path / "r.json"))
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["summary"]["failed"] > 0
    assert len(report["entries"]) == 48
    assert "summary:" in done.stdout


@pytest.mark.parametrize("flag,value", [
    ("--extent", "1e-310"), ("--grid-size", "3"), ("--k0", "nan"),
    ("--width", "-1")])
def test_cli_propagate_in_ignores_packet_flags(tmp_path, flag, value):
    # with --in the file sets the grid and the packet: the packet flags are
    # neither read nor checked
    src = tmp_path / "state.csv"
    write_state_csv(convert_rep(gaussian_packet(make_grid(32, 10.0), 3.0,
                                                width=2.0), "f"), src)
    args = ["propagate", "--in", str(src), "--t-max", "1", "--snapshots", "2"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + [flag, value, "--out", str(tmp_path / "b")]) == 0
    for name in ("snapshot_001.csv", "diagnostics.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_cli_propagate_rejects_too_many_snapshots(tmp_path, capsys):
    # the sample count bounds what one run writes; it is checked before
    # anything is propagated or allocated
    start = time.perf_counter()
    code = main(["propagate", "--snapshots", "100000000",
                 "--out", str(tmp_path / "run")])
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: --snapshots") and str(2 ** 25) in err
    assert not (tmp_path / "run").exists()
    # the bound counts every component: 3 x 16 nodes at grid size 8
    assert main(["propagate", "--grid-size", "8", "--kind", "maxwell",
                 "--snapshots", str(2 ** 25 // 48 + 1),
                 "--out", str(tmp_path / "run")]) == 2
    assert "--snapshots" in capsys.readouterr().err


def test_cli_propagate_cap_checked_before_grid(tmp_path, capsys,
                                               monkeypatch):
    # a refused run must not allocate its grid first; without the patch
    # this grid size would ask for gigabytes
    def no_grid(*args):
        raise AssertionError("make_grid called before the sample cap")

    monkeypatch.setattr("axiwave.cli.make_grid", no_grid)
    code = main(["propagate", "--grid-size", str(2 ** 30), "--snapshots", "1",
                 "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: --snapshots") and len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_cli_verify_out_checked_before_ledger(tmp_path, capsys, monkeypatch):
    # a report that cannot be written is refused before the ledger runs
    def no_ledger(cfg):
        raise AssertionError("run_verification called before --out")

    monkeypatch.setattr(cli, "run_verification", no_ledger)
    (tmp_path / "dir").mkdir()
    for out in (tmp_path / "missing" / "r.json", tmp_path / "dir"):
        code = main(["verify", "--grid-size", "1024", "--out", str(out)])
        cap = capsys.readouterr()
        assert code == 2
        assert cap.err == (f"error: --out {out} is not a file in an "
                           "existing directory\n")
        assert not cap.out
        assert [p.name for p in tmp_path.rglob("*")] == ["dir"]


def test_cli_transform_rejects_oversized_header(tmp_path, capsys):
    # the header declares a grid far larger than the rows present; the row
    # count must be checked before any grid is allocated
    grid = make_grid(256, 40.0)
    src = tmp_path / "state.csv"
    rows = [f"{float(lam)!r},0.0,0.0" for lam in grid.nodes]
    src.write_text("# rep=F n_half=1000000000000 h=0.15625\nlambda,re,im\n"
                   + "\n".join(rows) + "\n")
    code = main(["transform", "--in", str(src),
                 "--out", str(tmp_path / "spec.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def _beam(**overrides):
    """One valid beam entry (16 half-offset nodes, dk 0.5), fields replaced."""
    kappa = [(j - 7.5) * 0.5 for j in range(16)]
    beam = {"direction": [0.0, 0.0, 1.0], "dk": 0.5, "kappa": kappa,
            "re": [1.0] * 16, "im": [0.0] * 16}
    beam.update(overrides)
    return {"beams": [beam]}


@pytest.mark.parametrize("payload", [
    [3], {"beams": 3}, {"beams": [3]},
    _beam(dk=None), _beam(kappa={"a": 1}), _beam(re={"a": 1}),
    _beam(im={"a": 1}), _beam(direction={"a": 1}),
    _beam(direction=[0.0, 0.0, float("nan")]),
    _beam(re=[float("inf")] * 16), _beam(dk=float("nan"))])
def test_cli_boost_malformed_beams_json(tmp_path, capsys, payload):
    src = tmp_path / "beams.json"
    src.write_text(json.dumps(payload))
    code = main(["boost", "--v", "0.5", "--in", str(src),
                 "--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("kappa", [[], [0.5]])
def test_cli_boost_reports_too_few_nodes_by_the_grid_rule(tmp_path, capsys,
                                                          kappa):
    # no "dk" and fewer than 2 nodes: no spacing to read off the nodes
    src = tmp_path / "beams.json"
    src.write_text(json.dumps({"beams": [{
        "direction": [0, 0, 1], "kappa": kappa, "re": [], "im": []}]}))
    code = main(["boost", "--v", "0.5", "--in", str(src),
                 "--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "beam 0: dk=inf: grid too coarse" in err and err.endswith("got 0\n")


@pytest.mark.parametrize("axis", ["inf,0,0", "nan,0,0", "1,-inf,0",
                                  "1e200,1e200,0"])
def test_cli_boost_rejects_non_finite_axis(tmp_path, capsys, axis):
    src = tmp_path / "beams.json"
    src.write_text(json.dumps(_beam()))
    code = main(["boost", "--v", "0.5", "--axis", axis, "--in", str(src),
                 "--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot parse axis") and \
        len(err.splitlines()) == 1
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("v, axis", [("-1e-05", "z"), ("-0.5", "-0.6,0,0.8")])
def test_cli_boost_reads_a_negative_value_after_a_space(tmp_path, v, axis):
    # "--v -1e-05" is "--v=-1e-05", and a comma list may start with "-"
    src = tmp_path / "beams.json"
    src.write_text(json.dumps(_beam()))
    spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
    assert main(["boost", "--v", v, "--axis", axis, "--in", str(src),
                 "--out", str(spaced)]) == 0
    assert main(["boost", f"--v={v}", f"--axis={axis}", "--in", str(src),
                 "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_cli_verify_rejects_bad_tol_scale(tmp_path, capsys, value):
    code = main(["verify", "--tol-scale", value,
                 "--out", str(tmp_path / "r.json")])
    cap = capsys.readouterr()
    assert code == 2
    assert cap.err == (f"error: --grid-size 256 --extent 40.0 --seed 7 "
                       f"--tol-scale {float(value)!r}: tol_scale must be "
                       "finite and non-negative\n")
    assert not cap.out and not (tmp_path / "r.json").exists()


def test_cli_verify_rejects_negative_seed(tmp_path, capsys):
    code = main(["verify", "--grid-size", "16", "--seed", "-1",
                 "--out", str(tmp_path / "r.json")])
    cap = capsys.readouterr()
    assert code == 2
    assert cap.err == ("error: --grid-size 16 --extent 40.0 --seed -1 "
                       "--tol-scale 1.0: seed must be a non-negative integer\n")
    assert not cap.out and not (tmp_path / "r.json").exists()
    with pytest.raises(ValueError, match="seed"):
        RunConfig(seed=-1)


def test_cli_verify_small_grid_and_determinism(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["verify", "--grid-size", "64", "--extent", "40",
            "--seed", "11"]
    assert main(args + ["--out", str(out1)]) in (0, 1)
    assert main(args + ["--out", str(out2)]) in (0, 1)
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["summary"]["passed"] + payload["summary"]["failed"] \
        == len(payload["entries"])
    for entry in payload["entries"]:
        assert entry["identity"]
        assert entry["passed"] == (entry["residual"] <= entry["tolerance"])


def test_cli_verify_zero_tolerance_fails(tmp_path):
    code = main(["verify", "--grid-size", "64", "--tol-scale", "0",
                 "--out", str(tmp_path / "r.json")])
    assert code == 1


@pytest.mark.parametrize("n_comp", [1, 2, 3])
def test_state_csv_components_round_trip(tmp_path, n_comp):
    grid = make_grid(32, 10.0)
    rng = np.random.default_rng(n_comp)
    fields = [AxialField(grid, "f", rng.normal(size=64) + 1j * rng.normal(size=64))
              for _ in range(n_comp)]
    path = tmp_path / "state.csv"
    write_state_csv(fields, path)
    back = read_state_csv(path)
    back = back if isinstance(back, list) else [back]
    assert len(back) == n_comp
    for a, b in zip(back, fields):
        assert a.rep == "f" and a.grid.same_as(grid)
        assert np.array_equal(a.values, b.values)
    if n_comp == 1:  # a list of one writes the single-field layout
        single = tmp_path / "single.csv"
        write_state_csv(fields[0], single)
        assert single.read_bytes() == path.read_bytes()


_PROPAGATE = ["propagate", "--grid-size", "128", "--extent", "20", "--k0", "3",
              "--t-max", "2", "--snapshots", "4"]


@pytest.mark.parametrize("kind", ["scalar", "rk4", "wave", "weyl", "maxwell"])
def test_cli_propagate_diagnostics_have_no_blank_cells(tmp_path, kind):
    flags = ["--method", "rk4"] if kind == "rk4" else ["--kind", kind]
    assert main(_PROPAGATE + flags + ["--out", str(tmp_path)]) == 0
    lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert lines[0].startswith("time,norm,") and len(header) >= 4
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    for i, row in enumerate(rows):
        assert len(row) == len(header)
        for name, cell in zip(header, row):
            edge = i in (0, len(rows) - 1)
            assert cell != "" or (edge and name == "continuity_residual")
    norms = np.array([float(row[1]) for row in rows])
    tol = 1e-4 if kind == "rk4" else 1e-10
    assert np.max(np.abs(norms - norms[0])) <= tol * norms[0]
    assert all(float(row[2]) >= 0.0 for row in rows)


@pytest.mark.parametrize("kind", ["scalar", "weyl", "maxwell"])
def test_cli_propagate_in_round_trip(tmp_path, kind):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(_PROPAGATE + ["--kind", kind, "--out", str(first)]) == 0
    snap = first / "snapshot_002.csv"
    assert main(["propagate", "--kind", kind, "--in", str(snap), "--t-max", "1",
                 "--snapshots", "2", "--out", str(second)]) == 0
    # same layout: state header and column names, diagnostics columns
    for name, n in (("snapshot_001.csv", 2), ("diagnostics.csv", 1)):
        assert ((second / name).read_text().splitlines()[:n]
                == (first / name).read_text().splitlines()[:n])


@pytest.mark.parametrize("kind,other", [("scalar", "weyl"), ("weyl", "maxwell"),
                                        ("maxwell", "scalar")])
def test_cli_propagate_in_wrong_component_count(tmp_path, capsys, kind, other):
    assert main(_PROPAGATE + ["--kind", other, "--out", str(tmp_path / "a")]) == 0
    code = main(["propagate", "--kind", kind, "--in",
                 str(tmp_path / "a" / "snapshot_000.csv"),
                 "--out", str(tmp_path / "b")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and f"--kind {kind}" in err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("column", [0, 2])
@pytest.mark.parametrize("command", ["transform", "propagate"])
def test_cli_rejects_non_finite_csv_cell(tmp_path, capsys, column, command):
    grid = make_grid(32, 10.0)
    src = tmp_path / "state.csv"
    write_state_csv(convert_rep(gaussian_packet(grid, 3.0, width=3.0), "f"), src)
    lines = src.read_text().splitlines()
    cells = lines[10].split(",")
    cells[column] = "nan"
    lines[10] = ",".join(cells)
    src.write_text("\n".join(lines) + "\n")
    code = main([command, "--in", str(src), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "state.csv:11" in err


@pytest.mark.parametrize("argv", [
    ["transform", "--grid-size", "64", "--in", "x.csv"],
    ["boost", "--extent", "20", "--v", "0.5", "--in", "x.json"],
    ["propagate", "--seed", "3"],
    ["propagate", "--tol-scale", "2"]])
def test_cli_flag_only_where_read(tmp_path, capsys, argv):
    # a flag that the subcommand would ignore is a usage error
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# runs each argv through `cli.main` in this one process and prints, per
# step, the exit code, stdout and stderr
_ONE_PROCESS = """
import contextlib, io, json, sys
from axiwave import cli
rows = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    rows.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(rows))
"""


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_cli_main_in_one_process_matches_fresh_processes(tmp_path):
    # the parser is built once per process; every call must still parse,
    # fail and write as a fresh process does
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    grid = make_grid(32, 12.0)
    for cwd in (shared, fresh):
        cwd.mkdir()
        write_state_csv(convert_rep(gaussian_packet(grid, 3.0, width=3.0),
                                    "f"), cwd / "state.csv")
        kap = grid.conjugate().nodes
        write_beams_json([BeamState(np.array([0.0, 0.0, 1.0]), SpectralProfile(
            grid.conjugate(), np.exp(-((kap - 3.0) ** 2)).astype(complex)))],
            cwd / "beams.json")
    steps = [
        ["verify", "--grid-size", "16", "--out", "report.json"],
        ["propagate", "--grid-size", "32", "--snapshots", "3", "--out", "run"],
        ["propagate", "--method", "rk4", "--grid-size", "16", "--t-max", "1",
         "--snapshots", "2", "--out", "rk4"],
        ["transform", "--in", "state.csv", "--out", "spec.csv"],
        ["transform", "--inverse", "--in", "spec.csv", "--out", "back.csv"],
        ["boost", "--v", "-0.6", "--axis", "-0.6,0,0.8", "--in", "beams.json",
         "--out", "boosted.json"],
        ["propagate", "--grid-size", "4", "--out", "bad"],
        ["transform", "--in", "missing.csv"],
        ["boost", "--v", "0.5"],
        ["verify", "--bogus"],
        ["propagate", "--width", "0.05", "--out", "empty"],
        ["verify", "--seed", "-1", "--out", "seed.json"],
        ["verify", "--out", "missing/r.json"],
        # the default config warns nowhere: a warning shows once per process
        ["verify", "--out", "again.json"],
    ]
    done = _python(["-c", _ONE_PROCESS, json.dumps(steps)], shared)
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout.strip().splitlines()[-1])
    assert [code for code, _, _ in rows] == [1, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2,
                                             2, 0]
    for argv, (code, out, err) in zip(steps, rows, strict=True):
        alone = _python(["-m", "axiwave.cli", *argv], fresh)
        assert (code, out, err) == (alone.returncode, alone.stdout,
                                    alone.stderr), argv
    assert _tree(shared) == _tree(fresh)


# runs every subcommand over 8 new grids per phase (n_half 8 to 64) in one
# process; prints which grids, fields or arrays the cyclic collector had
# to free in the first phase, then, after each later phase with the
# bounded plan caches emptied, the bytes held in traced blocks of 128 B or
# more (a node array of the smallest grid; numpy's and the interpreter's
# small-object pools stay below it)
_MEMORY = """
import contextlib, gc, io, json, tracemalloc, warnings
import numpy as np
from axiwave import cli, fileio, spectral, transforms
from axiwave.fileio import write_beams_json, write_state_csv
from axiwave.grids import (AxialField, AxisGrid, SpectralGrid, SpectralProfile,
                           convert_rep, gaussian_packet, make_grid)
from axiwave.relativity import BeamState

# the coarse grids' boosts warn, each with its own text, which the default
# filter would keep in the module's warning registry; "always" keeps none
warnings.simplefilter("always")
METHODS = [["--kind", kind] for kind in cli.KINDS] + [["--method", "rk4"]]

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) in (0, 1), argv

def phase(k):
    for i in range(8 * k, 8 * k + 8):
        n, extent = 8 * (1 + i % 8), 20.0 + 0.37 * i
        grid = make_grid(n, extent)
        write_state_csv(convert_rep(gaussian_packet(grid, 1.0, extent / 8),
                                    "f"), "state.csv")
        kap = grid.conjugate().nodes
        write_beams_json([BeamState(np.array([0.0, 0.0, 1.0]), SpectralProfile(
            grid.conjugate(), np.exp(-(kap - 1.0) ** 2).astype(complex)))],
            "beams.json")
        del grid, kap
        run("propagate", *METHODS[i % 5], "--grid-size", str(n), "--extent",
            repr(extent), "--t-max", "1", "--snapshots", "2", "--out", "run")
        run("transform", "--in", "state.csv", "--out", "spec.csv")
        run("transform", "--inverse", "--in", "spec.csv", "--out", "back.csv")
        run("boost", "--v", "0.6", "--in", "beams.json", "--out", "b.json")
    run("verify", "--grid-size", "16", "--extent", repr(extent),
        "--out", "r.json")

gc.collect()
gc.set_debug(gc.DEBUG_SAVEALL)
phase(0)
gc.collect()
held = sorted({type(o).__name__ for o in gc.garbage if isinstance(
    o, (AxisGrid, SpectralGrid, AxialField, SpectralProfile, np.ndarray))})
gc.set_debug(0)
gc.garbage.clear()
caches = [obj for mod in (fileio, spectral, transforms)
          for obj in vars(mod).values() if hasattr(obj, "cache_info")]
tracemalloc.start()
used = []
for k in range(1, 5):
    phase(k)
    for cache in caches:
        assert cache.cache_info().maxsize is not None
        cache.cache_clear()
    gc.collect()
    used.append(sum(t.size for t in tracemalloc.take_snapshot().traces
                    if t.size >= 128))
print(json.dumps([held, used]))
"""


def test_cli_memory_follows_grid_size_not_grids_seen(tmp_path):
    # 40 grids through every subcommand in one process: no grid waits for
    # the cyclic collector, and past the bounded plan caches the memory
    # held does not grow with the number of grids seen
    done = _python(["-c", _MEMORY], tmp_path)
    assert done.returncode == 0, done.stderr
    held, used = json.loads(done.stdout.strip().splitlines()[-1])
    assert held == []
    assert max(used) <= used[0], used


def _run_main(argv):
    """(exit code, stderr) of one in-process `main` call, warnings off."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(argv), err.getvalue()


def _refused(code, err, out):
    assert code == 2, err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


_STATE_FILES = dict(
    n_half=st.integers(8, 64), log_extent=st.floats(-300.0, 300.0),
    log_peak=st.floats(-300.0, 307.0), rep=st.sampled_from(["f", "g"]),
    seed=st.integers(0, 2 ** 32 - 1))


def _random_state(n_half, log_extent, log_peak, rep, seed, n_comp=1):
    rng = np.random.default_rng(seed)
    grid = make_grid(n_half, 10.0 ** log_extent)
    comps = [AxialField(grid, rep, 10.0 ** log_peak * (
        rng.uniform(-1, 1, grid.size) + 1j * rng.uniform(-1, 1, grid.size)))
        for _ in range(n_comp)]
    return comps[0] if n_comp == 1 else comps


@settings(max_examples=30, deadline=None)
@given(**_STATE_FILES)
@example(n_half=16, log_extent=np.log10(40.0), log_peak=307.0, rep="f",
         seed=0)
@example(n_half=16, log_extent=300.0, log_peak=300.0, rep="f", seed=0)
def test_cli_transform_output_reads_back_or_is_refused(n_half, log_extent,
                                                       log_peak, rep, seed):
    # any well-formed state file, both directions: the output reads back,
    # or the run exits 2 with one error line and no file
    with tempfile.TemporaryDirectory() as tmp:
        src, spec, back = (Path(tmp, name) for name in
                           ("in.csv", "spec.csv", "back.csv"))
        write_state_csv(_random_state(n_half, log_extent, log_peak, rep,
                                      seed), src)
        code, err = _run_main(["transform", "--in", str(src),
                               "--out", str(spec)])
        if code != 0:
            _refused(code, err, spec)
            return
        assert read_spectral_csv(spec).grid.n_half == n_half
        code, err = _run_main(["transform", "--inverse", "--in", str(spec),
                               "--out", str(back)])
        if code == 0:
            assert read_state_csv(back).grid.n_half == n_half
        else:
            _refused(code, err, back)


@settings(max_examples=30, deadline=None)
@given(**_STATE_FILES, kind=st.sampled_from(["scalar", "weyl", "maxwell"]),
       log_t=st.floats(-3.0, 3.0))
@example(n_half=16, log_extent=np.log10(40.0), log_peak=160.0, rep="f",
         seed=0, kind="scalar", log_t=0.0)
def test_cli_propagate_in_output_reads_back_or_is_refused(
        n_half, log_extent, log_peak, rep, seed, kind, log_t):
    # any well-formed state file with the components of its --kind (the
    # vector's third one may be nonzero): every snapshot reads back, or the
    # run exits 2 with one error line and no directory
    n_comp = {"scalar": 1, "weyl": 2, "maxwell": 3}[kind]
    state = _random_state(n_half, log_extent, log_peak, rep, seed, n_comp)
    if kind == "maxwell" and seed % 2:   # transverse: a vanishing F3
        state[2] = AxialField(state[2].grid, rep, np.zeros(2 * n_half))
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp, "in.csv"), Path(tmp, "run")
        write_state_csv(state, src)
        code, err = _run_main(["propagate", "--kind", kind, "--in", str(src),
                               "--t-max", repr(10.0 ** log_t),
                               "--snapshots", "3", "--out", str(out)])
        if code != 0:
            _refused(code, err, out)
            return
        for i in range(3):
            snap = read_state_csv(out / f"snapshot_{i:03d}.csv")
            snap = snap if isinstance(snap, list) else [snap]
            assert len(snap) == n_comp
            assert snap[0].grid.n_half == n_half
        assert (out / "diagnostics.csv").exists()


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(cli.KINDS)), n_half=st.integers(8, 64),
       log_extent=st.floats(-300.0, 300.0), k0=st.floats(-50.0, 50.0),
       log_width=st.none() | st.floats(-330.0, 2.0))
@example(kind="scalar", n_half=64, log_extent=np.log10(40.0), k0=8.0,
         log_width=np.log10(0.05 / 0.625))
@example(kind="wave", n_half=8, log_extent=0.0, k0=0.0,
         log_width=np.log10(0.5))
@example(kind="scalar", n_half=8, log_extent=-300.0, k0=0.0,
         log_width=np.log10(0.5 + 1e-9))
def test_cli_propagate_starts_from_a_nonzero_packet(kind, n_half, log_extent,
                                                    k0, log_width):
    # --width is log_width decades of the spacing h (None: the default
    # extent / 4); at or below h/2 the window misses every node, and just
    # above it at a tiny extent the squares of its samples underflow
    extent = float(10.0 ** log_extent)
    argv = ["propagate", "--kind", kind, "--grid-size", str(n_half),
            f"--extent={extent!r}", f"--k0={k0!r}", "--t-max", "1",
            "--snapshots", "2"]
    if log_width is not None:
        argv.append(f"--width={float(extent / n_half * 10.0 ** log_width)!r}")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "run")
        code, err = _run_main(argv + ["--out", str(out)])
        if code != 0:
            _refused(code, err, out)
            assert os.listdir(tmp) == []
            return
        diag = (out / "diagnostics.csv").read_text().splitlines()
        assert diag[0].split(",")[1] == "norm"
        assert float(diag[1].split(",")[1]) > 0.0
