"""Command-line surface: verify / propagate / boost / transform.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
The verify subcommand prints the identity table and writes the
machine-readable JSON report; serial runs with the same configuration
and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import shutil
import sys
import tempfile

import numpy as np

from .evolution import (_field_from_g, _maxwell_stream, _scalar_stream,
                        _wave_stream, _weyl_stream)
from .fileio import (FileFormatError, read_beams_json, read_spectral_csv,
                     read_state_csv, write_beams_json, write_diagnostics_csv,
                     write_spectral_csv, write_state_csv)
from .grids import AxialField, axis_spacing, make_grid
from .relativity import BoostParams, boost_beam
from .spectral import analyze, spectral_derivative, synthesize
from .transforms import cosine_taper
from .verify import RunConfig, run_verification

_FLAGS = {  # shared flags; each subcommand takes only those it reads
    "--grid-size": (int, 256, "nodes per half-line (default 256)"),
    "--extent": (float, 40.0, "half-line length (default 40)"),
    "--seed": (int, 7, "probe-suite seed (default 7)"),
    "--tol-scale": (float, 1.0,
                    "multiply every tolerance (0 fails all inexact)"),
    "--out": (str, None, "output path or directory"),
}


# flag values, not flags: "-1e-05", "-.5", "-inf", "-0.6,0,0.8"
_NEGATIVE_VALUE = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


def _add_flags(parser, *names):
    for name in names:
        typ, default, text = _FLAGS[name]
        parser.add_argument(name, type=typ, default=default, help=text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was, so every `main` call shares it."""
    p = argparse.ArgumentParser(
        prog="axiwave",
        description="operator calculus for waves localized along an axis")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the operator-identity ledger")
    _add_flags(v, "--grid-size", "--extent", "--seed", "--tol-scale", "--out")

    pr = sub.add_parser("propagate", help="propagate a windowed wave packet")
    _add_flags(pr, "--grid-size", "--extent", "--out")
    pr.add_argument("--kind", choices=list(KINDS), default="scalar")
    pr.add_argument("--k0", type=float, default=8.0, help="carrier momentum")
    pr.add_argument("--width", type=float, default=None,
                    help="window width (default extent/4)")
    pr.add_argument("--t-max", type=float, default=5.0)
    pr.add_argument("--snapshots", type=int, default=6)
    pr.add_argument("--method", choices=["spectral", "rk4"], default="spectral")
    pr.add_argument("--in", dest="infile", default=None,
                    help="initial state CSV (overrides the built-in packet)")

    b = sub.add_parser("boost", help="Lorentz-boost a beam ensemble")
    _add_flags(b, "--out")
    b.add_argument("--v", type=float, required=True, help="velocity, |v| < 1")
    b.add_argument("--axis", default="z", help="x|y|z or 'x,y,z' components")
    b.add_argument("--in", dest="infile", required=True, help="beams JSON")

    t = sub.add_parser("transform",
                       help="state CSV <-> spectral CSV via the unitary map")
    _add_flags(t, "--out")
    t.add_argument("--in", dest="infile", required=True)
    t.add_argument("--inverse", action="store_true",
                   help="spectral -> state instead of state -> spectral")
    for parser in sub.choices.values():   # argparse's own pattern is narrower
        parser._negative_number_matcher = _NEGATIVE_VALUE
    return p


def _parse_axis(text: str) -> np.ndarray:
    named = {"x": "1,0,0", "y": "0,1,0", "z": "0,0,1"}
    try:
        vec = np.array([float(x) for x in named.get(text, text).split(",")])
    except ValueError:
        raise FileFormatError(f"cannot parse axis {text!r}") from None
    if vec.shape != (3,) or not 0.0 < np.linalg.norm(vec) < np.inf:
        raise FileFormatError(f"cannot parse axis {text!r}")
    return vec / np.linalg.norm(vec)


# snapshots x components x nodes written by one run: 2**25 complex128
# samples is 512 MiB of data, more as CSV text
_MAX_SNAPSHOT_SAMPLES = 2 ** 25


def _require(checks):
    """Raise ValueError with the message of the first failed check."""
    for message, ok in checks:
        if not ok:
            raise ValueError(message)


def _grid_flags(args, build):
    """build(), its ValueError prefixed with the grid flags (and verify's
    ledger flags) and their values: the library states the rule that
    failed in its own terms (n_half, h = extent / grid size, ...)."""
    try:
        return build()
    except ValueError as exc:
        flags = " ".join(f"--{key.replace('_', '-')} {value!r}"
                         for key, value in vars(args).items()
                         if key in ("grid_size", "extent", "seed", "tol_scale"))
        raise ValueError(f"{flags}: {exc}") from None


def cmd_verify(args) -> int:
    cfg = _grid_flags(args, lambda: RunConfig(
        n_half=args.grid_size, extent=args.extent, seed=args.seed,
        tol_scale=args.tol_scale))
    out = args.out or "verify_report.json"
    if os.path.isdir(out) or not os.path.isdir(
            os.path.dirname(os.path.abspath(out))):
        raise ValueError(f"--out {out} is not a file in an existing "
                         "directory")
    report = run_verification(cfg)
    print(report.to_text())
    with open(out, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    print(f"report written to {out}")
    return 0 if report.all_passed else 1


def _moving_wave(comps, times):
    # initial rate dg/dt = -i kappa g: the packet moves rigidly along +n
    (g,) = comps
    gdot = -spectral_derivative(g.values, g.grid)
    return _wave_stream([g, AxialField(g.grid, "g", gdot)], times)


# --kind -> (default g-components from the windowed packet w, whose count
# is the number of components written per snapshot; the evolution stream
# (components, times) -> (g-rows, diagnostics) per time; whether --in is
# accepted; the diagnostics.csv columns after `time`)
KINDS = {
    "scalar": (lambda w: [w], _scalar_stream, True,
               ("norm", "min_rho", "continuity_residual")),
    "wave": (lambda w: [w], _moving_wave, False,
             ("norm", "charge", "sigma_min", "sigma_max")),
    "weyl": (lambda w: [w, np.zeros_like(w)], _weyl_stream, True,
             ("norm", "norm_up", "norm_down")),
    "maxwell": (lambda w: [w, 1j * w, np.zeros_like(w)], _maxwell_stream,
                True, ("norm", "norm_fwd", "norm_back")),
}


def cmd_propagate(args) -> int:
    default, stream, accepts_in, columns = KINDS[args.kind]
    if not args.infile:   # with --in, the file sets the grid and the packet
        _grid_flags(args, lambda: axis_spacing(args.grid_size, args.extent))
        _require((("--k0 must be finite", np.isfinite(args.k0)),
                  ("--width must be finite and positive",
                   args.width is None or 0.0 < args.width < np.inf)))
    _require((
        ("--t-max must be finite and positive", 0.0 < args.t_max < np.inf),
        ("--snapshots must be at least 1", args.snapshots >= 1),
        ("--method rk4 is only available for --kind scalar",
         args.method != "rk4" or args.kind == "scalar"),
        (f"--in is not supported for --kind {args.kind}",
         accepts_in or not args.infile)))

    n_comp = len(default(np.zeros(0)))
    if args.infile:
        comps = read_state_csv(args.infile)
        comps = comps if isinstance(comps, list) else [comps]
        if len(comps) != n_comp:
            raise FileFormatError(f"{args.infile}: --kind {args.kind} needs "
                                  f"{n_comp} component(s), found {len(comps)}")
    # the built-in packet is bounded before its grid is allocated
    size = comps[0].grid.size if args.infile else 2 * args.grid_size
    if args.snapshots * n_comp * size > _MAX_SNAPSHOT_SAMPLES:
        raise ValueError(
            f"--snapshots {args.snapshots} x {n_comp} component(s) x "
            f"{size} nodes exceeds the limit of {_MAX_SNAPSHOT_SAMPLES} "
            "samples (512 MiB)")
    if not args.infile:
        grid = make_grid(args.grid_size, args.extent)
        width = args.extent / 4.0 if args.width is None else args.width
        w = cosine_taper(grid.nodes, 2.0 * width, grid.extent / 16.0) \
            * np.exp(1j * args.k0 * grid.nodes)
        comps = [AxialField(grid, "g", v) for v in default(w)]
    # each snapshot goes to a scratch directory in --out (or its nearest
    # existing ancestor) as it is made; all move into --out at the end
    outdir = args.out or "propagation"
    parent = os.path.abspath(outdir)
    while not os.path.isdir(parent):
        parent = os.path.dirname(parent)
    tmp = tempfile.mkdtemp(prefix=".axiwave-", dir=parent)
    try:
        times = np.linspace(0.0, args.t_max, args.snapshots)
        kw = {"method": args.method} if args.kind == "scalar" else {}
        diags = []
        for i, (rows, diag) in enumerate(stream(comps, times, **kw)):
            snap = [_field_from_g(comps[0].grid, g, "f") for g in rows[:n_comp]]
            # continuity_residual is filled in one time later
            checked = [c.values for c in snap] + [
                diag[key] for key in columns if key != "continuity_residual"]
            if not all(np.isfinite(x).all() for x in checked):
                raise ValueError("the run overflowed; lower --k0, "
                                 "--t-max or --extent")
            if i == 0 and not args.infile and not diag["norm"] > 0.0:
                # no node in the window, or only samples whose squares underflow
                raise ValueError(f"--width {width!r} gives a packet of norm "
                                 f"0 (the innermost nodes sit at +/-"
                                 f"{grid.h / 2!r})")
            write_state_csv(snap, os.path.join(tmp, f"snapshot_{i:03d}.csv"))
            diags.append(diag)
        table = {key: [d[key] for d in diags] for key in columns}
        write_diagnostics_csv({"time": times, **table},
                              os.path.join(tmp, "diagnostics.csv"))
        os.makedirs(outdir, exist_ok=True)
        for name in os.listdir(tmp):
            os.replace(os.path.join(tmp, name), os.path.join(outdir, name))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(times)} snapshots written to {outdir}")
    return 0


def cmd_boost(args) -> int:
    beams = read_beams_json(args.infile)
    b = BoostParams(args.v, _parse_axis(args.axis))
    out = []
    for beam in beams:
        out.extend(boost_beam(beam, b))
    path = args.out or "boosted_beams.json"
    write_beams_json(out, path)
    print(f"{len(out)} beams written to {path}")
    return 0


def cmd_transform(args) -> int:
    if args.inverse:
        phi = read_spectral_csv(args.infile)
        fld = synthesize(phi)
        path = args.out or "state.csv"
        write_state_csv(fld, path)
    else:
        fld = read_state_csv(args.infile)
        if isinstance(fld, list):
            raise FileFormatError("transform expects a single-component state")
        phi = analyze(fld)
        path = args.out or "spectral.csv"
        write_spectral_csv(phi, path)
    print(f"written to {path}")
    return 0


_DISPATCH = {"verify": cmd_verify, "propagate": cmd_propagate,
             "boost": cmd_boost, "transform": cmd_transform}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # an overflow shows as a failed verify entry, or as a non-finite
        # result that propagate and the file writers refuse (exit 2)
        with np.errstate(all="ignore"):
            return _DISPATCH[args.command](args)
    except (FileFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
