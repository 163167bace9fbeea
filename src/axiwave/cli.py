"""Command-line surface: verify / propagate / boost / transform.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
The verify subcommand prints the identity table and writes the
machine-readable JSON report; serial runs with the same configuration
and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .evolution import (SpinorField, VectorField3, propagate_maxwell,
                        propagate_scalar, propagate_wave, propagate_weyl)
from .fileio import (FileFormatError, read_beams_json, read_spectral_csv,
                     read_state_csv, write_beams_json, write_components_csv,
                     write_spectral_csv, write_state_csv)
from .grids import AxialField, convert_rep, make_grid
from .relativity import BoostParams, boost_beam
from .spectral import analyze, fourier_full, fourier_full_inverse, synthesize
from .transforms import cosine_taper
from .verify import RunConfig, run_verification


def _common(parser):
    parser.add_argument("--grid-size", type=int, default=256,
                        help="nodes per half-line (default 256)")
    parser.add_argument("--extent", type=float, default=40.0,
                        help="half-line length (default 40)")
    parser.add_argument("--seed", type=int, default=7,
                        help="probe-suite seed (default 7)")
    parser.add_argument("--tol-scale", type=float, default=1.0,
                        help="multiply every tolerance (0 fails all inexact)")
    parser.add_argument("--out", default=None, help="output path or directory")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="axiwave",
        description="operator calculus for waves localized along an axis")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the operator-identity ledger")
    _common(v)

    pr = sub.add_parser("propagate", help="propagate a windowed wave packet")
    _common(pr)
    pr.add_argument("--kind", choices=["scalar", "wave", "weyl", "maxwell"],
                    default="scalar")
    pr.add_argument("--k0", type=float, default=8.0, help="carrier momentum")
    pr.add_argument("--width", type=float, default=None,
                    help="window width (default extent/4)")
    pr.add_argument("--t-max", type=float, default=5.0)
    pr.add_argument("--snapshots", type=int, default=6)
    pr.add_argument("--method", choices=["spectral", "rk4"], default="spectral")
    pr.add_argument("--in", dest="infile", default=None,
                    help="initial state CSV (overrides the built-in packet)")

    b = sub.add_parser("boost", help="Lorentz-boost a beam ensemble")
    _common(b)
    b.add_argument("--v", type=float, required=True, help="velocity, |v| < 1")
    b.add_argument("--axis", default="z", help="x|y|z or 'x,y,z' components")
    b.add_argument("--in", dest="infile", required=True, help="beams JSON")

    t = sub.add_parser("transform",
                       help="state CSV <-> spectral CSV via the unitary map")
    _common(t)
    t.add_argument("--in", dest="infile", required=True)
    t.add_argument("--inverse", action="store_true",
                   help="spectral -> state instead of state -> spectral")
    return p


def _parse_axis(text: str) -> np.ndarray:
    named = {"x": [1.0, 0.0, 0.0], "y": [0.0, 1.0, 0.0], "z": [0.0, 0.0, 1.0]}
    if text in named:
        return np.array(named[text])
    try:
        vec = np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise FileFormatError(f"cannot parse axis {text!r}") from None
    if vec.shape != (3,) or not np.linalg.norm(vec) > 0:
        raise FileFormatError(f"cannot parse axis {text!r}")
    return vec / np.linalg.norm(vec)


def _default_packet(grid, k0, width):
    lam = grid.nodes
    win = cosine_taper(lam, 2.0 * width, grid.extent / 16.0)
    return AxialField(grid, "g", win * np.exp(1j * k0 * lam))


def cmd_verify(args) -> int:
    cfg = RunConfig(n_half=args.grid_size, extent=args.extent, seed=args.seed,
                    n_half_fine=max(2 * args.grid_size, 16),
                    tol_scale=args.tol_scale)
    report = run_verification(cfg)
    print(report.to_text())
    out = args.out or "verify_report.json"
    with open(out, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    print(f"report written to {out}")
    return 0 if report.all_passed else 1


def _write_diag(path, times, diag):
    keys = ["norm", "min_rho", "continuity_residual"]
    with open(path, "w") as fh:
        fh.write("time,norm,min_rho,continuity_residual\n")
        for i, t in enumerate(times):
            row = [repr(float(t))]
            for key in keys:
                arr = diag.get(key)
                if arr is None or (hasattr(arr, "__len__") and
                                   np.isnan(arr[i])):
                    row.append("")
                else:
                    row.append(repr(float(arr[i])))
            fh.write(",".join(row) + "\n")


def cmd_propagate(args) -> int:
    if not (np.isfinite(args.t_max) and args.t_max > 0.0):
        raise ValueError("--t-max must be finite and positive")
    if args.snapshots < 1:
        raise ValueError("--snapshots must be at least 1")
    if args.kind == "wave" and args.infile:
        raise ValueError("--in is not supported for --kind wave")
    grid = make_grid(args.grid_size, args.extent)
    width = args.width if args.width is not None else args.extent / 4.0
    times = np.linspace(0.0, args.t_max, args.snapshots)
    outdir = args.out or "propagation"
    os.makedirs(outdir, exist_ok=True)

    if args.method == "rk4" and args.kind != "scalar":
        raise FileFormatError("rk4 stepping is only available for --kind scalar")

    if args.kind == "scalar":
        if args.infile:
            psi0 = read_state_csv(args.infile)
            if isinstance(psi0, list):
                raise FileFormatError("scalar initial data must have one component")
            grid = psi0.grid
        else:
            psi0 = _default_packet(grid, args.k0, width)
        res = propagate_scalar(psi0, times, method=args.method)
        for i, snap in enumerate(res.snapshots):
            write_state_csv(convert_rep(snap, "f"),
                            os.path.join(outdir, f"snapshot_{i:03d}.csv"))
    elif args.kind == "wave":
        psi0 = _default_packet(grid, args.k0, width)
        sg = grid.conjugate()
        gdot = fourier_full_inverse(
            -1j * sg.nodes * fourier_full(psi0.values, grid), sg)
        res = propagate_wave(psi0, AxialField(grid, "g", gdot), times)
        for i, (snap, _) in enumerate(res.snapshots):
            write_state_csv(convert_rep(snap, "f"),
                            os.path.join(outdir, f"snapshot_{i:03d}.csv"))
    elif args.kind == "weyl":
        if args.infile:
            comps = read_state_csv(args.infile)
            if not isinstance(comps, list) or len(comps) != 2:
                raise FileFormatError("weyl initial data needs 2 components")
            grid = comps[0].grid
            psi0 = SpinorField(grid, comps[0].rep, comps[0].values,
                               comps[1].values)
        else:
            pkt = _default_packet(grid, args.k0, width)
            psi0 = SpinorField(grid, "g", pkt.values, np.zeros(grid.size))
        res = propagate_weyl(psi0, times)
        for i, snap in enumerate(res.snapshots):
            write_components_csv(
                [convert_rep(snap.component(j), "f") for j in range(2)],
                os.path.join(outdir, f"snapshot_{i:03d}.csv"))
    else:  # maxwell
        if args.infile:
            comps = read_state_csv(args.infile)
            if not isinstance(comps, list) or len(comps) != 3:
                raise FileFormatError("maxwell initial data needs 3 components")
            grid = comps[0].grid
            f0 = VectorField3(grid, comps[0].rep,
                              np.stack([c.values for c in comps]))
        else:
            pkt = _default_packet(grid, args.k0, width)
            f0 = VectorField3(grid, "g", np.stack(
                [pkt.values, 1j * pkt.values,
                 np.zeros(grid.size, dtype=complex)]))
        res = propagate_maxwell(f0, times)
        for i, snap in enumerate(res.snapshots):
            write_components_csv(
                [convert_rep(snap.component(j), "f") for j in range(3)],
                os.path.join(outdir, f"snapshot_{i:03d}.csv"))

    _write_diag(os.path.join(outdir, "diagnostics.csv"), times,
                res.diagnostics)
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
        return _DISPATCH[args.command](args)
    except (FileFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
