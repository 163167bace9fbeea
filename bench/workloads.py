"""The three benchmark workloads and the closed loop that drives them.

Every op goes through a public entry point of axiwave and checks its own
output afterwards, so a fast wrong answer counts as a failed op rather
than as a speed-up.  An op on well-formed input fails when it raises,
exits non-zero or breaks its check: a wrong answer.  A malformed-input
probe fails when it does not exit 2: a broken exit-code contract, counted
apart from wrong answers.  Inputs are drawn from the benchmark seed only;
the library sees the generated inputs, never the seed.

Every op of a timed run is one the library handles today, so any
failure there is a regression, and no failure count depends on how many
ops fit into the run.  Malformed inputs that break the exit-code
contract today are known defects: they are not timed ops, but run once as
defect probes in the traced pass and counted there (`cli.uncaught`).

Workloads (one client, closed loop: the next op starts when the last
one has been checked):

  ledger  `axiwave.cli.main(["verify", "--grid-size", "1024", ...])`.
          The contract users run; its cost is the RK4 cross-check (DCT-IV
          / DST-IV through `_trig_sum`) and the dense principal-value
          quadrature with its cached n^2 kernel.
  evolve  direct calls of the four propagators (scalar spectral and rk4,
          wave, weyl, maxwell) at n_half 4096.  The spectral and evolution
          layers do nearly all the work; no file I/O hides them.
  files   `axiwave.cli.main` at the CLI default grid (256): propagate for
          every --kind, transform / transform --inverse round trips and
          boosts of beam ensembles, with one malformed CSV input in 20
          that must exit 2.  File reading and writing dominate.

Parameters that set an op's cost (snapshot counts, RK4 times, beam
counts, velocities) cycle through fixed levels in a seeded order, so
every seed sees the same cost distribution; carriers, widths, centres
and profiles are drawn freely, so every seed sees different inputs.
"""

from __future__ import annotations

import io
import json
import shutil
import time
import warnings
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from axiwave import cli, evolution
from axiwave.grids import AxialField, make_grid

# Captured at import, before a traced run patches numpy.fft, so the
# benchmark's own input generation never shows up in the kernel layer.
_FFT = np.fft.fft
_IFFT = np.fft.ifft

LEDGER_GRID = 1024
LEDGER_SEED_POOL = 4          # ledger seeds per run; repeats test byte-identity
LEDGER_MIN_ENTRIES = 47       # the ledger may grow, never shrink

EVOLVE_N_HALF = 4096
EVOLVE_EXTENT = 640.0         # h = 0.156, the CLI default spacing
EVOLVE_KINDS = ("scalar", "rk4", "wave", "weyl", "maxwell")
NORM_TOL = {"spectral": 1e-10, "rk4": 1e-4}   # the ledger's own tolerances
RHO_TOL = 1e-6
T0_TOL = 1e-12
ROUND_TRIP_TOL = 1e-12

FILES_GRID = 256              # CLI default
FILES_MALFORMED_EVERY = 20
FILES_CYCLE = ("p-scalar", "p-wave", "p-weyl", "p-maxwell", "transform",
               "boost", "boost")
MALFORMED = ("bad-rows", "bad-header")       # fed in the timed run
# `{"beams": 3}` raises TypeError out of cli.main (read_beams_json iterates
# over an int): a known defect, probed once per traced run instead of timed
DEFECT_PROBES = ("beams-not-list",)


@dataclass
class Outcome:
    """What one op's check found."""

    failure: str | None = None
    counters: Counter = field(default_factory=Counter)
    retained: list = field(default_factory=list)


@dataclass
class Op:
    """One timed call plus the untimed preparation and check around it."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object, list], Outcome]
    prepare: Callable[[], None] = lambda: None
    working_set: int = 0          # bytes computed from array sizes
    probe: bool = False           # malformed input that must exit 2


@dataclass
class RunStats:
    ops: list = field(default_factory=list)           # kept on request only
    working_sets: list = field(default_factory=list)
    latencies: list = field(default_factory=list)     # seconds, op call only
    wall: float = 0.0
    wrong: int = 0                # failed ops on well-formed input
    probe_failures: int = 0       # malformed-input probes not exiting 2
    counters: Counter = field(default_factory=Counter)
    retained: list = field(default_factory=list)
    reasons: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.wrong + self.probe_failures


def run_ops(ops: Iterator[Op], seconds: float | None = None,
            span: Callable[[int], object] | None = None,
            keep_ops: bool = False) -> RunStats:
    """Run ops one after another until `seconds` of wall time have passed
    (at least one op) or the iterator ends.  Only the op call itself is timed; stdout,
    stderr and warnings of the call are captured.  `span(i)` returns a
    context entered around the call of op i (the traced run's root span).
    With `keep_ops` the ops are kept for a replay; otherwise each op and
    its inputs are freed once checked, so peak RSS does not grow with the
    number of ops run.
    """
    stats = RunStats()
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if seconds is not None and i and time.perf_counter() - start >= seconds:
            break
        op.prepare()
        out, err = io.StringIO(), io.StringIO()
        result, raised = None, None
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            with span(i) if span else nullcontext():
                t0 = time.perf_counter()
                try:
                    result = op.call()
                except Exception as exc:  # an op that raises is a failed op
                    raised = exc
                t1 = time.perf_counter()
        if keep_ops:
            stats.ops.append(op)
        stats.working_sets.append(op.working_set)
        stats.latencies.append(t1 - t0)
        if raised is not None:
            outcome = Outcome(failure=f"{op.kind}: raised {type(raised).__name__}")
            if op.kind.startswith("cli"):
                outcome.counters["cli.uncaught"] += 1
        else:
            try:
                outcome = op.check(result, caught)
            except Exception as exc:  # unreadable output is a wrong output
                outcome = Outcome(
                    failure=f"{op.kind}: check raised {type(exc).__name__}: {exc}")
        stats.counters.update(outcome.counters)
        stats.retained.extend(outcome.retained)
        if outcome.failure:
            stats.reasons[outcome.failure] += 1
            if op.probe:
                stats.probe_failures += 1
            else:
                stats.wrong += 1
    stats.wall = time.perf_counter() - start
    return stats


class Levels:
    """Cycles through fixed values; each cycle visits every value once,
    in a seeded order."""

    def __init__(self, rng, values):
        self.rng, self.values = rng, list(values)
        self._queue: list = []

    def next(self):
        if not self._queue:
            self._queue = [self.values[k]
                           for k in self.rng.permutation(len(self.values))]
        return self._queue.pop()


def _rel_max(got, want) -> float:
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(np.asarray(got) - want))) / (scale or 1.0)


def _drift(norms) -> float:
    norms = np.asarray(norms, dtype=float)
    return float(np.max(np.abs(norms - norms[0])) / norms[0])


# ---------------------------------------------------------------- ledger


class Ledger:
    """`axiwave verify` at grid 1024, seeds drawn from the benchmark seed."""

    name = "ledger"
    warmup_ops = 1
    defect_probes = staticmethod(lambda: [])

    def __init__(self, seed: int, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        self.rng = rng
        self.pool = [int(s) for s in rng.choice(2 ** 31, LEDGER_SEED_POOL,
                                                replace=False)]
        self.workdir = workdir
        self.first_report: dict = {}

    def _op(self, s: int) -> Op:
        path = self.workdir / f"verify-{s}.json"
        argv = ["verify", "--grid-size", str(LEDGER_GRID), "--seed", str(s),
                "--out", str(path)]

        def check(rc, caught):
            out = Outcome()
            out.counters["verify.warnings"] += len(caught)
            if rc not in (0, 1):
                out.failure = f"cli-verify: exit {rc}, expected 0"
                return out
            data = path.read_bytes()
            summary = json.loads(data)["summary"]
            out.counters["verify.entries_failed"] += summary["failed"]
            if rc != 0 or summary["failed"] or \
                    summary["passed"] < LEDGER_MIN_ENTRIES:
                out.failure = (f"cli-verify: exit {rc}, {summary['passed']} pass "
                             f"{summary['failed']} fail")
            elif self.first_report.setdefault(s, data) != data:
                out.failure = "cli-verify: report differs from the first one"
            return out

        return Op("cli-verify", lambda: cli.main(argv), check,
                  prepare=lambda: path.unlink(missing_ok=True),
                  # dense PV kernel (float) plus its complex upcast in matmul
                  working_set=LEDGER_GRID ** 2 * (8 + 16))

    def ops(self) -> Iterator[Op]:
        while True:
            for k in self.rng.permutation(LEDGER_SEED_POOL):
                yield self._op(self.pool[k])


# ---------------------------------------------------------------- evolve


def _phases(n_half):
    j = np.arange(2 * n_half)
    w = np.exp(1j * np.pi * (n_half - 0.5) * j / n_half)
    c0 = np.exp(-1j * np.pi * (n_half - 0.5) ** 2 / n_half)
    return w, c0


def _positive_frequency_rate(g: np.ndarray, grid) -> np.ndarray:
    """dg/dt = -i |kappa| g in momentum space, by the same unitary discrete
    map as `axiwave.spectral.fourier_full`, evaluated independently."""
    n = grid.n_half
    w, c0 = _phases(n)
    dk = np.pi / grid.extent
    kappa = (np.arange(2 * n) - n + 0.5) * dk
    ghat = grid.h / np.sqrt(2 * np.pi) * c0 * w * _FFT(g * w)
    rate = -1j * np.abs(kappa) * ghat
    return dk / np.sqrt(2 * np.pi) * np.conj(c0 * w) \
        * _IFFT(rate * np.conj(w)) * (2 * n)


def _packet(grid, k0, width, center):
    lam = grid.nodes
    return np.exp(-(((lam - center) / width) ** 2)) * np.exp(1j * k0 * lam)


def _flat_norm(g, h) -> float:
    return float(np.sqrt(np.sum(np.abs(g) ** 2) * h))


class Evolve:
    """Round-robin direct propagator calls on an n_half 4096 grid."""

    name = "evolve"
    warmup_ops = 5
    defect_probes = staticmethod(lambda: [])

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.rng = rng
        self.grid = make_grid(EVOLVE_N_HALF, EVOLVE_EXTENT)
        # RK4 cost grows with t_max; the spectral propagators' does not.
        # Carriers stay at or below 3.5 for rk4, where the stepper meets the
        # ledger's 1e-4 norm tolerance over these times.
        self.levels = {kind: {
            "snapshots": Levels(rng, np.linspace(6, 64, 8).round().astype(int)),
            "t_max": Levels(rng, np.linspace(1.0, 6.0, 6)) if kind == "rk4" else None,
        } for kind in EVOLVE_KINDS}

    def _op(self, kind: str) -> Op:
        rng, levels = self.rng, self.levels[kind]
        d = {"k0": rng.uniform(*((1.0, 3.5) if kind == "rk4" else (2.0, 12.0))),
             "width": rng.uniform(10.0, 40.0),
             "center": rng.uniform(-100.0, 100.0),
             "t_max": levels["t_max"].next() if levels["t_max"]
             else rng.uniform(5.0, 60.0),
             "snapshots": int(levels["snapshots"].next())}
        grid, h = self.grid, self.grid.h
        times = np.linspace(0.0, d["t_max"], d["snapshots"])
        g = _packet(grid, d["k0"], d["width"], d["center"])
        comps = {"weyl": 2, "maxwell": 3}.get(kind, 1)
        working_set = (2 * len(times) * comps + 4) * grid.size * 16
        tol = NORM_TOL["rk4" if kind == "rk4" else "spectral"]

        # observe(res) -> (t=0 (output, input) pairs, snapshot series whose
        # flat norm is conserved, a kind-specific failure or None)
        if kind in ("scalar", "rk4"):
            psi0 = AxialField(grid, "g", g)
            method = "rk4" if kind == "rk4" else "spectral"

            def call():
                return evolution.propagate_scalar(psi0, times, method=method)

            def observe(res):
                snaps = [s.values for s in res.snapshots]
                diag = res.diagnostics
                norms = [_flat_norm(v, h) for v in snaps]
                extra = None
                if _rel_max(diag["norm"], norms) > 1e-12:
                    extra = "diagnostic norm disagrees"
                elif np.min(diag["min_rho"]) < -RHO_TOL * np.max(diag["max_rho"]):
                    extra = "negative density"
                return [(snaps[0], g)], [snaps], extra
        elif kind == "wave":
            # positive-frequency data, so the flat g-norm is conserved
            gdot = _positive_frequency_rate(g, grid)
            psi0, dpsi0 = AxialField(grid, "g", g), AxialField(grid, "g", gdot)

            def call():
                return evolution.propagate_wave(psi0, dpsi0, times)

            def observe(res):
                s0, sd0 = res.snapshots[0]
                return ([(s0.values, g), (sd0.values, gdot)],
                        [[s.values for s, _ in res.snapshots]], None)
        elif kind == "weyl":
            down = _packet(grid, -d["k0"], d["width"], -d["center"])
            psi0 = evolution.SpinorField(grid, "g", g, down)

            def call():
                return evolution.propagate_weyl(psi0, times)

            def observe(res):
                s0 = res.snapshots[0]
                return ([(s0.up, g), (s0.down, down)],
                        [[s.up for s in res.snapshots],
                         [s.down for s in res.snapshots]], None)
        else:
            second = _packet(grid, d["k0"], 0.5 * d["width"], -d["center"])
            values = np.stack([g, second, np.zeros(grid.size, dtype=complex)])
            f0 = evolution.VectorField3(grid, "g", values)

            def call():
                return evolution.propagate_maxwell(f0, times)

            def observe(res):
                sourced = any(np.any(s.values[2]) for s in res.snapshots)
                return ([(res.snapshots[0].values[:2], values[:2])],
                        [[s.values[:2] for s in res.snapshots]],
                        "axial component sourced" if sourced else None)

        def check(res, caught):
            out = Outcome()
            if len(res.snapshots) != len(times):
                out.failure = f"evolve-{kind}: {len(res.snapshots)} snapshots"
                return out
            t0_pairs, series, extra = observe(res)
            drift = max(_drift([_flat_norm(v, h) for v in s]) for s in series)
            if max(_rel_max(a, b) for a, b in t0_pairs) > T0_TOL:
                out.failure = f"evolve-{kind}: t=0 snapshot differs from input"
            elif drift > tol:
                out.failure = f"evolve-{kind}: norm drift {drift:.2e}"
            elif extra:
                out.failure = f"evolve-{kind}: {extra}"
            return out

        return Op(f"evolve-{kind}", call, check, working_set=working_set)

    def ops(self) -> Iterator[Op]:
        while True:
            for kind in EVOLVE_KINDS:
                yield self._op(kind)


# ---------------------------------------------------------------- files


def _read_table(path: Path) -> tuple[str, np.ndarray]:
    """Header comment and numeric rows of an axiwave CSV file."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:] if line.strip()]
    return lines[0], np.array(rows, dtype=float)


def _inv_k_norm(beam: dict) -> float:
    kappa = np.asarray(beam["kappa"])
    mass = np.asarray(beam["re"]) ** 2 + np.asarray(beam["im"]) ** 2
    return float(np.sqrt(np.sum(mass / np.abs(kappa)) * beam["dk"]))


def _blank_cell_count(path: Path) -> tuple[int, list, list]:
    """Blank norm/min_rho cells of a diagnostics.csv, and the filled values."""
    blank, norms, minr = 0, [], []
    for line in path.read_text().splitlines()[1:]:
        cells = line.split(",")
        for col, store in ((1, norms), (2, minr)):
            if cells[col] == "":
                blank += 1
            else:
                store.append(float(cells[col]))
    return blank, norms, minr


class Files:
    """In-process CLI calls at grid 256 that read and write files."""

    name = "files"
    warmup_ops = 8

    def __init__(self, seed: int, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        self.rng = rng
        self.dir = workdir
        self.n = FILES_GRID
        self.levels = {
            "snapshots": Levels(rng, range(3, 11)),
            "pool": Levels(rng, range(4)),
            "beams": Levels(rng, range(6)),
            # the ends +-0.99 come up in every cycle: v = -0.99 keeps ~0.2%
            # of the profile mass, a known defect the retained counters show
            "v": Levels(rng, np.linspace(-0.99, 0.99, 12)),
        }
        self.snapshots = [self._prepare_snapshot(i) for i in range(4)]
        self.beam_files = [self._write_beams(i) for i in range(6)]
        self.malformed = self._write_malformed()

    # -- inputs, written before the timed run
    def _prepare_snapshot(self, i: int) -> Path:
        out = self.dir / f"prep-{i}"
        argv = ["propagate", "--kind", "scalar",
                "--k0", repr(self.rng.uniform(2.0, 10.0)),
                "--t-max", repr(self.rng.uniform(1.0, 10.0)), "--snapshots", "2",
                "--out", str(out)]
        with redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"could not prepare snapshot: {argv}")
        return out / "snapshot_001.csv"

    def _write_beams(self, i: int) -> tuple[Path, str, list]:
        """A beam ensemble mixing beams parallel and oblique to the boost
        axis; a parallel beam boosts into one beam, an oblique one into two."""
        rng, n = self.rng, self.n
        axis = "xyz"[i % 3]
        dk = np.pi / 40.0          # conjugate to the CLI default extent
        kappa = (np.arange(2 * n) - n + 0.5) * dk
        beams, parallel = [], []
        for j in range(2 + i % 4):
            parallel.append((i + j) % 2 == 0)
            if parallel[-1]:
                direction = np.eye(3)[i % 3] * rng.choice([-1.0, 1.0])
            else:
                direction = rng.normal(size=3)
                direction /= np.linalg.norm(direction)
            k0, k1 = rng.uniform(2.0, 8.0, size=2)
            profile = np.exp(-((kappa - k0) ** 2)) * (rng.normal() + 1j * rng.normal()) \
                + 0.3 * np.exp(-((kappa + k1) ** 2)) * rng.normal()
            beams.append({"direction": [float(x) for x in direction], "dk": dk,
                          "kappa": kappa.tolist(), "re": profile.real.tolist(),
                          "im": profile.imag.tolist()})
        path = self.dir / f"beams-{i}.json"
        path.write_text(json.dumps({"beams": beams}))
        return path, axis, parallel

    def _write_malformed(self) -> dict:
        source = self.snapshots[0].read_text().splitlines()
        rows = self.dir / "bad-rows.csv"
        rows.write_text("\n".join(source[:-1]) + "\n")
        header = self.dir / "bad-header.csv"
        header.write_text("\n".join(["# rep=Q n_half=256 h=0.15625"] + source[1:]) + "\n")
        beams = self.dir / "beams-not-list.json"
        beams.write_text('{"beams": 3}\n')
        junk = str(self.dir / "junk.out")
        return {
            "bad-rows": ["transform", "--in", str(rows), "--out", junk],
            "bad-header": ["transform", "--in", str(header), "--out", junk],
            "beams-not-list": ["boost", "--v", "0.5", "--in", str(beams),
                               "--out", junk],
        }

    # -- ops
    def _cli_op(self, kind, argv, check, **fields):
        return Op(f"cli-{kind}", lambda: cli.main(argv), check, **fields)

    def _propagate(self, kind: str) -> Op:
        d = {"k0": self.rng.uniform(2.0, 10.0), "t_max": self.rng.uniform(1.0, 10.0),
             "snapshots": self.levels["snapshots"].next()}
        out_dir = self.dir / f"propagate-{kind}"
        argv = ["propagate", "--kind", kind, "--k0", repr(d["k0"]),
                "--t-max", repr(d["t_max"]), "--snapshots", str(d["snapshots"]),
                "--out", str(out_dir)]
        comps = {"weyl": 2, "maxwell": 3}.get(kind, 1)

        def check(rc, caught):
            out = Outcome()
            if rc != 0:
                out.failure = f"cli-propagate-{kind}: exit {rc}, expected 0"
                return out
            snaps = sorted(out_dir.glob("snapshot_*.csv"))
            blank, norms, minr = _blank_cell_count(out_dir / "diagnostics.csv")
            out.counters["cli.diag_blank_cells"] += blank
            if len(snaps) != d["snapshots"]:
                out.failure = f"cli-propagate-{kind}: {len(snaps)} snapshot files"
                return out
            _, last = _read_table(snaps[-1])
            if last.shape != (2 * self.n, 1 + 2 * comps):
                out.failure = f"cli-propagate-{kind}: snapshot file malformed"
            elif not np.all(np.isfinite(last)):
                out.failure = f"cli-propagate-{kind}: non-finite snapshot"
            elif norms and _drift(norms) > NORM_TOL["spectral"]:
                out.failure = f"cli-propagate-{kind}: norm drift {_drift(norms):.2e}"
            elif minr and min(minr) < 0.0:
                out.failure = f"cli-propagate-{kind}: negative density"
            return out

        return self._cli_op(f"propagate-{kind}", argv, check,
                            prepare=lambda: shutil.rmtree(out_dir, ignore_errors=True),
                            working_set=d["snapshots"] * comps * 2 * self.n * 16)

    def _transform_pair(self) -> tuple[Op, Op]:
        snap = self.snapshots[self.levels["pool"].next()]
        spec = self.dir / "spectral.csv"
        back = self.dir / "roundtrip.csv"
        size = 2 * self.n * 16 * 2

        def check_forward(rc, caught):
            out = Outcome()
            if rc != 0:
                out.failure = f"cli-transform: exit {rc}, expected 0"
                return out
            header, table = _read_table(spec)
            if not header.startswith("# dk=") or table.shape != (2 * self.n, 3) \
                    or not np.all(np.isfinite(table)):
                out.failure = "cli-transform: spectral file malformed"
            return out

        def check_inverse(rc, caught):
            out = Outcome()
            if rc != 0:
                out.failure = f"cli-transform-inverse: exit {rc}, expected 0"
                return out
            _, want = _read_table(snap)
            _, got = _read_table(back)
            if got.shape != want.shape or _rel_max(got, want) > ROUND_TRIP_TOL:
                out.failure = "cli-transform-inverse: round trip differs from snapshot"
            return out

        forward = self._cli_op(
            "transform", ["transform", "--in", str(snap), "--out", str(spec)],
            check_forward, prepare=lambda: spec.unlink(missing_ok=True),
            working_set=size)
        inverse = self._cli_op(
            "transform-inverse",
            ["transform", "--inverse", "--in", str(spec), "--out", str(back)],
            check_inverse, prepare=lambda: back.unlink(missing_ok=True),
            working_set=size)
        return forward, inverse

    def _boost(self) -> Op:
        path, axis, parallel = self.beam_files[self.levels["beams"].next()]
        expected = sum(1 if p else 2 for p in parallel)
        v = float(self.levels["v"].next())
        out_path = self.dir / "boosted.json"
        argv = ["boost", "--v", repr(v), "--axis", axis, "--in", str(path),
                "--out", str(out_path)]

        def check(rc, caught):
            out = Outcome()
            out.counters["relativity.warnings"] += len(caught)
            if rc != 0:
                out.failure = f"cli-boost: exit {rc}, expected 0"
                return out
            beams_in = json.loads(path.read_text())["beams"]
            beams_out = json.loads(out_path.read_text())["beams"]
            if len(beams_out) != expected:
                out.failure = f"cli-boost: {len(beams_out)} beams, expected {expected}"
                return out
            k = 0
            for beam, par in zip(beams_in, parallel):
                group = beams_out[k:k + (1 if par else 2)]
                k += len(group)
                mass = sum(_inv_k_norm(b) ** 2 for b in group)
                out.retained.append(float(np.sqrt(mass)) / _inv_k_norm(beam))
            if not all(np.isfinite(out.retained)):
                out.failure = "cli-boost: non-finite profile"
            return out

        return self._cli_op("boost", argv, check,
                            prepare=lambda: out_path.unlink(missing_ok=True),
                            working_set=path.stat().st_size)

    def _malformed(self, kind: str) -> Op:
        def check(rc, caught):
            if rc != 2:
                return Outcome(failure=f"cli-malformed-{kind}: exit {rc}, expected 2")
            return Outcome()

        return self._cli_op(f"malformed-{kind}", self.malformed[kind], check,
                            probe=True)

    def defect_probes(self) -> list[Op]:
        """Malformed inputs that break the exit-code contract today."""
        return [self._malformed(kind) for kind in DEFECT_PROBES]

    def _regular(self) -> Iterator[Op]:
        while True:
            for k in self.rng.permutation(len(FILES_CYCLE)):
                slot = FILES_CYCLE[k]
                if slot == "transform":
                    yield from self._transform_pair()
                elif slot == "boost":
                    yield self._boost()
                else:
                    yield self._propagate(slot[2:])

    def ops(self) -> Iterator[Op]:
        regular = self._regular()
        bad: list = []
        i = 0
        while True:
            i += 1
            if i % FILES_MALFORMED_EVERY == 0:
                if not bad:
                    bad = list(self.rng.permutation(MALFORMED))
                yield self._malformed(bad.pop())
            else:
                yield next(regular)


WORKLOADS = {w.name: w for w in (Ledger, Evolve, Files)}
