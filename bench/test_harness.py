"""Tests of the benchmark harness itself (not part of the library suite).

    python3 -m pytest -q bench/test_harness.py
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
from workloads import Evolve, Files, Levels, Op, Outcome, run_ops  # noqa: E402


@pytest.fixture
def files(tmp_path):
    return Files(seed=3, workdir=tmp_path)


def test_round_trip_passes_when_untouched(files):
    stats = run_ops(iter(files._transform_pair()))
    assert (stats.attempted, stats.failed) == (2, 0)


def test_perturbed_round_trip_file_counts_as_failed(files):
    forward, inverse = files._transform_pair()
    spectral = files.dir / "spectral.csv"

    def perturb():
        lines = spectral.read_text().splitlines()
        kappa, re, im = lines[300].split(",")
        lines[300] = f"{kappa},{float(re) + 1e-6},{im}"
        spectral.write_text("\n".join(lines) + "\n")
        inverse_prepare()

    inverse_prepare = inverse.prepare
    inverse.prepare = perturb
    stats = run_ops(iter([forward, inverse]))
    assert (stats.attempted, stats.failed, stats.wrong) == (2, 1, 1)
    assert "round trip" in next(iter(stats.reasons))


def test_malformed_input_exiting_2_passes(files):
    stats = run_ops(iter([files._malformed("bad-rows"),
                          files._malformed("bad-header")]))
    assert (stats.attempted, stats.failed) == (2, 0)


def test_timed_run_feeds_only_malformed_inputs_handled_today(files):
    fed = {op.kind for op in itertools.islice(files.ops(), 200) if op.probe}
    assert fed == {"cli-malformed-bad-rows", "cli-malformed-bad-header"}
    probed = {op.kind for op in files.defect_probes()}
    assert probed == {"cli-malformed-beams-not-list"}


def test_raising_op_is_wrong_and_raising_probe_is_failed():
    def boom():
        raise TypeError("not a list")

    stats = run_ops(iter([Op("cli-x", boom, lambda r, c: Outcome()),
                          Op("cli-x", boom, lambda r, c: Outcome(), probe=True)]))
    assert (stats.failed, stats.wrong, stats.probe_failures) == (2, 1, 1)
    assert stats.counters["cli.uncaught"] == 2


def test_wrong_evolution_output_counts_as_wrong(tmp_path):
    wl = Evolve(seed=5, workdir=tmp_path)
    op = next(wl.ops())
    honest = op.call

    def corrupted():
        res = honest()
        res.snapshots[-1].values[100] += 1e-3   # norm now drifts
        return res

    assert run_ops(iter([op])).failed == 0
    op.call = corrupted
    stats = run_ops(iter([op]))
    assert (stats.failed, stats.wrong) == (1, 1)


def test_levels_visit_every_value_once_per_cycle():
    levels = Levels(np.random.default_rng(0), range(8))
    assert sorted(levels.next() for _ in range(8)) == list(range(8))


def test_tail_keeps_ten_samples_beyond():
    lat = [float(i) for i in range(100)]
    value, pct = run.tail(lat)
    assert sum(x > value for x in lat) == 10
    assert pct == 90.0
    assert run.tail([1.0, 2.0, 3.0]) == (2.0, 50.0)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run._per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == {"ledger", "evolve", "files"}


def test_tracer_self_times_add_up_and_uninstall_restores():
    import axiwave.cli
    import axiwave.spectral
    from axiwave.grids import AxialField, make_grid
    from tracing import Tracer

    original = axiwave.cli.analyze
    grid = make_grid(64, 10.0)
    psi = AxialField(grid, "g", np.exp(-grid.nodes ** 2))
    tracer = Tracer()
    tracer.install()
    try:
        assert axiwave.cli.analyze is axiwave.spectral.analyze is not original
        with tracer.op_span(0):
            axiwave.spectral.analyze(psi)
    finally:
        tracer.uninstall()
    assert axiwave.cli.analyze is original
    calls = dict(zip(tracer.names, tracer.calls))
    assert calls["spectral.analyze"] == 1 and calls["kernel.r2r.dct"] == 1
    root = tracer.stored["end"][-1] - tracer.stored["start"][-1]
    assert sum(tracer.self_time) == pytest.approx(root, rel=1e-9)
