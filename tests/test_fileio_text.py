"""The file layer's text: writers against a per-row reference, the CSV
reader's whole-body parse against its per-line parse, and round trips."""

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from axiwave import fileio
from axiwave.fileio import (FileFormatError, read_beams_json,
                            read_spectral_csv, read_state_csv,
                            write_beams_json, write_diagnostics_csv,
                            write_spectral_csv, write_state_csv)
from axiwave.grids import (AxialField, SpectralProfile, make_grid,
                           make_spectral_grid)
from axiwave.relativity import BeamState

BIG = np.finfo(float).max
# -0.0, the smallest subnormal, the largest double, where repr turns to an
# exponent above (1e16) and just either side of where it does below (1e-4)
ODD = [-0.0, 5e-324, BIG, -BIG, 1e16, np.nextafter(1e-4, 1.0),
       np.nextafter(1e-4, 0.0), 1e-4]


def _reference(header, columns):
    """The file text written one row at a time, each float as its repr."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    return "\n".join(header + [",".join(map(repr, row)) for row in rows]) + "\n"


def _odd_values(size, seed):
    rng = np.random.default_rng(seed)
    vals = (rng.normal(size=size) + 1j * rng.normal(size=size)) \
        * 10.0 ** rng.uniform(-300, 300, size=size)
    vals[:len(ODD)] = ODD
    vals.imag[len(ODD):2 * len(ODD)] = ODD
    return vals


def _state_reference(fields):
    grid, n = fields[0].grid, len(fields)
    head = f"# rep={fields[0].rep.upper()} n_half={grid.n_half} h={grid.h!r}"
    names = ["re,im"] if n == 1 else [f"re{i},im{i}" for i in range(1, n + 1)]
    if n > 1:
        head += f" components={n}"
    return _reference([head, ",".join(["lambda"] + names)], [grid.nodes] + [
        part for f in fields for part in (f.values.real, f.values.imag)])


def test_writers_equal_the_per_row_reference(tmp_path):
    extent = 10.0
    # two grids whose spacings differ in the last bit only: the node text
    # is keyed by the exact spacing
    grids = [make_grid(16, extent), make_grid(16, np.nextafter(extent, 20.0))]
    assert grids[0].h != grids[1].h
    assert grids[0].nodes.tolist() != grids[1].nodes.tolist()
    path = tmp_path / "out.csv"
    fileio._node_text.cache_clear()
    for k, grid in enumerate(grids + grids):   # the second pass hits the cache
        for n_comp in (1, 3):
            fields = [AxialField(grid, "g", _odd_values(grid.size, 10 * k + i))
                      for i in range(n_comp)]
            write_state_csv(fields if n_comp > 1 else fields[0], path)
            assert path.read_text() == _state_reference(fields)
        sg = grid.conjugate()
        profile = SpectralProfile(sg, _odd_values(sg.size, k))
        write_spectral_csv(profile, path)
        assert path.read_text() == _reference(
            [f"# dk={sg.dk!r}", "kappa,re,im"],
            [sg.nodes, profile.values.real, profile.values.imag])
    info = fileio._node_text.cache_info()
    assert (info.misses, info.currsize) == (4, 4)
    assert info.hits == 3 * 4 - 4


def test_diagnostics_csv_equals_the_per_row_reference(tmp_path):
    times = np.linspace(0.0, 5.0, 4)
    table = {"time": times, "norm": [1.0, -0.0, 1e16, 5e-324],
             "continuity_residual": [np.nan, 1e-4, np.inf, np.nan]}
    write_diagnostics_csv(table, tmp_path / "d.csv")
    lines = [",".join(table)]
    for row in zip(*table.values()):
        lines.append(",".join("" if math.isnan(x) else repr(float(x))
                              for x in row))
    assert (tmp_path / "d.csv").read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("first, second", [
    (("f", 8, 4.0), ("f", 8, 8.0)),      # same n_half, another spacing
    (("f", 8, 4.0), ("f", 16, 8.0)),     # more nodes after fewer
    (("f", 16, 8.0), ("f", 8, 4.0)),     # fewer nodes after more
    (("f", 8, 4.0), ("g", 8, 4.0)),      # one grid, two reps
])
def test_state_csv_refuses_mismatched_components(tmp_path, first, second):
    fields = [AxialField(make_grid(n, extent), rep,
                         np.ones(2 * n, dtype=complex))
              for rep, n, extent in (first, second)]
    path = tmp_path / "state.csv"
    with pytest.raises(ValueError, match="different grids or reps"):
        write_state_csv(fields, path)
    assert not path.exists()


def _per_line_table(path, header_re, expected_cols_fn):
    """The reader's per-line path on its own: the reference of the
    whole-body parse."""
    lines = Path(path).read_text().splitlines()
    meta = header_re.match(lines[0]).groupdict()
    ncols = expected_cols_fn(meta)
    start = 2 if len(lines) > 1 and \
        lines[1].lstrip().startswith(("lambda", "kappa")) else 1
    rows = [fileio._parse_floats(path, i, line, ncols)
            for i, line in enumerate(lines[start:], start=start + 1)
            if line.strip()]
    return meta, np.array(rows).reshape(len(rows), ncols)


def _outcome(read, *args):
    try:
        meta, data = read(*args)
    except FileFormatError as exc:
        return "refused", str(exc)
    return meta, data.shape, data.tobytes()


_CELL = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False).map(lambda x: f" {x!r}\xa0"),
    st.integers(-10 ** 9, 10 ** 9).map(lambda i: f"{i:_}"),
    st.sampled_from(["nan", "-inf", "infinity", "1e400", "-1e-400", "",
                     " ", "1__0", "_1", "0x10", "١٢", "+.5", "5.",
                     "1e", "--1", "1 2", "　-0.0"]))
_FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_ROW = st.one_of(
    st.lists(_FINITE, min_size=3, max_size=3),
    st.lists(_FINITE, min_size=2, max_size=4),
    st.lists(_CELL, min_size=3, max_size=3),
    st.lists(_CELL, min_size=1, max_size=5)).map(",".join)
_LINE = st.one_of(_ROW, _ROW, _ROW, st.sampled_from(["", "  ", ",,", ", ,"]))


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_LINE, max_size=12), names=st.booleans(),
       components=st.sampled_from(["", " components=2"]))
@example(lines=["0.25,1.0,-0.0", "0.75,5e-324,1e16"], names=True,
         components="")
@example(lines=["1,2,3", "", "4,5,6"], names=False, components="")
@example(lines=["1,2,3", "4,5,6,", "7,8"], names=True, components="")
@example(lines=["1,2,3,4", "5,6"], names=True, components="")
@example(lines=["1,2,3", "4,nan,6"], names=True, components="")
def test_whole_body_parse_equals_the_per_line_parse(lines, names,
                                                    components):
    # the same array bit for bit, or the same FileFormatError text
    head = [f"# rep=F n_half=8 h=0.5{components}"] + \
        (["lambda,re,im"] if names else [])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "t.csv")
        path.write_text("\n".join(head + lines) + "\n")
        args = (path, fileio._STATE_HEADER,
                lambda m: 1 + 2 * (int(m["c"]) if m["c"] else 1))
        assert _outcome(fileio._read_table, *args) == \
            _outcome(_per_line_table, *args)


_VALUES = dict(log_peak=st.floats(-300.0, 300.0),
               seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=40, deadline=None)
@given(n_half=st.integers(8, 40), log_extent=st.floats(-100.0, 100.0),
       n_comp=st.integers(1, 3), rep=st.sampled_from(["f", "g"]), **_VALUES)
def test_csv_write_read_write_is_byte_identical(n_half, log_extent, n_comp,
                                                rep, log_peak, seed):
    grid = make_grid(n_half, 10.0 ** log_extent)
    rng = np.random.default_rng(seed)
    fields = [AxialField(grid, rep, 10.0 ** log_peak * (
        rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)))
        for _ in range(n_comp)]
    profile = SpectralProfile(grid.conjugate(), fields[0].values)
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a.csv"), Path(tmp, "b.csv")
        write_state_csv(fields, a)
        write_state_csv(read_state_csv(a), b)
        assert a.read_bytes() == b.read_bytes()
        write_spectral_csv(profile, a)
        write_spectral_csv(read_spectral_csv(a), b)
        assert a.read_bytes() == b.read_bytes()


@settings(max_examples=40, deadline=None)
@given(n_half=st.integers(8, 40), log_dk=st.floats(-100.0, 100.0),
       count=st.integers(0, 3), **_VALUES)
@example(n_half=8, log_dk=0.0, count=1, log_peak=0.0, seed=27495783)
def test_beams_json_write_read_write_is_byte_identical(n_half, log_dk, count,
                                                       log_peak, seed):
    sg = make_spectral_grid(n_half, 10.0 ** log_dk)
    rng = np.random.default_rng(seed)
    beams = []
    for _ in range(count):
        axis = rng.normal(size=3)
        beams.append(BeamState(axis / np.linalg.norm(axis), SpectralProfile(
            sg, 10.0 ** log_peak * (rng.normal(size=sg.size)
                                    + 1j * rng.normal(size=sg.size)))))
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a.json"), Path(tmp, "b.json")
        write_beams_json(beams, a)
        write_beams_json(read_beams_json(a), b)
        # x / |x| is not idempotent in floating point: a reader that
        # divided each direction by its norm again would move about 1 unit
        # vector in 100 by up to 2 ulp (the example above is one of them)
        assert a.read_bytes() == b.read_bytes()
