"""CSV and JSON serialization of fields, profiles and beam ensembles.

State CSV: one row per node, `lambda,re,im`, preceded by a comment header
`# rep=F|G n_half=<int> h=<float>`.  Spectral CSV: `kappa,re,im` with
header `# dk=<float>`.  Multi-component fields use the same layout with
`components=<n>` in the header and re/im column pairs per component;
`write_state_csv` writes both layouts (one field or a list of components
on one grid, in one rep) and `read_state_csv` reads both.  The readers
reject non-finite cells, and the writers refuse to write one, or
components that do not share a grid and rep, or more than 3 of them
(ValueError, before the file is opened), so whatever is written reads
back.
Beam ensembles are JSON: {"beams": [{"direction": [x,y,z],
"kappa": [...], "re": [...], "im": [...]}]}.  The diagnostics CSV of a
propagate run is one column per named quantity, NaN written blank.

Every float is written as its repr (the shortest text that round-trips),
so identical data serializes byte-identically; the readers accept exactly
what `float()` accepts.  A grid's nodes are `offset_nodes(n_half,
spacing)`, so their text is formatted once per grid and kept for a few
grids (`_node_text`).
"""

from __future__ import annotations

import functools
import json
import math
import re

import numpy as np

from .grids import (AxialField, SpectralProfile, check_grid, make_grid,
                    make_spectral_grid, offset_nodes)
from .relativity import BeamState


class FileFormatError(ValueError):
    """Malformed input file; message carries path and line number."""


def _check_finite(path, columns):
    if not all(np.isfinite(c).all() for c in columns):
        raise ValueError(f"{path}: refusing to write a non-finite value")


@functools.lru_cache(maxsize=4)
def _node_text(n_half: int, spacing: float) -> tuple[str, ...]:
    """The repr of each of `offset_nodes(n_half, spacing)`: the node text
    of every grid with the key that `same_as` compares."""
    return tuple(map(repr, offset_nodes(n_half, spacing).tolist()))


def _float_text(column) -> list[str]:
    return list(map(repr, np.asarray(column, dtype=float).tolist()))


def _write_rows(path, header, columns):
    """Header lines, then one row per index of the equal-length text
    columns, in one write."""
    with open(path, "w") as fh:
        fh.write("\n".join(
            [*header, *map(",".join, zip(*columns, strict=True)), ""]))


def write_state_csv(fields: AxialField | list[AxialField], path):
    """One field, or a list of components on one grid, in one rep (spinor,
    vector)."""
    fields = fields if isinstance(fields, list) else [fields]
    if not 1 <= len(fields) <= 3:   # a field, a spinor or a 3-vector
        raise ValueError(f"{path}: refusing to write {len(fields)} components")
    grid, n = fields[0].grid, len(fields)
    if not all(f.grid.same_as(grid) and f.rep == fields[0].rep
               for f in fields):
        raise ValueError(f"{path}: refusing to write components on "
                         "different grids or reps")
    parts = [part for f in fields for part in (f.values.real, f.values.imag)]
    _check_finite(path, parts)
    rep = "F" if fields[0].rep == "f" else "G"
    head = f"# rep={rep} n_half={grid.n_half} h={float(grid.h)!r}"
    if n > 1:
        head += f" components={n}"
    names = ["re,im"] if n == 1 else [f"re{i},im{i}" for i in range(1, n + 1)]
    _write_rows(path, [head, ",".join(["lambda"] + names)],
                [_node_text(grid.n_half, grid.h), *map(_float_text, parts)])


_STATE_HEADER = re.compile(
    r"#\s*rep=(?P<rep>[FG])\s+n_half=(?P<n>\d+)\s+h=(?P<h>[^\s]+)"
    r"(?:\s+components=(?P<c>[1-3]))?\s*$")
_SPECTRAL_HEADER = re.compile(r"#\s*dk=(?P<dk>[^\s]+)\s*$")


def _parse_floats(path, lineno, line, expected):
    parts = line.split(",")
    if len(parts) != expected:
        raise FileFormatError(
            f"{path}:{lineno}: expected {expected} columns, got {len(parts)}")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    if not all(map(math.isfinite, vals)):
        raise FileFormatError(f"{path}:{lineno}: non-finite value")
    return vals


def _read_table(path, header_re, expected_cols_fn):
    with open(path) as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: {exc}") from None
    if not lines:
        raise FileFormatError(f"{path}:1: empty file")
    m = header_re.match(lines[0])
    if m is None:
        raise FileFormatError(f"{path}:1: malformed header {lines[0]!r}")
    meta = m.groupdict()
    ncols = expected_cols_fn(meta)
    start = 1
    if start < len(lines) and lines[start].lstrip().startswith(("lambda", "kappa")):
        start += 1
    body = lines[start:]
    # the whole body in one cast, which calls float() on each cell; any
    # fault (a blank line too) is found and reported line by line below
    if all(line.count(",") == ncols - 1 for line in body):
        try:
            data = np.array(",".join(body).split(","), dtype=float)
        except ValueError:
            pass
        else:
            if np.isfinite(data).all():
                return meta, data.reshape(len(body), ncols)
    rows = []
    for i, line in enumerate(body, start=start + 1):
        if not line.strip():
            continue
        rows.append(_parse_floats(path, i, line, ncols))
    return meta, np.array(rows).reshape(len(rows), ncols)


def _file_grid(prefix, name, text, n_half, column, build):
    """The grid `build(n_half, spacing)` of a file's spacing `name`=`text`,
    by the grid rule; `column` must hold its nodes.  n_half may be text."""
    try:
        spacing, n_half = float(text), int(n_half)
        check_grid(n_half, spacing, name, conjugate=True)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{prefix}{name}={text}: {exc}") from None
    if column.shape != (2 * n_half,):
        raise FileFormatError(
            f"{prefix}expected {2 * n_half} nodes, found {column.size}")
    grid = build(n_half, spacing)
    if np.max(np.abs(column - grid.nodes)) > 1e-9 * spacing:
        raise FileFormatError(f"{prefix}nodes do not match the half-offset grid")
    return grid


def read_state_csv(path) -> AxialField | list[AxialField]:
    """Read a state CSV; returns a list when the file has several components."""
    meta, data = _read_table(path, _STATE_HEADER,
                             lambda m: 1 + 2 * int(m["c"] or 1))
    grid = _file_grid(f"{path}:1: ", "h", meta["h"], meta["n"], data[:, 0],
                      lambda n, h: make_grid(n, n * h))
    rep = "f" if meta["rep"] == "F" else "g"
    n_comp = int(meta["c"] or 1)
    fields = [AxialField(grid, rep, data[:, 1 + 2 * i] + 1j * data[:, 2 + 2 * i])
              for i in range(n_comp)]
    return fields[0] if n_comp == 1 else fields


def write_spectral_csv(profile: SpectralProfile, path):
    parts = [profile.values.real, profile.values.imag]
    _check_finite(path, parts)
    grid = profile.grid
    _write_rows(path, [f"# dk={float(grid.dk)!r}", "kappa,re,im"],
                [_node_text(grid.n_half, grid.dk), *map(_float_text, parts)])


def read_spectral_csv(path) -> SpectralProfile:
    meta, data = _read_table(path, _SPECTRAL_HEADER, lambda m: 3)
    sg = _file_grid(f"{path}:1: ", "dk", meta["dk"], len(data) // 2, data[:, 0],
                    make_spectral_grid)
    return SpectralProfile(sg, data[:, 1] + 1j * data[:, 2])


def write_diagnostics_csv(table: dict, path):
    """One column per name of `table` (values per time), NaN (no centered
    stencil) written blank."""
    columns = [np.asarray(col, dtype=float).tolist() for col in table.values()]
    _write_rows(path, [",".join(table)], [
        ["" if math.isnan(x) else repr(x) for x in col] for col in columns])


def _json_list(texts):
    """`json.dump(..., indent=1)`'s text of a float list at a beam key."""
    return "[\n    " + ",\n    ".join(texts) + "\n   ]"


def write_beams_json(beams, path):
    """The text of `json.dump(payload, fh, indent=1, sort_keys=True)`, one
    beam at a time; for a finite float that encoder writes its repr."""
    beams = list(beams)
    _check_finite(path, [x for b in beams
                         for x in (b.direction, b.profile.values)])
    with open(path, "w") as fh:
        fh.write('{\n "beams": [')
        for i, b in enumerate(beams):
            grid, values = b.profile.grid, b.profile.values
            fields = ",\n   ".join(f'"{key}": {text}' for key, text in (
                ("direction", _json_list(_float_text(b.direction))),
                ("dk", repr(float(grid.dk))),
                ("im", _json_list(_float_text(values.imag))),
                ("kappa", _json_list(_node_text(grid.n_half, grid.dk))),
                ("re", _json_list(_float_text(values.real)))))
            fh.write(f'{"," if i else ""}\n  {{\n   {fields}\n  }}')
        fh.write("\n ]\n}\n" if beams else "]\n}\n")


def _refuse_booleans(key, value):
    """Refuse a JSON boolean anywhere in a beam's number or (nested) list
    of numbers at `key` (TypeError): numpy reads true and false as 1.0 and
    0.0."""
    items = value if isinstance(value, list) else [value]
    kinds = set(map(type, items))
    if bool in kinds:
        raise TypeError(f"{key!r} holds a boolean, not a number")
    if list in kinds:
        for item in items:
            if isinstance(item, list):
                _refuse_booleans(key, item)


def read_beams_json(path) -> list[BeamState]:
    with open(path) as fh:
        try:   # integers read as floats: one beyond float range is inf
            payload = json.load(fh, parse_int=float)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}:{exc.lineno}: {exc.msg}") from None
        except ValueError as exc:   # bytes that are not UTF-8
            raise FileFormatError(f"{path}: {exc}") from None
    if not isinstance(payload, dict) or \
            not isinstance(payload.get("beams"), list):
        raise FileFormatError(f"{path}: need an object with a 'beams' list")
    beams = []
    for i, entry in enumerate(payload["beams"]):
        where = f"{path}: beam {i}"
        if not isinstance(entry, dict):
            raise FileFormatError(f"{where}: entry must be an object")
        try:
            for key in ("kappa", "re", "im", "direction", "dk"):
                _refuse_booleans(key, entry.get(key))
            arrays = [np.asarray(entry[key], dtype=float)
                      for key in ("kappa", "re", "im", "direction")]
            kappa, re_, im_, direction = arrays
            if not all(np.isfinite(a).all() for a in arrays):
                raise ValueError("non-finite number")
            sg = _file_grid("", "dk", entry["dk"] if "dk" in entry else
                            np.diff(kappa).min(initial=np.inf),
                            kappa.size // 2, kappa, make_spectral_grid)
            beams.append(BeamState(direction,
                                   SpectralProfile(sg, re_ + 1j * im_)))
        except KeyError as exc:
            raise FileFormatError(f"{where}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise FileFormatError(f"{where}: {exc}") from None
    return beams
