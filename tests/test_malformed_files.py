"""The CLI's exit-code contract on malformed input files, as a property.

Valid state CSVs, spectral CSVs and beam JSON files are mutated in one of
three ways that always leave them malformed: a number replaced by an
integer of 310 to 5,000 digits (beyond float range, and from 4,301 digits
beyond what int() reads), a number replaced by text that is no usable
number (a JSON boolean included), or bytes that are not UTF-8 spliced in.  `transform`, `transform
--inverse`, `boost` and `propagate --in` must exit 2 with exactly one
`error:` line on stderr, which names the file, no traceback, and write
nothing.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from axiwave.cli import main
from axiwave.fileio import (write_beams_json, write_spectral_csv,
                            write_state_csv)
from axiwave.grids import AxialField, SpectralProfile, make_grid
from axiwave.relativity import BeamState

# a number token: not part of a name such as "re1", nor of a longer number
_NUMBER = re.compile(r"(?<![\w.+-])-?\d+(?:\.\d*)?(?:e[-+]?\d+)?(?![\w.])")
# "true" and "false" are JSON booleans in a beam file, never numbers
_GARBAGE = ["", "x", "1e", "nan", "inf", "-inf", "1,2", "0x1p3", "--1",
            "true", "false"]
_NOT_UTF8 = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80\x80", b"\xfe\xff"]


def _sources():
    """{command: (argv before --in, file name, file bytes)}, all valid."""
    grid = make_grid(8, 4.0)
    rng = np.random.default_rng(0)
    field = AxialField(grid, "f", rng.normal(size=16) + 1j * rng.normal(
        size=16))
    profile = SpectralProfile(grid.conjugate(), field.values)
    beam = BeamState(np.array([0.0, 0.6, 0.8]), profile)
    with tempfile.TemporaryDirectory() as tmp:
        state, spec, beams = (Path(tmp, name) for name in
                              ("state.csv", "spec.csv", "beams.json"))
        write_state_csv(field, state)
        write_spectral_csv(profile, spec)
        write_beams_json([beam], beams)
        return {"transform": (["transform"], state.name, state.read_bytes()),
                "inverse": (["transform", "--inverse"], spec.name,
                            spec.read_bytes()),
                "boost": (["boost", "--v", "0.5"], beams.name,
                          beams.read_bytes()),
                "propagate": (["propagate", "--snapshots", "2"], state.name,
                              state.read_bytes())}


SOURCES = _sources()
_OVERSIZED = st.integers(310, 5000).map(lambda digits: "9" * digits)


@st.composite
def _mutated(draw):
    """(command, name, bytes) of one source with one mutation applied."""
    command = draw(st.sampled_from(sorted(SOURCES)))
    argv, name, data = SOURCES[command]
    text = data.decode()
    how = draw(st.sampled_from(["oversized", "garbage", "not utf-8"]))
    if how == "not utf-8":
        at = draw(st.integers(0, len(data)))
        return argv, name, data[:at] + draw(st.sampled_from(_NOT_UTF8)) \
            + data[at:]
    spans = [m.span() for m in _NUMBER.finditer(text)]
    start, stop = draw(st.sampled_from(spans))
    new = draw(_OVERSIZED if how == "oversized" else st.sampled_from(_GARBAGE))
    return argv, name, (text[:start] + new + text[stop:]).encode()


@settings(max_examples=300, deadline=None)
@given(case=_mutated())
def test_malformed_files_exit_2_with_one_error_line(case):
    argv, name, data = case
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp, name), Path(tmp, "out")
        src.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--in", str(src), "--out", str(out)])
        lines = err.getvalue().splitlines()
        assert code == 2, err.getvalue()
        assert len(lines) == 1 and lines[0].startswith(f"error: {src}")
        assert "Traceback" not in err.getvalue()
        assert not out.exists()
