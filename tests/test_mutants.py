"""Mutants of the boost generators that the ledger must catch.

Each mutant changes one constant of an operator factory.  It is applied by
monkeypatch on every module that binds the factory (`operators` for the
ordering residual, `verify` for the ledger's own calls), so the package
source is never rewritten.  "boost generator factors" ties the 3/2 of the
local factor N' to the 3/2 of the dilation inside N; without that entry
these three mutants pass all other entries.
"""

import numpy as np
import pytest

from axiwave import operators, verify
from axiwave.operators import LinearOperatorHandle, _dhalf
from axiwave.transforms import _hilbert
from axiwave.verify import RunConfig, run_verification


def local_with(const):
    """`boost_generator_local` with its 3/2 replaced by `const`."""
    def factory(grid):
        lam, sgn = grid.nodes, np.sign(grid.nodes)
        return LinearOperatorHandle("N'", grid, lambda g: 1j * sgn * (
            lam * _dhalf(g, grid) + const * g))
    return factory


def config_with(const):
    """`boost_generator_config` with its dilation's 3/2 replaced by `const`."""
    def factory(grid, ordering="h_first"):
        lam, sgn = grid.nodes, np.sign(grid.nodes)

        def dilation(g):
            return -sgn * (lam * _dhalf(g, grid) + const * g)

        if ordering == "h_first":
            return LinearOperatorHandle(
                f"N[{ordering}]", grid,
                lambda g: _hilbert(dilation(g), grid, "minus"))
        return LinearOperatorHandle(
            f"N[{ordering}]", grid,
            lambda g: dilation(_hilbert(g, grid, "plus")))
    return factory


# name -> (factory name, mutant factory); residuals of the new entry at the
# default config: 0.174, 0.523 and 0.033
MUTANTS = {
    "local 3/2 -> 1": ("boost_generator_local", local_with(1.0)),
    "local 3/2 -> 0": ("boost_generator_local", local_with(0.0)),
    "config 3/2 -> 1.4": ("boost_generator_config", config_with(1.4)),
}


def _patch(monkeypatch, attr, factory):
    for module in (operators, verify):
        monkeypatch.setattr(module, attr, factory)


@pytest.fixture(scope="module")
def clean():
    return run_verification(RunConfig())


def test_unpatched_ledger_passes(clean):
    assert clean.all_passed


@pytest.mark.parametrize("attr, factory", [
    ("boost_generator_local", local_with(1.5)),
    ("boost_generator_config", config_with(1.5))], ids=["local", "config"])
def test_mutant_factories_at_three_halves_are_the_operators(
        monkeypatch, clean, attr, factory):
    # the mutants differ from the package's operators in the constant alone
    _patch(monkeypatch, attr, factory)
    assert run_verification(RunConfig()).to_json() == clean.to_json()


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_fails_boost_generator_factors(monkeypatch, name):
    _patch(monkeypatch, *MUTANTS[name])
    report = run_verification(RunConfig())
    entry = {e.label: e for e in report.entries}["boost generator factors"]
    print(f"{name}: boost generator factors = {entry.residual:.3g}")
    assert not entry.passed
