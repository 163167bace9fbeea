"""No surface kept for the tests alone.

Every name `axiwave` exports is referenced by the package itself or by the
benchmark under bench/, and every defaulted parameter of a module-level
function in the package is set by some call there, or is listed below with
the reason it stays.

Both scans read syntax trees, not words.  A reference is a `from ...
import` name, a bare name, an attribute of an axiwave module
(`evolution.propagate_scalar`), or a string constant in bench/tracing.py,
whose name tables bind functions by name.  A parameter is set by a call of
its function, by name or as such an attribute, that passes it by keyword or
by position.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "axiwave"
MODULES = {p.stem for p in PACKAGE.glob("*.py")} | {"axiwave"}
SOURCES = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
CALLERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))
BOUND_BY_BENCH = "bench/ binds the signature; tests/test_bench_names.py"
# defaulted parameters that no call sets, and why each stays
KEPT_DEFAULTS = {
    "_scalar_diagnostics.backend": BOUND_BY_BENCH,
    "propagate_scalar.dt": BOUND_BY_BENCH,
    "propagate_maxwell.constraint_tol": BOUND_BY_BENCH,
    "commutator_residual.mask_fraction": "test_acceptance's commutator "
    "refinement ladder fixes the band in lambda across extents",
}


def _tree(path):
    return ast.parse(path.read_text())


def _module_attr(node) -> str | None:
    """`attr` of `<...>.module.attr` on an axiwave module, else None."""
    if not isinstance(node, ast.Attribute):
        return None
    owner = node.value
    name = owner.id if isinstance(owner, ast.Name) else \
        owner.attr if isinstance(owner, ast.Attribute) else None
    return node.attr if name in MODULES else None


def _callee(call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    return _module_attr(call.func)


def _references(path) -> set:
    refs = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            refs.add(node.id)
        elif _module_attr(node):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and path.name == "tracing.py" \
                and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def _exported():
    tree = _tree(PACKAGE / "__init__.py")
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def test_every_export_is_used_outside_tests():
    refs = set().union(*(_references(p) for p in CALLERS))
    assert [name for name in _exported() if name not in refs] == []


def _defaulted(path):
    """{function name: [(parameter, position or None if keyword-only)]}."""
    out = {}
    for node in _tree(path).body:
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            keyword_only = zip(args.kwonlyargs, args.kw_defaults)
            out[node.name] = [(a.arg, i) for i, a in enumerate(positional)
                              if i >= first] + [
                (a.arg, None) for a, d in keyword_only if d is not None]
    return out


def _set_parameters(path):
    """(callee, parameter name or position) of every argument passed."""
    found = set()
    for call in ast.walk(_tree(path)):
        if isinstance(call, ast.Call) and _callee(call):
            name = _callee(call)
            found.update((name, i) for i in range(len(call.args)))
            found.update((name, kw.arg) for kw in call.keywords if kw.arg)
    return found


def test_every_default_is_set_outside_tests():
    passed = set().union(*(_set_parameters(p) for p in CALLERS))
    unset = sorted(
        f"{fn}.{param}" for path in SOURCES
        for fn, params in _defaulted(path).items() for param, pos in params
        if (fn, param) not in passed and (fn, pos) not in passed)
    assert unset == sorted(KEPT_DEFAULTS)
