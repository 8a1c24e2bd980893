"""Ratchets on the package's settable values and on its unreached public names.

Counts every parameter default (positional and keyword-only) and every
annotated class attribute with a value in ``src/sltwist``.  A new option
changes the count, so it has to change ``SETTABLE_VALUES`` in the same
diff; a value that every caller leaves alone belongs inside its function.

A public name of ``sltwist`` or ``sltwist.geometry`` is reached when the
package's own code (outside the ``__init__.py`` re-exports) refers to it
as a name or an attribute, or a file of the benchmark, ``perfbench/``,
names it, in code or in a string such as a traced span.  The names that
only tests reach are pinned in ``TESTS_ONLY``: a new one, or a kept one
that the program comes to reach, changes the pin in the same diff.
"""

import ast
import re
from pathlib import Path

SETTABLE_VALUES = 7

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sltwist"

TESTS_ONLY = {
    # item 10: the cone's special Lagrangian phase, a candidate row of verify
    "phase_relation_residual",
    # item 11: the explicit curves, which a twisted product can take as its curve
    "cs_residual",
    "cs_closing_period",
    "hs_curve_sampler",
    # item 18: the paper's small-twist laws, to be measured as limits: the
    # necklace law, and a bulge's approach to its sphere as tau -> 0
    "necklace_scaling_ratio",
    "bulge_sphere_distance",
    # acceptance criterion 8: the su(n) basis of the torque fluxes
    "su_basis",
    # acceptance criterion 11 and test_catenoid: the unit profile's reflection
    # residual, a number of the degree alone, which neck no longer prints
    "verify_catenoid_symmetry",
}


def _settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def test_counter_sees_every_kind_of_default():
    tree = ast.parse("def f(a, b=1, *, c=2, d): pass\n"
                     "g = lambda x=0: x\n"
                     "class C:\n    u: int\n    v: int = 3\n    w = 4\n")
    assert _settable_values(tree) == 4          # b, c, x and v


def _referenced(tree: ast.AST, strings: bool = False) -> set:
    """Every name and attribute in the tree, and with ``strings`` every word
    of its string constants."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"\w+", node.value))
    return out


def _public_names() -> set:
    """The names that ``sltwist`` and ``sltwist.geometry`` import in their
    ``__init__.py``, skipping private ones."""
    out = set()
    for init in (PACKAGE / "__init__.py", PACKAGE / "geometry" / "__init__.py"):
        for node in ast.walk(ast.parse(init.read_text())):
            if isinstance(node, ast.ImportFrom):
                out.update(a.name for a in node.names if not a.name.startswith("_"))
    return out


def test_scanner_sees_names_attributes_and_benchmark_strings():
    tree = ast.parse("import m\nm.a(b)\nSPANS = ('x.c', 'd')\n")
    assert _referenced(tree) == {"m", "a", "b", "SPANS"}        # not c or d
    assert _referenced(tree, strings=True) == {"m", "a", "b", "SPANS", "x", "c", "d"}


def test_unreached_public_names_are_pinned():
    reached = set()
    for f in PACKAGE.rglob("*.py"):
        if f.name != "__init__.py":
            reached |= _referenced(ast.parse(f.read_text()))
    for f in (ROOT / "perfbench").glob("*.py"):
        reached |= _referenced(ast.parse(f.read_text()), strings=True)
    assert _public_names() - reached == TESTS_ONLY


def test_settable_value_count_is_pinned():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    total = sum(_settable_values(ast.parse(f.read_text())) for f in files)
    assert total == SETTABLE_VALUES
