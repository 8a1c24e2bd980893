"""A ratchet on the package's settable values.

Counts every parameter default (positional and keyword-only) and every
annotated class attribute with a value in ``src/sltwist``.  A new option
changes the count, so it has to change ``SETTABLE_VALUES`` in the same
diff; a value that every caller leaves alone belongs inside its function.
"""

import ast
from pathlib import Path

SETTABLE_VALUES = 44

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sltwist"


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


def test_settable_value_count_is_pinned():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    total = sum(_settable_values(ast.parse(f.read_text())) for f in files)
    assert total == SETTABLE_VALUES
