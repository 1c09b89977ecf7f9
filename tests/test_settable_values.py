"""The library's settable values: function parameters that have a default.

Each default is a knob some caller may set.  The count is pinned, so a knob
added or removed shows in the diff of ``SETTABLE_VALUES``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperorbit"
SETTABLE_VALUES = 20


def count_settable_values(root: Path) -> int:
    count = 0
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults)
                count += sum(d is not None for d in args.kw_defaults)
    return count


def test_counts_positional_and_keyword_defaults(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(a, b=1, *c, d, e=2):\n    return lambda x=0: x\n", encoding="utf-8")
    assert count_settable_values(tmp_path) == 3


def test_settable_value_count():
    assert count_settable_values(SRC) == SETTABLE_VALUES
