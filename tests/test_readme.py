"""The README's library tour runs, and gives the verdicts it states.

The tour is the first ``python`` block after the "Library tour" heading.
Its statements run in order; an expression whose trailing comment is a
string, a bool or a tuple of them (a verdict, not a rounded number) must
equal that literal where it stands.
"""

import ast
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def tour() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.search(r"## Library tour\s+```python\n(.*?)```", text, re.S).group(1)


def stated(line: str):
    """The literal verdict in a line's trailing comment, or None."""
    if "#" not in line:
        return None
    try:
        value = ast.literal_eval(line.rsplit("#", 1)[1].strip())
    except (ValueError, SyntaxError):
        return None
    parts = value if isinstance(value, tuple) else (value,)
    return value if all(isinstance(v, (str, bool)) for v in parts) else None


def test_the_library_tour_gives_its_stated_verdicts():
    source = tour()
    lines = source.splitlines()
    namespace: dict = {}
    verdicts = []
    for stmt in ast.parse(source).body:
        want = stated(lines[stmt.end_lineno - 1]) if isinstance(stmt, ast.Expr) else None
        if want is None:
            exec(compile(ast.Module([stmt], []), README, "exec"), namespace)
            continue
        got = eval(compile(ast.Expression(stmt.value), README, "eval"), namespace)
        assert got == want, ast.unparse(stmt)
        verdicts.append(want)
    assert verdicts == ["not-normal", ("Kenmotsu", True, True), False]
