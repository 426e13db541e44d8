from __future__ import annotations

from itertools import combinations
from math import gcd

import pytest


@pytest.fixture(scope="session")
def dual_cone():
    """The extremal rays of the dual of a cone in a rank-3 lattice, computed
    from scratch: a test oracle for the nef cone.

    The cone is given by its spanning columns, as ``{name: (x, y, z)}``.  Each
    extremal ray of the dual is orthogonal to two independent columns, so it
    is the cross product of the pair, reduced to a primitive vector, in the
    sign that is non-negative on every column.  Returns ``{primitive ray:
    frozenset of the column names it vanishes on}``.
    """
    def rays(columns):
        out = {}
        for (x, y, z), (u, v, w) in combinations(columns.values(), 2):
            cross = (y * w - z * v, z * u - x * w, x * v - y * u)
            g = gcd(*cross)
            if g == 0:
                continue
            for sign in (g, -g):
                ray = tuple(c // sign for c in cross)
                values = {name: sum(r * c for r, c in zip(ray, column))
                          for name, column in columns.items()}
                if min(values.values()) >= 0:
                    out[ray] = frozenset(n for n, value in values.items()
                                         if value == 0)
        return out
    return rays


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_c" not in nodeid:
                continue
            name = nodeid.split("::")[-1].removeprefix("test_")
            verdict = "PASS" if outcome == "passed" else "FAIL"
            lines.append((name, verdict))
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for name, verdict in sorted(lines):
        terminalreporter.write_line(f"{verdict}  {name}")
