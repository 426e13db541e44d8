"""The failure vocabulary: the three check helpers of ``fano4.errors``, the
modules that must route every failed family-level check through them, and
the two distinct route names of every ``agree`` call."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from fano4 import errors
from fano4.catalog import FamilyParams, threefold
from fano4.errors import ConsistencyError, IntegrityError

SRC = Path(__file__).resolve().parent.parent / "src" / "fano4"


@pytest.mark.parametrize("module", ["catalog", "classify", "cones", "hodge",
                                    "intersect"])
def test_no_module_raises_a_check_error_by_hand(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    raised = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
    assert not raised & {"ConsistencyError", "IntegrityError"}


class Unlabelled:
    """A family whose label may not be read: a passing check reads none."""

    @property
    def label(self) -> str:
        raise AssertionError("label built on the success path")


def test_passing_checks_return_the_value_and_build_no_label():
    family = Unlabelled()
    assert errors.agree(family, "q", "one", (1, 2), "other", (1, 2)) == (1, 2)
    assert errors.integral(family, "q", -12, 4) == -3
    assert errors.at_least(family, "q", 5, 5) == 5


@pytest.mark.parametrize("family, where", [
    (FamilyParams(6, 2, 4), "X^6_{2,4}: "), (threefold(4), "Z_4: "),
    (None, "")], ids=["family", "threefold", "raw numbers"])
def test_integral_message(family, where):
    with pytest.raises(IntegrityError) as exc:
        errors.integral(family, "chi(O(-K))", 207, 6)
    assert str(exc.value) == f"{where}chi(O(-K)) = 69/2 is not an integer"


@pytest.mark.parametrize("family, where", [
    (FamilyParams(7, 1, 3), "X^7_{1,3}"), (threefold(4), "Z_4")],
    ids=["family", "threefold"])
def test_at_least_message(family, where):
    with pytest.raises(IntegrityError) as exc:
        errors.at_least(family, "h1", -101, 0)
    assert str(exc.value) == f"{where}: h1 = -101 < 0"


def test_agree_message():
    with pytest.raises(ConsistencyError) as exc:
        errors.agree(threefold(4), "chi(T_Z)", "h0(T)-h1(T)", -4,
                     "Riemann-Roch", -3)
    assert str(exc.value) == ("Z_4: chi(T_Z) disagree: h0(T)-h1(T) -4, "
                              "Riemann-Roch -3")


def agree_calls():
    """(module, line, route, other_route) for every ``agree(...)`` call in
    ``src/fano4``, its arguments bound by name as ``errors.agree`` takes them."""
    names = ("family", "quantity", "route", "value", "other_route", "other")
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name != "agree":
                continue
            bound = dict(zip(names, node.args))
            bound.update((k.arg, k.value) for k in node.keywords)
            calls.append((path.stem, node.lineno, bound.get("route"),
                          bound.get("other_route")))
    return calls


def test_every_agree_call_names_two_distinct_literal_routes():
    calls = agree_calls()
    assert {module for module, *_ in calls} >= {"catalog", "cones", "hodge",
                                                "intersect"}
    for module, line, route, other in calls:
        where = f"{module}.py:{line}"
        for node in (route, other):
            assert isinstance(node, ast.Constant) and type(node.value) is str, where
        assert route.value != other.value, where
