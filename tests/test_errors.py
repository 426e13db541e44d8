"""The failure vocabulary: the three check helpers of ``fano4.errors`` and
the modules that must route every failed family-level check through them."""

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
