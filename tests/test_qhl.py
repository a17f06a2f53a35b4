import re

import pytest

from qhenum.enumeration import _psi
from qhenum.qhl import (
    QhlError,
    QhpProperty,
    check_well_defined,
    difference_term,
    parse_property,
)
from qhenum.system import parse_system
from qhenum.terms import INT, IntLit, Not, Var, indexed, retag_free, term_from_text

SYSTEM = """
(system counter
  (vars (x Int) (n Int))
  (params n)
  (init (and (= x 0) (>= n 1)))
  (tx (and (= n! n) (= x! (ite (< x n) (+ x 1) x)))))
"""

PROP = """
(qhp (forall t0)
     (count t1
       :diff (finally (not (= x$1 x$2)))
       :body (globally (and (= n$1 n$2) (<= x$2 n$2)))
       :cmp geq
       :bound n))
"""


@pytest.fixture(scope="module")
def system():
    return parse_system(SYSTEM)


@pytest.fixture(scope="module")
def prop(system):
    return parse_property(PROP, system)


def test_parse_property(prop):
    assert prop.cmp == "geq"
    assert prop.bound == Var("n", INT)
    env = {f"{name}${copy}": INT for name in ("x", "n") for copy in (1, 2)}
    assert prop.diff == term_from_text("(not (= x$1 x$2))", env)
    assert prop.body == term_from_text("(and (= n$1 n$2) (<= x$2 n$2))", env)


def test_strict_comparators_shift_literal_bounds(system):
    text = PROP.replace(":cmp geq", ":cmp gt").replace(":bound n", ":bound 3")
    shifted = parse_property(text, system)
    assert shifted.cmp == "geq"
    assert shifted.bound == IntLit(4)
    with pytest.raises(QhlError):
        parse_property(PROP.replace(":cmp geq", ":cmp lt"), system)


def test_predicate_instantiation(prop):
    env = {f"{name}${copy}": INT for name in ("x", "n") for copy in (3, 5)}
    expected = term_from_text("(and (= n$3 n$5) (<= x$5 n$5))", env)
    assert _psi(prop, 3, 5) == expected
    primed = {indexed(3): indexed(3, True), indexed(5): indexed(5, True)}
    assert _psi(prop, 3, 5, primed=True) == retag_free(expected, primed)
    assert _psi(prop, 1, 2) == prop.body


def test_predicate_body_must_stay_in_copies(prop):
    for text in ("x$3", "x$1!", "x$2!", "x"):
        stray = term_from_text(f"(= x$1 {text})", {"x$1": INT, text: INT})
        for field in ("diff", "body"):
            for pred in (stray, Not(stray)):
                with pytest.raises(QhlError, match=f"{field} mentions {re.escape(text)} "):
                    prop._replace(**{field: pred})


def test_difference_term(prop):
    assert difference_term(prop) == Var("x", INT, 1, False)


def test_well_defined(prop, system):
    assert check_well_defined(prop, system).ok


def test_diff_true_not_well_defined(system):
    text = PROP.replace("(not (= x$1 x$2))", "(= x$1 x$1)")
    bad = parse_property(text, system)
    result = check_well_defined(bad, system)
    assert not result.ok
    assert "difference pattern" in result.reason


def test_body_must_force_parameter_equality(system):
    text = PROP.replace("(and (= n$1 n$2) (<= x$2 n$2))", "(<= x$2 n$2)")
    bad = parse_property(text, system)
    result = check_well_defined(bad, system)
    assert not result.ok
    assert "parameter n" in result.reason


def test_bound_must_use_parameters_only(system):
    bad = QhpProperty(
        diff=parse_property(PROP, system).diff,
        body=parse_property(PROP, system).body,
        cmp="geq",
        bound=Var("x", INT),
    )
    result = check_well_defined(bad, system)
    assert not result.ok
    assert "non-parameter" in result.reason
