import pytest

from qhenum.qhl import (
    HFinally,
    HGlobally,
    MissingAssignment,
    QhlError,
    QhpProperty,
    StatePredicate,
    check_well_defined,
    difference_term,
    parse_property,
    predicate_to_formula,
)
from qhenum.system import parse_system
from qhenum.terms import INT, IntLit, Var, indexed, term_from_text

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
    assert isinstance(prop.diff, HFinally)
    assert isinstance(prop.body, HGlobally)


def test_strict_comparators_shift_literal_bounds(system):
    text = PROP.replace(":cmp geq", ":cmp gt").replace(":bound n", ":bound 3")
    shifted = parse_property(text, system)
    assert shifted.cmp == "geq"
    assert shifted.bound == IntLit(4)
    with pytest.raises(QhlError):
        parse_property(PROP.replace(":cmp geq", ":cmp lt"), system)


def test_predicate_instantiation():
    body = term_from_text("(= x$1 x$2)", {"x$1": INT, "x$2": INT})
    pred = StatePredicate(2, body)
    out = predicate_to_formula(pred, (indexed(3), indexed(5)))
    assert out == term_from_text("(= x$3 x$5)", {"x$3": INT, "x$5": INT})
    with pytest.raises(MissingAssignment):
        predicate_to_formula(pred, (indexed(3),))


def test_predicate_body_must_stay_in_copies():
    with pytest.raises(QhlError):
        StatePredicate(1, term_from_text("(= x$1 x$2)", {"x$1": INT, "x$2": INT}))


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
