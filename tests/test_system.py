import pytest

from qhenum.backend import Session
from qhenum.system import (
    InductiveObligation,
    SystemError_,
    check_inductive,
    check_totality,
    make_system,
    parse_system,
    self_compose,
)
from qhenum.sexpr import SexprError
from qhenum.terms import (
    Cmp,
    INT,
    IntLit,
    PRIMED,
    Var,
    free_vars,
    term_from_text,
)

COUNTER = """
(system counter
  (vars (x Int) (n Int))
  (params n)
  (init (and (= x 0) (>= n 1)))
  (tx (and (= n! n) (= x! (ite (< x n) (+ x 1) x)))))
"""

STUCK = """
(system stuck
  (vars (x Int))
  (init (= x 0))
  (tx (and (= x! (+ x 1)) (< x 2))))
"""


@pytest.fixture(scope="module")
def counter():
    return parse_system(COUNTER)


def test_parse_system(counter):
    assert counter.name == "counter"
    assert counter.state_vars == (("x", INT), ("n", INT))
    assert counter.params == ("n",)
    assert counter.sort_of("x") == INT
    assert counter.var("x", PRIMED) == Var("x", INT, None, True)


def test_parse_system_requires_sections():
    with pytest.raises(SexprError):
        parse_system("(system (vars (x Int)) (init (= x 0)))")


def test_make_system_rejects_stray_variables():
    x = Var("x", INT)
    with pytest.raises(SystemError_):
        make_system("m", [("x", INT)], [], Cmp("=", Var("y", INT), IntLit(0)), Cmp("=", x, x))
    with pytest.raises(SystemError_):
        make_system("m", [("x", INT)], ["q"], Cmp("=", x, IntLit(0)), Cmp("=", x, x))
    with pytest.raises(SystemError_):
        make_system(
            "m",
            [("x", INT), ("x", INT)],
            [],
            Cmp("=", x, IntLit(0)),
            Cmp("=", x, x),
        )


def test_self_compose(counter):
    composed = self_compose(counter, 2)
    assert composed.copies == 2
    free = {v.mangled for v in free_vars(composed.system.init)}
    assert free == {"x$1", "n$1", "x$2", "n$2"}
    with pytest.raises(SystemError_):
        self_compose(counter, 0)


def test_inductive_invariant_proved(counter, solver):
    inv = term_from_text("(and (<= 0 x) (<= x n))", {"x": INT, "n": INT})
    result = check_inductive(InductiveObligation(counter, inv), Session(solver))
    assert result.status == "proved"


def test_inductive_base_failure(counter, solver):
    inv = term_from_text("(>= x 1)", {"x": INT})
    result = check_inductive(InductiveObligation(counter, inv), Session(solver))
    assert result.status == "base_fails"
    assert result.model is not None


def test_inductive_step_failure(counter, solver):
    # holds initially but is not preserved
    inv = term_from_text("(= x 0)", {"x": INT})
    result = check_inductive(InductiveObligation(counter, inv), Session(solver))
    assert result.status == "step_fails"


def test_inductive_on_composition(counter, solver):
    composed = self_compose(counter, 2)
    env = {"x$1": INT, "x$2": INT, "n$1": INT, "n$2": INT}
    inv = term_from_text("(=> (and (= n$1 n$2) (= x$1 x$2)) (= x$1 x$2))", env)
    result = check_inductive(
        InductiveObligation(composed.system, inv, copies=2), Session(solver)
    )
    assert result.status == "proved"


def test_totality(counter, solver):
    assert check_totality(counter, Session(solver)).status == "total"
    stuck = parse_system(STUCK)
    result = check_totality(stuck, Session(solver))
    assert result.status == "not_total"
    assert result.model is not None
