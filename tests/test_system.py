import pytest

from qhenum.system import SystemError_, make_system, parse_system
from qhenum.sexpr import SexprError
from qhenum.terms import Cmp, INT, IntLit, PRIMED, Var

COUNTER = """
(system counter
  (vars (x Int) (n Int))
  (params n)
  (init (and (= x 0) (>= n 1)))
  (tx (and (= n! n) (= x! (ite (< x n) (+ x 1) x)))))
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
