import pytest
from hypothesis import given, settings, strategies as st

from qhenum.sexpr import to_text
from qhenum.terms import (
    App,
    ArraySort,
    BOOL,
    BoolLit,
    BoolSort,
    ConstArray,
    Cmp,
    Distinct,
    Div,
    Exists,
    Forall,
    INT,
    Implies,
    IntLit,
    IntSort,
    Ite,
    Mod,
    Mul,
    Neg,
    Not,
    Or,
    PLAIN,
    Quant,
    RankMismatch,
    Select,
    Signature,
    Store,
    Sub,
    UnboundVariable,
    UninterpSort,
    Var,
    Add,
    And,
    check_sorts,
    demangle,
    free_vars,
    indexed,
    mangle,
    retag_free,
    substitute,
    term_from_text,
    term_to_sexpr,
    term_to_text,
)

ARR = ArraySort(INT, INT)


def test_mangle_demangle():
    assert mangle("x", (None, False)) == "x"
    assert mangle("x", (None, True)) == "x!"
    assert mangle("x", (2, False)) == "x$2"
    assert mangle("x", (2, True)) == "x$2!"
    for text in ("x", "x!", "x$2", "x$2!", "pm"):
        base, tag = demangle(text)
        assert mangle(base, tag) == text


def test_parse_and_print_round_trip():
    env = {"x": INT, "y$1": INT, "a": ARR, "b": BOOL}
    for text in (
        "(+ x 1)",
        "(- x y$1)",
        "(- x)",
        "(ite b (select a x) 0)",
        "(store a x (+ x 1))",
        "(forall ((j Int)) (=> (<= 0 j) (= (select a j) 0)))",
        "(exists ((j Int)) (= j x))",
        "(distinct x y$1)",
        "(store (const-arr 0) 1 1)",
    ):
        term = term_from_text(text, env)
        again = term_from_text(term_to_text(term), env)
        assert term == again


def test_unknown_atom_rejected():
    with pytest.raises(UnboundVariable):
        term_from_text("(+ x 1)", {})


def test_sort_checking():
    x = Var("x", INT)
    assert check_sorts(Add((x, IntLit(1)))) == INT
    with pytest.raises(RankMismatch):
        check_sorts(Add((Var("b", BOOL), IntLit(1))))
    with pytest.raises(RankMismatch):
        check_sorts(Select(x, IntLit(0)))
    with pytest.raises(RankMismatch):
        check_sorts(Cmp("<", Var("b", BOOL), Var("c", BOOL)))
    assert check_sorts(Store(Var("a", ARR), x, x)) == ARR
    assert check_sorts(ConstArray(IntLit(0))) == ARR
    with pytest.raises(RankMismatch):
        check_sorts(ConstArray(Var("b", BOOL)))


def test_free_vars_respect_binders():
    env = {"x": INT, "a": ARR}
    term = term_from_text("(forall ((j Int)) (= (select a j) x))", env)
    names = {v.mangled for v in free_vars(term)}
    assert names == {"a", "x"}


def test_substitute_simple():
    x, y = Var("x", INT), Var("y", INT)
    term = Add((x, IntLit(1)))
    assert substitute(term, {x: y}) == Add((y, IntLit(1)))


def test_substitute_is_capture_avoiding():
    env = {"x": INT}
    term = term_from_text("(exists ((j Int)) (= j (+ x 1)))", env)
    j = Var("j", INT)
    out = substitute(term, {Var("x", INT): j})
    assert isinstance(out, Exists)
    (bound_name, _), = out.bound
    assert bound_name != "j"
    assert j in free_vars(out)


def test_retag_free():
    env = {"x$1": INT, "y": INT}
    term = term_from_text("(+ x$1 y)", env)
    out = retag_free(term, {indexed(1): PLAIN})
    names = {v.mangled for v in free_vars(out)}
    assert names == {"x", "y"}


def test_quantifier_shadowing_blocks_substitution():
    x = Var("x", INT)
    term = Forall((("x", INT),), Cmp("=", x, IntLit(0)))
    assert substitute(term, {x: IntLit(5)}) == term


names = st.sampled_from(["x", "y", "z", "acc"])


@st.composite
def int_terms(draw, depth=0):
    if depth > 2 or draw(st.booleans()):
        if draw(st.booleans()):
            return IntLit(draw(st.integers(min_value=-9, max_value=9)))
        return Var(draw(names), INT)
    return Add((draw(int_terms(depth + 1)), draw(int_terms(depth + 1))))


@given(int_terms())
def test_text_round_trip_any(term):
    env = {n: INT for n in ("x", "y", "z", "acc")}
    assert term_from_text(term_to_text(term), env) == term


@given(int_terms(), st.integers(min_value=-9, max_value=9))
def test_substitution_eliminates_variable(term, k):
    x = Var("x", INT)
    out = substitute(term, {x: IntLit(k)})
    assert x not in free_vars(out)


# The s-expression renderer that ``term_to_text`` replaced, kept as the
# reference for its text.


def reference_sort(sort):
    if isinstance(sort, BoolSort):
        return "Bool"
    if isinstance(sort, IntSort):
        return "Int"
    if isinstance(sort, ArraySort):
        return ["Array", reference_sort(sort.index), reference_sort(sort.element)]
    if isinstance(sort, UninterpSort):
        return sort.name
    raise TypeError(f"unknown sort {sort!r}")


def reference_sexpr(term):
    if isinstance(term, Var):
        return term.mangled
    if isinstance(term, IntLit):
        if term.value < 0:
            return ["-", -term.value]
        return term.value
    if isinstance(term, BoolLit):
        return "true" if term.value else "false"
    if isinstance(term, App):
        if not term.args:
            return term.func
        return [term.func, *map(reference_sexpr, term.args)]
    if isinstance(term, Add):
        return ["+", *map(reference_sexpr, term.args)]
    if isinstance(term, Sub):
        return ["-", reference_sexpr(term.left), reference_sexpr(term.right)]
    if isinstance(term, Neg):
        return ["-", reference_sexpr(term.operand)]
    if isinstance(term, Mul):
        return ["*", reference_sexpr(term.left), reference_sexpr(term.right)]
    if isinstance(term, Div):
        return ["div", reference_sexpr(term.left), reference_sexpr(term.right)]
    if isinstance(term, Mod):
        return ["mod", reference_sexpr(term.left), reference_sexpr(term.right)]
    if isinstance(term, Cmp):
        return [term.op, reference_sexpr(term.left), reference_sexpr(term.right)]
    if isinstance(term, Distinct):
        return ["distinct", *map(reference_sexpr, term.args)]
    if isinstance(term, Not):
        return ["not", reference_sexpr(term.operand)]
    if isinstance(term, And):
        return ["and", *map(reference_sexpr, term.args)]
    if isinstance(term, Or):
        return ["or", *map(reference_sexpr, term.args)]
    if isinstance(term, Implies):
        return ["=>", reference_sexpr(term.left), reference_sexpr(term.right)]
    if isinstance(term, Ite):
        return ["ite", *map(reference_sexpr, (term.cond, term.then, term.other))]
    if isinstance(term, Select):
        return ["select", reference_sexpr(term.array), reference_sexpr(term.index)]
    if isinstance(term, Store):
        return ["store", *map(reference_sexpr, (term.array, term.index, term.value))]
    if isinstance(term, ConstArray):
        return [["as", "const", reference_sort(term.sort)], reference_sexpr(term.value)]
    if isinstance(term, Quant):
        head = "forall" if isinstance(term, Forall) else "exists"
        binder = [[name, reference_sort(sort)] for name, sort in term.bound]
        return [head, binder, reference_sexpr(term.body)]
    raise TypeError(f"unknown term {term!r}")


@settings(max_examples=400)
@given(data=st.data())
def test_text_matches_reference_renderer(any_term, data):
    term = data.draw(any_term)
    assert term_to_text(term) == to_text(reference_sexpr(term))
    assert term_to_sexpr(term) == reference_sexpr(term)


def test_text_of_edge_cases():
    x = Var("x", INT)
    tr = UninterpSort("Tr")
    cases = [
        (IntLit(-3), "(- 3)"),
        (Neg(IntLit(-3)), "(- (- 3))"),
        (App("c", ()), "c"),
        (And(()), "(and)"),
        (Forall((), BoolLit(True)), "(forall () true)"),
        (ConstArray(Var("t", tr), ArraySort(INT, tr)), "((as const (Array Int Tr)) t)"),
        (Exists((("x", BOOL),), Cmp("=", x, x.with_tag((1, True)))), "(exists ((x Bool)) (= x x$1!))"),
        (Forall((("x", INT),), Exists((("y", INT),), Cmp("<", x, Var("y", INT, None, True)))),
         "(forall ((x Int)) (exists ((y Int)) (< x y!)))"),
    ]
    for term, text in cases:
        assert term_to_text(term) == text == to_text(reference_sexpr(term))
