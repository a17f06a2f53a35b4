import copy
import pickle

import pytest
from conftest import SORTS, VAR_SORTS, reference_children, reference_free_vars, sorted_terms
from hypothesis import given, settings, strategies as st

from qhenum.sexpr import SexprError, to_text
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
    Record,
    Select,
    Signature,
    Store,
    Sub,
    TagMismatch,
    Term,
    TermError,
    UnboundVariable,
    Var,
    Add,
    And,
    check_sorts,
    demangle,
    free_vars,
    indexed,
    mangle,
    retag,
    retag_free,
    substitute,
    term_from_sexpr,
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


@pytest.mark.parametrize("text, count", [("(- x x x)", 3), ("(-)", 0)])
def test_minus_arity_names_both_forms(text, count):
    with pytest.raises(SexprError) as err:
        term_from_text(text, {"x": INT})
    assert str(err.value) == f"- takes 1 or 2 arguments, got {count}"


def test_empty_environment_admits_no_free_variable():
    assert check_sorts(Var("q", INT)) == INT
    with pytest.raises(UnboundVariable, match="free variable q not in environment"):
        check_sorts(Var("q", INT), environment={})
    # a binder's variable needs no environment entry
    bound = Forall((("q", INT),), Cmp("=", Var("q", INT), IntLit(0)))
    assert check_sorts(bound, environment={}) == BOOL


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("(+ x b)", "arithmetic argument has sort Bool, not Int"),
        ("(- b)", "arithmetic argument has sort Bool, not Int"),
        ("(and b x)", "connective argument has sort Int, not Bool"),
        ("(= x b)", "comparison of Int with Bool"),
        ("(< b b)", "operand of < has sort Bool, not Int"),
        ("(distinct x b)", "distinct over mixed sorts"),
        ("(ite x 1 2)", "ite condition has sort Int, not Bool"),
        ("(ite b 1 true)", "ite else branch has sort Bool, not Int"),
        ("(select x 1)", "select on Int"),
        ("(select a b)", "select index has sort Bool, not Int"),
        ("(store a 1 b)", "store value has sort Bool, not Int"),
        ("((as const (Array Int Bool)) 0)", "constant array value has sort Int, not Bool"),
        ("(forall ((j Int)) j)", "quantifier body has sort Int, not Bool"),
        ("(exists ((j Int) (j Bool)) true)", "duplicate bound variable names in one binder"),
        ("(pow2 b)", "argument of pow2 has sort Bool, not Int"),
        ("(pow2 1 2)", "pow2 takes 1 arguments, got 2"),
    ],
)
def test_reader_applies_each_sort_rule(text, message):
    with pytest.raises(RankMismatch) as err:
        term_from_text(text, {"x": INT, "b": BOOL, "a": ARR})
    assert str(err.value) == message


def test_reader_builds_each_variable_once_per_table():
    variables = {}
    first = term_from_sexpr("x$1", {"x$1": INT}, variables=variables)
    assert term_from_sexpr(["+", "x$1", 1], {"x$1": INT}, variables=variables).args[0] is first
    assert term_from_sexpr("x$1", {"x$1": BOOL}, variables=variables) == Var("x", BOOL, 1)


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


def test_retag_free_to_plain_renames_a_capturing_binder():
    n = Var("n", INT)
    term = Forall((("n", INT),), Cmp("<=", n, n.with_tag(indexed(1))))
    out = retag_free(term, {indexed(1): PLAIN})
    assert out == Forall((("n~1", INT),), Cmp("<=", Var("n~1", INT), n))
    assert free_vars(out) == {n}


TAGS = st.tuples(st.sampled_from([None, 1, 2]), st.booleans())


@settings(max_examples=400)
@given(data=st.data())
def test_retag_free_is_substitution_of_free_variables(any_term, data):
    # a variable retagged to PLAIN is captured by a binder of its name, so
    # the term is often bound by one and PLAIN is often a target
    term = data.draw(any_term)
    names = sorted({v.name for v in free_vars(term)})
    if names and data.draw(st.booleans()):
        term = Forall(((data.draw(st.sampled_from(names)), INT),), term)
    mapping = data.draw(st.dictionaries(TAGS, st.one_of(st.just(PLAIN), TAGS), max_size=3))
    expected = substitute(
        term, {v: v.with_tag(mapping[v.tag]) for v in free_vars(term) if v.tag in mapping}
    )
    assert retag_free(term, mapping) == expected


def test_retag_moves_one_tag_of_free_variables_only():
    j, x = Var("j", INT), Var("x", INT)
    term = Forall((("j", INT),), Cmp("<", j, x))
    moved = Forall((("j", INT),), Cmp("<", j, x.with_tag(indexed(1))))
    assert retag(term, PLAIN, indexed(1)) == moved
    with pytest.raises(TagMismatch):
        retag(Add((x, x.with_tag(indexed(2)))), PLAIN, indexed(1))


def test_retag_free_leaves_a_bound_occurrence_alone():
    # the same variable object occurs free and bound
    x = Var("x", INT)
    term = And((Cmp("<", x, IntLit(1)), Forall((("x", INT),), Cmp("<", x, Var("y", INT)))))
    out = retag_free(term, {PLAIN: indexed(1)})
    x1 = x.with_tag(indexed(1))
    assert out == And((Cmp("<", x1, IntLit(1)), Forall((("x", INT),), Cmp("<", x, Var("y", INT, 1)))))
    assert out.args[1].body.left is x


def test_walks_return_unchanged_subterms_as_the_same_objects():
    x, y = Var("x", INT), Var("y", INT)
    kept = Cmp("<", x.with_tag(indexed(2)), Select(Var("a", ARR, 2), IntLit(0)))
    term = And((kept, Cmp("=", x, IntLit(0))))
    out = retag_free(term, {PLAIN: indexed(1)})
    assert out == And((kept, Cmp("=", x.with_tag(indexed(1)), IntLit(0))))
    assert out.args[0] is kept
    assert substitute(term, {x: y}).args[0] is kept
    assert retag_free(term, {indexed(3): indexed(1)}) is term
    assert substitute(term, {Var("q", INT): y}) is term
    # a quantifier whose body is unchanged, also one that binds nothing
    for quant in (Forall((("j", INT),), kept), Exists((), kept)):
        assert retag_free(quant, {PLAIN: indexed(1)}) is quant
        assert substitute(quant, {x: y}) is quant


def test_retag_free_drops_identity_entries():
    # an entry that maps a tag to itself retags nothing, on either path
    x, y = Var("x", INT), Var("y", INT, 2)
    term = And((Cmp("<", x.with_tag(indexed(1)), y), Forall((("x", INT),), Cmp("=", x, y))))
    for tag in (PLAIN, indexed(1), indexed(2)):
        assert retag_free(term, {tag: tag}) is term
    assert retag_free(term, {indexed(1): indexed(1), indexed(2): indexed(2), PLAIN: PLAIN}) is term
    out = retag_free(term, {indexed(1): indexed(1), indexed(2): indexed(3)})
    assert out == And((Cmp("<", x.with_tag(indexed(1)), y.with_tag(indexed(3))),
                       Forall((("x", INT),), Cmp("=", x, y.with_tag(indexed(3))))))
    assert out.args[0].left is term.args[0].left


def test_substitute_renames_nested_binders_past_names_in_use():
    # the outer x is free in y's replacement; x~1 is free in its body, so
    # it becomes x~2; the inner x, renamed in its own scope, takes x~1
    x, y, x1, x2 = Var("x", INT), Var("y", INT), Var("x~1", INT), Var("x~2", INT)
    term = Forall((("x", INT),), And((Cmp("=", x, x1), Forall((("x", INT),), Cmp("=", x, y)))))
    out = substitute(term, {y: x})
    assert out == Forall(
        (("x~2", INT),), And((Cmp("=", x2, x1), Forall((("x~1", INT),), Cmp("=", x1, x))))
    )
    assert out == reference_substitute(term, {y: x})


# ``substitute`` and ``retag_free`` as they were before they returned
# unchanged subterms as the same objects, kept as the references for the
# terms they build: every node rebuilt, and at every quantifier the free
# variables of each live replacement and of the whole body collected.


def reference_rebuild(term, children):
    kind = type(term)
    if kind is App:
        return App(term.func, children)
    if kind is Cmp:
        return Cmp(term.op, *children)
    if kind is ConstArray:
        return ConstArray(children[0], term.sort)
    if kind is Forall or kind is Exists:
        return kind(term.bound, children[0])
    if kind in (Add, Distinct, And, Or):
        return kind(children)
    return kind(*children)


def reference_substitute(term, bindings):
    def go(t, binds):
        if isinstance(t, Var):
            return binds.get(t, t)
        if isinstance(t, Quant):
            live = {
                v: r
                for v, r in binds.items()
                if not (v.tag == PLAIN and any(v.name == name for name, _ in t.bound))
            }
            if not live:
                return t
            captured = {
                fv.name for r in live.values() for fv in reference_free_vars(r) if fv.tag == PLAIN
            }
            body = t.body
            renames = {}
            new_bound = []
            taken = captured | {fv.name for fv in reference_free_vars(body) if fv.tag == PLAIN}
            for name, sort in t.bound:
                if name in captured:
                    k = 1
                    while f"{name}~{k}" in taken:
                        k += 1
                    fresh = f"{name}~{k}"
                    taken.add(fresh)
                    renames[Var(name, sort)] = Var(fresh, sort)
                    new_bound.append((fresh, sort))
                else:
                    new_bound.append((name, sort))
            if renames:
                body = go(body, renames)
            return type(t)(tuple(new_bound), go(body, live))
        children = reference_children(t)
        if not children:
            return t
        new_children = tuple(go(c, binds) for c in children)
        if new_children == children:
            return t
        return reference_rebuild(t, new_children)

    return go(term, dict(bindings))


def reference_retag_free(term, mapping):
    # an entry that maps a tag to itself retags nothing, and as a binding
    # of a variable to itself it would only steer the choice of fresh names
    mapping = {frm: to for frm, to in mapping.items() if frm != to}
    if PLAIN in mapping.values():
        return reference_substitute(
            term,
            {v: v.with_tag(mapping[v.tag]) for v in reference_free_vars(term) if v.tag in mapping},
        )

    def go(t, bound):
        if isinstance(t, Var):
            if t.tag == PLAIN and t.name in bound:
                return t
            if t.tag in mapping:
                return t.with_tag(mapping[t.tag])
            return t
        if isinstance(t, Quant):
            return type(t)(t.bound, go(t.body, bound | {name for name, _ in t.bound}))
        children = reference_children(t)
        if not children:
            return t
        return reference_rebuild(t, tuple(go(c, bound) for c in children))

    return go(term, frozenset())


def under_binders(data, term):
    """``term`` under up to two quantifiers over names free in it, some
    beside a free variable named as the binder's first rename (``x~1``), so
    that retagging or substituting into it renames binders to ``x~1`` and
    ``x~2``, in nested scopes."""
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        names = sorted({v.name for v in free_vars(term)}) or ["x"]
        binder = data.draw(
            st.lists(st.tuples(st.sampled_from(names), st.sampled_from([INT, BOOL])), max_size=2)
        )
        if binder and data.draw(st.booleans()):
            term = And((term, Cmp("=", Var(f"{binder[0][0]}~1", INT), IntLit(0))))
        term = data.draw(st.sampled_from([Forall, Exists]))(tuple(binder), term)
    return term


@settings(max_examples=400)
@given(data=st.data())
def test_free_vars_match_reference(any_term, data):
    term = under_binders(data, data.draw(any_term))
    bound = data.draw(st.frozensets(st.sampled_from([*VAR_SORTS, "z", "j"]), max_size=2))
    assert free_vars(term, bound) == reference_free_vars(term, bound)


@settings(max_examples=600)
@given(data=st.data())
def test_retag_free_matches_reference(any_term, data):
    term = under_binders(data, data.draw(any_term))
    mapping = data.draw(st.dictionaries(TAGS, st.one_of(st.just(PLAIN), TAGS), max_size=3))
    assert retag_free(term, mapping) == reference_retag_free(term, mapping)


@settings(max_examples=600)
@given(data=st.data())
def test_substitute_matches_reference(any_term, data):
    term = under_binders(data, data.draw(any_term))
    keys = st.builds(
        lambda name, tag: Var(name, VAR_SORTS[name], *tag), st.sampled_from(sorted(VAR_SORTS)), TAGS
    )
    # plain variables, which binders of their names capture
    plain = st.builds(Var, st.sampled_from(["x", "y", "j", "z", "x~1"]), st.sampled_from([INT, BOOL]))
    bindings = data.draw(st.dictionaries(keys, st.one_of(plain, any_term), max_size=3))
    assert substitute(term, bindings) == reference_substitute(term, bindings)


# every free name the reader knows, at each tag; z is unknown to it
READ_ENV = {
    mangle(name, (copy, primed)): sort
    for name, sort in VAR_SORTS.items()
    for copy in (None, 1, 2)
    for primed in (False, True)
}


def as_read(term, scope):
    """``term`` with each variable at the sort its text is read at: a bound
    one at its binder's, a free one at ``READ_ENV``'s (if it has one)."""
    if isinstance(term, Var):
        return Var(term.name, scope.get(term.mangled, term.sort), term.copy, term.primed)
    if isinstance(term, Quant):
        scope = {**scope, **dict(term.bound)}
    fields = []
    for name in term._fields:
        value = getattr(term, name)
        if isinstance(value, Term):
            value = as_read(value, scope)
        elif isinstance(value, tuple) and value and isinstance(value[0], Term):
            value = tuple(as_read(v, scope) for v in value)
        fields.append(value)
    return type(term)(*fields)


@settings(max_examples=400)
@given(data=st.data())
def test_reader_sorts_terms_as_check_sorts_does(any_term, term_signature, data):
    # the reader raises exactly when check_sorts does, else reads the same sort
    well_sorted = st.sampled_from(SORTS).flatmap(sorted_terms)
    term = as_read(data.draw(st.one_of(any_term, well_sorted)), READ_ENV)
    expr = term_to_sexpr(term)
    try:
        sort = check_sorts(term, term_signature, READ_ENV)
    except TermError:
        with pytest.raises(TermError):
            term_from_sexpr(expr, READ_ENV, term_signature)
    else:
        term_from_sexpr(expr, READ_ENV, term_signature, sort)


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
    cases = [
        (IntLit(-3), "(- 3)"),
        (Neg(IntLit(-3)), "(- (- 3))"),
        (App("c", ()), "c"),
        (And(()), "(and)"),
        (Forall((), BoolLit(True)), "(forall () true)"),
        (ConstArray(Var("b", BOOL), ArraySort(INT, BOOL)), "((as const (Array Int Bool)) b)"),
        (Exists((("x", BOOL),), Cmp("=", x, x.with_tag((1, True)))), "(exists ((x Bool)) (= x x$1!))"),
        (Forall((("x", INT),), Exists((("y", INT),), Cmp("<", x, Var("y", INT, None, True)))),
         "(forall ((x Int)) (exists ((y Int)) (< x y!)))"),
    ]
    for term, text in cases:
        assert term_to_text(term) == text == to_text(reference_sexpr(term))


def test_record_fields_defaults_and_arity():
    # fields are the parent's, then the class's own annotations; class
    # attributes are defaults; past four fields one generic __init__ checks
    # the arguments and also takes them by name
    class Point(Record):
        x: int
        y: int = 0

    class Point3(Point):
        z: int = 0

    class Wide(Record):
        a: int
        b: int
        c: int
        d: int
        e: int = 5

    assert Point3._fields == ("x", "y", "z")
    assert Point3(1) == Point3(1, 0, 0) != Point(1)
    assert repr(Point3(1, 2)).endswith("<locals>.Point3(x=1, y=2, z=0)")  # the qualified name
    assert Wide(1, 2, 3, 4) == Wide(1, 2, 3, 4, 5)
    with pytest.raises(TypeError):
        Point()
    with pytest.raises(TypeError, match=r"takes 5 arguments \(4 required\), got 6"):
        Wide(1, 2, 3, 4, 5, 6)
    with pytest.raises(TypeError, match="Wide\\(\\) missing field 'd'"):
        Wide(1, 2, 3)
    with pytest.raises(TypeError, match="'b' follows a field with a default"):

        class Bad(Record):
            a: int = 0
            b: int


def test_copies_carry_fields_not_cached_values():
    # a term the oracle has used holds generated functions in its memo
    term = And((Var("p", BOOL), BoolLit(True)))
    assert term.smt[0] == "(and p true)"
    term.memo["f"] = lambda: None
    for twin in (copy.copy(term), copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
        assert twin == term and "memo" not in vars(twin) and "smt" not in vars(twin)
