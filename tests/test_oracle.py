import functools
import gc
import hashlib
import itertools
import math
import re
import weakref
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import BINDERS, SORTS, VAR_SORTS, sorted_terms

from qhenum import oracle
from qhenum.cli import load_instance, load_project
from qhenum.oracle import (
    ArrayDomain,
    BoundedTrace,
    CapExceeded,
    FArray,
    FiniteInstance,
    OracleError,
    ScalarDomain,
    brute_count,
    compile_term,
    count_equivalence_classes,
    enumerate_traces,
    eval_bounded,
    state_key,
    successors,
    values_equal,
)
from qhenum.qhl import QhpProperty, parse_property
from qhenum.sexpr import parse_one
from qhenum.system import TransitionSystem, parse_system
from qhenum.terms import (
    BOOL,
    FALSE,
    INT,
    PLAIN,
    TRUE,
    Add,
    And,
    App,
    ArraySort,
    BoolLit,
    BoolSort,
    Cmp,
    ConstArray,
    Distinct,
    Div,
    Exists,
    Forall,
    Implies,
    IntLit,
    IntSort,
    Ite,
    Mod,
    Mul,
    Neg,
    Not,
    Or,
    Quant,
    Select,
    Signature,
    Store,
    Sub,
    Var,
    free_vars,
    indexed,
    mangle,
    retag_free,
    sort_to_text,
    term_from_sexpr,
    term_from_text,
    term_to_text,
)

COUNTER = """
(system counter
  (vars (x Int) (n Int))
  (params n)
  (init (and (= x 0) (>= n 1)))
  (tx (and (= n! n) (= x! (ite (< x n) (+ x 1) x)))))
"""

COIN = """
(system coin
  (vars (done Bool) (b Int))
  (init (and (not done) (= b 0)))
  (tx (and done! (ite done (= b! b) (and (<= 0 b!) (<= b! 1))))))
"""

PROP = """
(qhp (forall t0)
     (count t1
       :diff (finally (not (= x$1 x$2)))
       :body (globally (= n$1 n$2))
       :cmp geq
       :bound n))
"""


@pytest.fixture(scope="module")
def counter():
    return parse_system(COUNTER)


def counter_instance(counter, n, depth, **kw):
    return FiniteInstance(
        system=counter,
        domains={"x": ScalarDomain(tuple(range(0, n + 1)))},
        params={"n": n},
        depth=depth,
        deterministic=True,
        **kw,
    )


# -- values -----------------------------------------------------------------


def test_farray_window():
    a = FArray(1, (5, 6, 7))
    assert a.get(1) == 5 and a.get(3) == 7
    assert a.get(0) == 0 and a.get(99) == 0
    assert a.put(2, 9).vals == (5, 9, 7)
    assert a.put(50, 0) is a
    grown = a.put(5, 1)
    assert grown.get(5) == 1 and grown.get(4) == 0 and grown.get(1) == 5
    # a value is the default when values_equal says so: false is not 0
    assert FArray(0, (0,), 0).put(5, False) == FArray(0, (0, 0, 0, 0, 0, False), 0)
    zero = FArray(0, (0,), False).put(5, 0).get(5)
    assert zero == 0 and type(zero) is int


def test_values_equal():
    assert values_equal(FArray(1, (0, 2)), FArray(0, (0, 0, 2)))
    assert not values_equal(FArray(1, (1,)), FArray(1, (2,)))
    assert not values_equal(FArray(1, (), 0), FArray(1, (), 1))
    assert not values_equal(True, 1)
    assert values_equal(3, 3)
    assert not values_equal(FArray(0, (True,)), FArray(0, (1,)))
    assert not values_equal(FArray(0, (), True), FArray(0, (), 1))
    assert values_equal(FArray(0, (True,), False), FArray(0, (True, False), False))
    # inner arrays compare by value, not by their stored window
    assert values_equal(FArray(0, (FArray(0, (1,)),)), FArray(0, (FArray(0, (1, 0)),)))


def reference_values_equal(a, b):
    """values_equal element by element, over the union of both windows."""
    if type(a) is not type(b):
        return False
    if type(a) is not FArray:
        return a == b
    window = range(min(a.lo, b.lo), max(a.lo + len(a.vals), b.lo + len(b.vals)))
    return reference_values_equal(a.default, b.default) and all(
        reference_values_equal(a.get(i), b.get(i)) for i in window
    )


def farrays(elements):
    windows = st.lists(elements, max_size=3).map(tuple)
    return st.builds(FArray, st.integers(-1, 1), windows, elements)


SCALARS = st.sampled_from((0, 1, 2, True, False))
# arrays of ints and bools, and arrays that hold such arrays
NESTED = farrays(SCALARS) | farrays(SCALARS | farrays(SCALARS))


def rewindowed(data, value):
    """``value`` read over windows drawn anew, or kept, inside too: it
    equals ``value`` where the entries it drops are the default."""
    if type(value) is not FArray:
        return value
    lo, width = value.lo, len(value.vals)
    if data.draw(st.booleans()):
        lo, width = data.draw(st.integers(-2, 2)), data.draw(st.integers(0, 4))
    vals = tuple(rewindowed(data, value.get(i)) for i in range(lo, lo + width))
    return FArray(lo, vals, value.default)


@settings(max_examples=500)
@given(NESTED, st.data())
def test_values_equal_matches_elementwise_reference(a, data):
    b = data.draw(st.sampled_from((rewindowed(data, a), a)) | NESTED)
    assert values_equal(a, b) == values_equal(b, a) == reference_values_equal(a, b)


def test_domains():
    assert ScalarDomain((1, 2, 3)).size() == 3
    dom = ArrayDomain(1, 2, (0, 1))
    assert dom.size() == 4
    assert FArray(1, (1, 0)) in list(dom)


def test_array_domain_of_negative_width_is_refused():
    with pytest.raises(OracleError, match=r"^array domain window \[3, 1\] has negative width$"):
        ArrayDomain(3, 1, (0, 1))
    with pytest.raises(OracleError, match="negative width"):
        ArrayDomain(1, 2, (0, 1))._replace(hi=-1)
    # hi = lo - 1 is the empty window: one member, the default everywhere
    empty = ArrayDomain(3, 2, (0, 1), 7)
    assert empty.size() == 1 and list(empty) == [FArray(3, (), 7)]


# -- term evaluation ----------------------------------------------------------


def test_eval_term_arith_and_arrays():
    from qhenum.terms import ArraySort

    env = {"x": 3, "a": FArray(0, (4, 5))}
    term = term_from_text(
        "(+ (select (store a 0 9) 0) (* x 2))",
        {"x": INT, "a": ArraySort(INT, INT)},
    )
    assert compile_term(term)(env) == 15


def test_eval_term_const_array():
    env = {}
    term = term_from_text("(select (store (const-arr 7) 2 1) 3)", env)
    assert compile_term(term)(env) == 7


def test_eval_term_quantifiers_are_bounded():
    term = term_from_text("(forall ((j Int)) (<= j 8))", {})
    assert compile_term(term, quant_lo=-2, quant_hi=8)({}) is True
    term2 = term_from_text("(exists ((j Int)) (= j 5))", {})
    assert compile_term(term2, quant_lo=0, quant_hi=4)({}) is False
    assert compile_term(term2, quant_lo=0, quant_hi=6)({}) is True


def test_eval_term_builtins():
    assert compile_term(term_from_text("(pow2 5)", {}))({}) == 32
    assert compile_term(term_from_text("(fact 4)", {}))({}) == 24


def smtlib_div_mod(a, b):
    """``(div a b)`` and ``(mod a b)`` as SMT-LIB's Ints theory defines them
    for ``b != 0``: ``a = b * q + r`` with ``0 <= r < |b|``, found by search."""
    for r in range(abs(b)):
        if (a - r) % b == 0:
            return (a - r) // b, r
    raise AssertionError("no remainder")


def div_mod(a, b):
    """The oracle's ``(div a b)`` and ``(mod a b)``."""
    return (compile_term(Div(Var("a", INT), Var("b", INT)))({"a": a, "b": b}),
            compile_term(Mod(Var("a", INT), Var("b", INT)))({"a": a, "b": b}))


@given(st.integers(-50, 50), st.integers(-12, 12))
@example(7, 2)
@example(-7, 2)
@example(7, -2)
@example(-7, -2)
def test_div_and_mod_have_their_smtlib_values(a, b):
    # Euclidean division for b != 0; at b = 0, (div a 0) = 0 and (mod a 0) = a,
    # so that a = b * q + r holds there too
    assert div_mod(a, b) == (smtlib_div_mod(a, b) if b else (0, a))


def test_div_and_mod_of_seven_and_two_at_every_sign():
    assert [div_mod(a, b) for a, b in ((7, 2), (-7, 2), (7, -2), (-7, -2))] == [
        (3, 1), (-4, 1), (-3, 1), (4, 1)
    ]


# A zero or negative divisor gives its SMT-LIB value in whichever branch it
# lies.
DIVISIONS = [(Div(IntLit(1), IntLit(0)), 0), (Mod(IntLit(1), IntLit(-1)), 0)]


@pytest.mark.parametrize("division, value", DIVISIONS, ids=["div-by-zero", "mod-by-negative"])
def test_division_has_its_value_in_either_branch(division, value):
    term = Ite(Var("c", BOOL), IntLit(1), division)
    evaluate = compile_term(term)
    assert evaluate({"c": True}) == 1
    assert evaluate({"c": False}) == value


@given(st.integers(-30, 30))
def test_pow2_and_fact_of_every_integer(n):
    # counting.BUILTIN_AXIOMS constrain both only at n >= 0; below, pow2 is 0 and fact is 1
    n_ = IntLit(n)
    assert compile_term(App("pow2", (n_,)))({}) == (2**n if n >= 0 else 0)
    assert compile_term(App("fact", (n_,)))({}) == (math.factorial(n) if n >= 0 else 1)


# Each refused term raises its OracleError when it is compiled, also in a
# branch that is never taken.
REFUSED = [
    (App("f", (IntLit(1),)), "uninterpreted function f in oracle evaluation"),
    (Forall((("u", ArraySort(INT, INT)),), TRUE), "cannot enumerate quantifier over (Array Int Int)"),
]


@pytest.mark.parametrize("refused, message", REFUSED, ids=["function", "array-quantifier"])
def test_refused_at_compile_even_in_an_untaken_branch(refused, message):
    term = Ite(TRUE, IntLit(1), refused)
    with pytest.raises(OracleError) as err:
        compile_term(term)
    assert str(err.value) == message
    # also where a search or a predicate compiles it
    formula = Cmp("=", Var("v", INT), term)
    with pytest.raises(OracleError) as err:
        brute_count(formula, {"v": ScalarDomain((0, 1))})
    assert str(err.value) == message
    with pytest.raises(OracleError) as err:
        oracle._predicate(formula.right, -1, 1)
    assert str(err.value) == message


def test_variable_refused_where_it_cannot_be_bound():
    # a search binds its loop variables and fixed names, a two-state
    # predicate copies 1 and 2 unprimed; z lies in a branch never taken
    z = Ite(TRUE, IntLit(1), Var("z", INT))
    with pytest.raises(OracleError, match=r"^unbound variable z in oracle evaluation$"):
        brute_count(Cmp("=", Var("v", INT), z), {"v": ScalarDomain((0, 1))}, {"w": 0})
    system = TransitionSystem("s", (("v", INT),), (), TRUE, Cmp("=", Var("v", INT, None, True), z))
    with pytest.raises(OracleError, match=r"^unbound variable z in oracle evaluation$"):
        FiniteInstance(system, {"v": ScalarDomain((0, 1))}, {}, depth=2).plan
    for var in (Var("x", INT, 3), Var("x", INT, 1, True), Var("x", INT)):
        with pytest.raises(OracleError, match=f"^unbound variable {re.escape(var.mangled)} "):
            oracle._predicate(Cmp("=", IntLit(1), Ite(TRUE, IntLit(1), var)), -1, 1)


def test_compiled_term_names_a_missing_variable_on_every_call():
    # the generated function reads every free variable on entry, in order of
    # mangled name, and raises for the first one missing, taken branch or not
    term = Ite(Var("c", BOOL), IntLit(1), Add((Var("y", INT), Var("x", INT, 2))))
    compiled = compile_term(term)
    assert compiled({"c": True, "x$2": 0, "y": 0}) == 1
    assert compiled({"c": False, "x$2": 2, "y": 3}) == 5
    for env, missing in (({"c": True, "y": 0}, "x$2"), ({"x$2": 0}, "c"), ({"c": True, "x$2": 0}, "y")):
        with pytest.raises(OracleError) as err:
            compiled(env)
        assert str(err.value) == f"unbound variable {missing} in oracle evaluation"


def test_eval_untaken_branch_is_not_evaluated():
    calls = []
    funcs = {"f": lambda v: calls.append(v) or v}
    term = Ite(Var("c", BOOL), IntLit(1), App("f", (Var("x", INT),)))
    compiled = compile_term(term, funcs=funcs)
    assert compiled({"c": True, "x": 5}) == 1 and calls == []
    assert compiled({"c": False, "x": 5}) == 5 and calls == [5]


@pytest.mark.parametrize(
    "text, value",
    [
        # false at j = 0
        ("(forall ((j Int)) (< (f j) 0))", False),
        # true at j = 0
        ("(exists ((j Int)) (= (f j) 0))", True),
    ],
    ids=["forall", "exists"],
)
def test_quantifiers_stop_at_their_first_deciding_value(text, value):
    calls = []
    term = term_from_text(text, {}, Signature().extend("f", (INT,), INT))
    assert compile_term(term, -2, 2, {"f": lambda j: calls.append(j) or j})({}) is value
    assert calls == [-2, -1, 0]


# Values for = : scalars that == confuses, an array equal to another in a
# different window, an array of bools, and arrays of arrays.
WINDOWED = FArray(1, (1, 0))
EQUALITY_VALUES = [
    0, 1, True, False, WINDOWED, FArray(0, (0, 1)), FArray(0, (True,), False),
    FArray(0, (1,), 0), FArray(0, (WINDOWED,)), FArray(-1, (0, FArray(0, (0, 1)), 0)),
]
# each comparison with the values its sides take from (x, y, b)
EQUALITIES = {
    "(= x y)": lambda x, y, b: (x, y),
    "(= x 1)": lambda x, y, b: (x, 1),
    "(= 1 x)": lambda x, y, b: (1, x),
    "(= x 0)": lambda x, y, b: (x, 0),
    "(= b true)": lambda x, y, b: (b, True),
    "(= false b)": lambda x, y, b: (False, b),
}


def equality_term(text, copies=(None, None)):
    """``text`` with x and b in copy ``copies[0]`` and y in ``copies[1]``."""
    sides = {"x": Var("x", INT, copies[0]), "b": Var("b", BOOL, copies[0]),
             "y": Var("y", INT, copies[1]), "0": IntLit(0), "1": IntLit(1),
             "true": TRUE, "false": FALSE}
    left, right = text[3:-1].split()
    return Cmp("=", sides[left], sides[right])


@pytest.mark.parametrize("text", sorted(EQUALITIES))
def test_equality_matches_values_equal_wherever_it_is_generated(text):
    # every pair, the same object on both sides included, in a compiled term,
    # a two-state predicate and a tx test, each written inline where it can be
    compiled = compile_term(equality_term(text))
    holds = oracle._predicate(equality_term(text, (1, 2)), -1, 1)
    dom = ScalarDomain(tuple(EQUALITY_VALUES))
    state_vars = (("x", INT), ("y", INT), ("b", BOOL))
    frames = [Cmp("=", Var(n, s, None, True), Var(n, s)) for n, s in state_vars]
    system = TransitionSystem("eq", state_vars, (), TRUE, And((*frames, equality_term(text))))
    inst = FiniteInstance(system, {"x": dom, "y": dom, "b": dom}, {}, depth=2)
    for x, y in itertools.product(EQUALITY_VALUES, repeat=2):
        b = x
        expected = values_equal(*EQUALITIES[text](x, y, b))
        state = {"x": x, "y": y, "b": b}
        assert compiled(state) is expected, (x, y)
        assert holds({"x": x, "b": b}, {"y": y}) is expected, (x, y)
        assert successors(inst, state) == ([state] if expected else []), (x, y)


# -- trace enumeration ---------------------------------------------------------


def test_enumerate_traces_counter(counter):
    inst = counter_instance(counter, 2, depth=4)
    traces = enumerate_traces(inst)
    assert len(traces) == 1
    xs = [s["x"] for s in traces[0].states]
    assert xs == [0, 1, 2, 2]


def test_successors_deterministic_flag(counter):
    coin = parse_system(COIN)
    inst = FiniteInstance(
        system=coin,
        domains={"done": ScalarDomain((False, True)), "b": ScalarDomain((0, 1))},
        params={},
        depth=2,
        deterministic=True,
    )
    with pytest.raises(OracleError):
        enumerate_traces(inst)
    free = FiniteInstance(
        system=coin,
        domains={"done": ScalarDomain((False, True)), "b": ScalarDomain((0, 1))},
        params={},
        depth=2,
    )
    assert len(enumerate_traces(free)) == 2


def test_instance_changes_are_seen_by_the_next_call():
    coin = parse_system(COIN)
    inst = FiniteInstance(
        system=coin,
        domains={"done": ScalarDomain((False, True)), "b": ScalarDomain((0, 1))},
        params={},
        depth=2,
    )
    # a changed instance is a copy with a plan of its own; the first is unchanged
    assert len(enumerate_traces(inst)) == 2
    with pytest.raises(AttributeError):
        inst.cap = 0
    with pytest.raises(OracleError):
        enumerate_traces(inst._replace(deterministic=True))
    with pytest.raises(CapExceeded):
        enumerate_traces(inst._replace(cap=0))
    assert len(enumerate_traces(inst)) == 2


def test_successors_share_the_instance_plan(counter):
    # every call on one instance uses the plan it built on first use
    inst = counter_instance(counter, 3, depth=2)
    state = {"x": 1, "n": 3}
    assert successors(inst, state) == [{"x": 2, "n": 3}]
    plan = inst.plan
    assert successors(inst, state) == [{"x": 2, "n": 3}] and inst.plan is plan
    assert enumerate_traces(inst) and inst.plan is plan
    assert inst._replace().plan is not plan


# sha256 of the trace list and the class count at pivot 0 for every shipped
# instance.sexp, recorded before trace enumeration was compiled; any change
# to which traces exist or to their order shows here
SHIPPED_TRACES = {
    "electronic-purse": (13, "5d872b65e92e995f1a80564fd774a53af6141f3142448a97f23ae95d4d959abd", 2),
    "f-y-array-shuffle": (6, "7742bf2c15bdb785c31b6f2354fe6810533a053b626fcd71cbf3e84088d04adf", 6),
    "password-checker": (16, "142cef8ea372e21c8e01e8501270bc412d6fea97b2fc5bc186ec43a51ad8fcb3", "unknown"),
    "path-oram": (54, "8a984b06293692cfb7ae428cb3a7e00cabf50a51c9a6a80e1c6e429f3eed5077", "unknown"),
    "zk-hats": (16, "fc9f6c1d231daf0a005b38fc8c734e0dd5720d87970e10850374b072c7744ab6", 3),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_TRACES))
def test_shipped_instance_trace_digests(benchmarks, name):
    setup = load_instance(benchmarks / name / "instance.sexp")
    traces = enumerate_traces(setup.instance)
    text = repr([tuple(state_key(s) for s in t.states) for t in traces])
    classes = count_equivalence_classes(setup.instance, setup.project.prop, traces[0], traces)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (len(traces), digest, classes) == SHIPPED_TRACES[name]


@pytest.mark.parametrize("name", sorted(SHIPPED_TRACES))
def test_shared_plan_counts_as_a_fresh_instance_does(benchmarks, name):
    # one instance counts at every pivot with the pins of the counts before;
    # a fresh copy per pivot starts from an empty plan
    setup = load_instance(benchmarks / name / "instance.sexp")
    inst, prop = setup.instance, setup.project.prop
    traces = enumerate_traces(inst)
    for pivot in traces:
        fresh = inst._replace()
        expected = count_equivalence_classes(fresh, prop, pivot, enumerate_traces(fresh))
        assert count_equivalence_classes(inst, prop, pivot, traces) == expected


def test_dropped_instance_leaves_nothing_for_the_cycle_collector():
    # the plan keeps no reference to its instance, so the two form no cycle
    coin = parse_system(COIN)
    prop = parse_property(COIN_PROP, coin)
    inst = FiniteInstance(coin, {"done": ScalarDomain((False, True)), "b": ScalarDomain((0, 1))},
                          {}, depth=2)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    before = len(gc.garbage)
    try:
        traces = enumerate_traces(inst)
        assert count_equivalence_classes(inst, prop, traces[0], traces) == 2
        assert inst.plan.pins
        ref = weakref.ref(inst)
        del inst, traces
        assert ref() is None
        gc.collect()
        assert gc.garbage[before:] == []
    finally:
        gc.set_debug(0)
        del gc.garbage[before:]
        gc.enable()


def test_init_fix_pins_only_the_start(counter):
    inst = counter_instance(counter, 2, depth=3, init_fix={"x": 0})
    traces = enumerate_traces(inst)
    assert [s["x"] for s in traces[0].states] == [0, 1, 2]


def test_inverted_quantifier_bounds_are_refused(counter):
    with pytest.raises(OracleError, match=r"^quantifier bounds 2 > 1$"):
        counter_instance(counter, 2, depth=3, quant_lo=2, quant_hi=1)
    assert counter_instance(counter, 2, depth=3, quant_lo=1, quant_hi=1).quant_hi == 1


def test_cap_enforced(counter):
    inst = counter_instance(counter, 2, depth=3, cap=0)
    with pytest.raises(CapExceeded):
        enumerate_traces(inst)


# -- solved definitions against the filtering reference -------------------------


def reference_traces(inst):
    """Trace enumeration without solved equations: the whole initial domain
    product is filtered by init, and every successor candidate is checked
    against all of tx."""
    system = inst.system
    lo, hi = inst.quant_lo, inst.quant_hi
    names = [name for name, _ in system.state_vars]

    def domains(initial):
        doms = {}
        for name in names:
            if name in inst.params:
                doms[name] = ScalarDomain((inst.params[name],))
            elif initial and name in inst.init_fix:
                doms[name] = ScalarDomain((inst.init_fix[name],))
            else:
                doms[name] = inst.domains[name]
        return doms

    start = domains(True)
    total = 1
    for dom in start.values():
        total *= dom.size()
        if total > inst.cap:
            raise CapExceeded(f"state domain product exceeds cap {inst.cap}")
    init = compile_term(system.init, lo, hi)
    level = [
        (state,)
        for combo in itertools.product(*(list(start[n]) for n in names))
        if init(state := dict(zip(names, combo)))
    ]

    # primed variables defined by an equation, in an order they can be computed
    conjuncts = list(system.tx.args) if isinstance(system.tx, And) else [system.tx]

    def primed_side(side):
        return isinstance(side, Var) and side.primed and side.copy is None

    equations = [c for c in conjuncts if isinstance(c, Cmp) and c.op == "="]
    choices = set(names) - {s.name for c in equations for s in (c.left, c.right) if primed_side(s)}
    defs, pending, listed = [], list(equations), set()
    while True:
        found = next(
            (
                (c, lhs.name, rhs)
                for c in pending
                for lhs, rhs in ((c.left, c.right), (c.right, c.left))
                if primed_side(lhs)
                and lhs.name not in {name for name, _ in defs}
                and {v.name for v in free_vars(rhs) if v.primed} <= {name for name, _ in defs} | choices
            ),
            None,
        )
        if found is None:
            break
        pending.remove(found[0])
        defs.append((found[1], compile_term(found[2], lo, hi)))
        sort = system.sort_of(found[1])
        if isinstance(sort, ArraySort) and found[2] != Var(found[1], sort):
            listed.add(found[1])  # a defined array, not a frame
    free = sorted(set(names) - {name for name, _ in defs})
    doms = domains(False)
    tx = compile_term(system.tx, lo, hi)

    def successors_of(state):
        out, seen = [], set()
        for combo in itertools.product(*(list(doms[n]) for n in free)):
            env = dict(state)
            env.update((f"{n}!", v) for n, v in zip(free, combo))
            try:
                for name, rhs in defs:
                    env[f"{name}!"] = rhs(env)
                if not tx(env):
                    continue
            except OracleError:
                continue
            # an array domain lists its arrays: a defined array must equal
            # one, and takes each member it equals, a frame its own value
            for combo in itertools.product(*(
                [v for v in doms[n] if values_equal(env[f"{n}!"], v)] if n in listed
                else [env[f"{n}!"]] for n in names
            )):
                nxt = dict(zip(names, combo))
                if all(any(values_equal(nxt[n], v) for v in doms[n]) for n in names) and (
                    state_key(nxt) not in seen
                ):
                    seen.add(state_key(nxt))
                    out.append(nxt)
        if inst.deterministic and len(out) > 1:
            raise OracleError("instance declared deterministic but a state has several successors")
        return out

    for _ in range(inst.depth - 1):
        level = [prefix + (s,) for prefix in level for s in successors_of(prefix[-1])]
        if len(level) > inst.cap:
            raise CapExceeded(f"trace count exceeds cap {inst.cap}")
    return sorted(
        (BoundedTrace(t) for t in level), key=lambda tr: tuple(state_key(s) for s in tr.states)
    )


def outcome(enumerate_fn, inst):
    """The trace keys in order, or the error type and message."""
    try:
        traces = enumerate_fn(inst)
    except OracleError as exc:
        return type(exc), str(exc)
    return [tuple(state_key(s) for s in t.states) for t in traces]


PASSWORD_EXHAUSTIVE_ATTACKER = """
(system password-checker-det
  (vars (pwd (Array Int Int)) (inp (Array Int Int)) (ok Bool)
        (t Int) (n Int) (m Int))
  (params n m)
  (init (and (>= n 1) (= t 0) (not ok)
             (forall ((j Int)) (and (<= 0 (select pwd j)) (<= (select pwd j) 1)))
             (forall ((j Int)) (=> (or (< j 1) (> j n)) (= (select pwd j) 0)))
             (forall ((j Int)) (= (select inp j) 0))))
  (tx (and (= pwd! pwd) (= n! n) (= m! m)
           (= t! (ite (< t m) (+ t 1) t))
           (forall ((j Int)) (= (select inp! j)
                                (ite (and (<= 1 j) (<= j n))
                                     (mod (div t! (pow2 (- j 1))) 2)
                                     0)))
           (= ok! (or ok (= inp! pwd))))))
"""

COIN_PROP = """
(qhp (forall t0)
     (count t1
       :diff (finally (not (= b$1 b$2)))
       :body (globally (= done$1 done$2))
       :cmp geq
       :bound 1))
"""


def differential_cases(benchmarks):
    """(instance, property) pairs: every shipped instance, the small systems
    above and the benchmark's oracle-traces systems at small sizes."""
    for name in sorted(SHIPPED_TRACES):
        setup = load_instance(benchmarks / name / "instance.sexp")
        yield name, setup.instance, setup.project.prop
    counter = parse_system(COUNTER)
    yield "counter", counter_instance(counter, 3, depth=4), parse_property(PROP, counter)
    coin = parse_system(COIN)
    coin_inst = FiniteInstance(
        system=coin,
        domains={"done": ScalarDomain((False, True)), "b": ScalarDomain((0, 1))},
        params={},
        depth=3,
    )
    yield "coin", coin_inst, parse_property(COIN_PROP, coin)
    hats = load_project(benchmarks / "zk-hats")
    hats_inst = FiniteInstance(
        system=hats.system,
        domains={
            "C": ArrayDomain(1, 2, (0, 1)),
            "P": ArrayDomain(1, 2, (0, 1)),
            "i": ScalarDomain(tuple(range(0, 3))),
            "s": ScalarDomain((False, True)),
        },
        params={"R": 2},
        depth=4,
        deterministic=True,
        quant_lo=-1,
        quant_hi=4,
    )
    yield "zk-hats R=2", hats_inst, hats.prop
    purse = load_project(benchmarks / "electronic-purse")
    purse_inst = FiniteInstance(
        system=purse.system,
        domains={
            "bal": ScalarDomain(tuple(range(0, 13))),
            "st": ScalarDomain(tuple(range(0, 5))),
            "q": ScalarDomain(tuple(range(0, 7))),
            "rs": ScalarDomain(tuple(range(0, 2))),
        },
        params={"dc": 2},
        depth=4,
        deterministic=True,
    )
    yield "electronic-purse decr=2", purse_inst, purse.prop
    password = parse_system(PASSWORD_EXHAUSTIVE_ATTACKER)
    password_inst = FiniteInstance(
        system=password,
        domains={
            "pwd": ArrayDomain(1, 2, (0, 1)),
            "inp": ArrayDomain(1, 2, (0, 1)),
            "ok": ScalarDomain((False, True)),
            "t": ScalarDomain(tuple(range(0, 4))),
        },
        params={"n": 2, "m": 3},
        depth=5,
        deterministic=True,
        quant_lo=-1,
        quant_hi=4,
    )
    password_prop = parse_property(
        (benchmarks / "password-checker" / "property.sexp").read_text(), password
    )
    yield "password attacker n=2", password_inst, password_prop


def test_solved_enumeration_matches_reference(benchmarks):
    names = []
    for name, inst, prop in differential_cases(benchmarks):
        names.append(name)
        traces, expected = enumerate_traces(inst), reference_traces(inst)
        assert outcome(lambda _: traces, inst) == outcome(lambda _: expected, inst), name
        assert traces, name
        assert count_equivalence_classes(inst, prop, traces[0], traces) == count_equivalence_classes(
            inst, prop, expected[0], expected
        ), name
    assert len(names) == 10


def scalar_instance(init, domains, cap=10**6, params=None, init_fix=None):
    """A one-step instance of ``init`` over Int variables a, x and y that never change.

    A conjunct of ``init`` that is a bare variable filters by the truth of
    its values. That is ill sorted, so no loaded file can hold it: it is
    built in code, and every other conjunct is read.
    """
    system = parse_system(
        "(system defs (vars (a Int) (x Int) (y Int)) (init true) "
        "(tx (and (= a! a) (= x! x) (= y! y))))"
    )
    env = dict(system.state_vars)

    def read(expr):
        if isinstance(expr, str) and expr in env:
            return Var(expr, INT)
        return term_from_sexpr(expr, env)

    expr = parse_one(init)
    if isinstance(expr, list) and expr[0] == "and":
        system = system._replace(init=And(tuple(map(read, expr[1:]))))
    else:
        system = system._replace(init=read(expr))
    domains = {"a": (0, 1, 2, 3), "x": tuple(range(-2, 8)), "y": (0,), **domains}
    return FiniteInstance(
        system=system,
        domains={name: ScalarDomain(values) for name, values in domains.items()},
        params=params or {},
        depth=2,
        cap=cap,
        init_fix=init_fix or {},
    )


# Each init solves x (and y) from an equation; the outcome must be the one
# filtering the whole domain product gives, with that many initial states.
# A row named for a raise divides by a value that may be zero or negative:
# (div 6 0) is 0 and (div 6 (- 2)) is -3, as in SMT-LIB.
SOLVED_INITS = {
    "unguarded raise": ("(and (<= 0 a) (= x (div 6 a)))", {}, 4),
    "guarded raise": ("(and (< 0 a) (= x (div 6 a)))", {}, 3),
    "raise before a matched definition": ("(and (> (div 6 a) 0) (= x a))", {}, 3),
    "raise before an unmatched definition": ("(and (> (div 6 a) 0) (= x a))", {"x": (5, 6)}, 0),
    "value outside the domain": ("(= x (+ a 5))", {}, 3),
    "raise at a value the equation excludes": ("(and (> (div 6 x) 0) (= x (+ a 1)))", {}, 4),
    "x on both sides": ("(= x (- 0 x))", {}, 4),
    "duplicate domain values": ("(and (= x (- a 1)) (= y (* x 2)))", {"x": (0, 1, 1, 2), "y": (0, 2, 2, 4)}, 6),
    "mixed True and 1": ("(= x (- 2 a))", {"x": (True, 1, 0, False, 2)}, 3),
    "unsolved True and 1": ("(and (distinct x 1) (distinct y x))", {"x": (True, 1, 0), "y": (1, True)}, 12),
    "second definition from the first": ("(and (= x (+ a 1)) (< a 3) (= y (- x 1)))", {"y": (0, 1, 2)}, 3),
    # a conjunct on one variable filters its domain before the product
    "raise before a filter": ("(and (> (div 6 a) 0) (< x 3))", {}, 15),
    "filter emptied after a raise": ("(and (> (div 6 a) 0) (> x 100))", {}, 0),
    "filter emptied after a two-variable raise": ("(and (> (div 6 (+ a y)) 0) (> x 100))", {}, 0),
    "raise after a filter": ("(and (< x 0) (> (div 6 x) 0))", {}, 0),
    "filter on a variable an earlier conjunct reads": ("(and (> (div 6 (+ a x)) 0) (> x 2))", {}, 10),
    "bare x filter over True and 1": ("(and x (< a 2))", {"x": (True, 1, 0)}, 4),
}


@pytest.mark.parametrize("case", sorted(SOLVED_INITS))
def test_solved_init_matches_reference(case):
    init, domains, count = SOLVED_INITS[case]
    inst = scalar_instance(init, domains)
    got = outcome(enumerate_traces, inst)
    assert got == outcome(reference_traces, inst)
    assert len(got) == count


CONJUNCTS = (
    "(= x (+ a 1))",
    "(= y (div 6 a))",
    "(< a 3)",
    "(< 0 a)",
    "(= x (- 0 x))",
    "(> (div 6 x) 0)",
    "(= y x)",
    "(= 2 a)",
    "(distinct x y)",
    "(< x 2)",
    "x",
)
VALUES = st.lists(st.sampled_from((-1, 0, 1, 2, 3, True, False)), min_size=1, max_size=5)


# a parameter or init-fix entry may fix any of a, x and y; a parameter wins
FIXED = st.dictionaries(st.sampled_from("axy"), st.sampled_from((-1, 0, 1, 2, True)), max_size=2)


@settings(max_examples=400)
@given(
    st.lists(st.sampled_from(CONJUNCTS + ("(> (div 6 a) 0)",)), min_size=1, max_size=4),
    st.fixed_dictionaries({"a": VALUES, "x": VALUES, "y": VALUES}),
    FIXED,
    FIXED,
)
# a conjunct that divides by the parameter alone, which is 0
@example(["(< x 2)", "(> (div 6 a) 0)"], {"a": [1], "x": [0, 1], "y": [0]}, {"a": 0}, {})
@example(["(= x (+ a 1))", "(< y 1)"], {"a": [0], "x": [0], "y": [0]}, {"a": 0}, {"x": 1, "y": 0})
def test_random_solved_inits_match_reference(conjuncts, domains, params, init_fix):
    domains = {n: tuple(v) for n, v in domains.items()}
    inst = scalar_instance(f"(and {' '.join(conjuncts)})", domains, params=params, init_fix=init_fix)
    assert outcome(enumerate_traces, inst) == outcome(reference_traces, inst)


def test_init_conjunct_over_an_array_and_a_parameter_filters_the_array():
    # x is declared between C and the parameter R, so a test at R's loop
    # would run once per (C, x) pair: 4 * 5 times, not 4
    system = parse_system(
        "(system filter (vars (C (Array Int Int)) (x Int) (R Int)) (params R) "
        "(init (<= (select C 1) R)) (tx (and (= C! C) (= x! x) (= R! R))))"
    )
    inst = FiniteInstance(
        system=system,
        domains={"C": ArrayDomain(1, 2, (0, 1)), "x": ScalarDomain(tuple(range(5)))},
        params={"R": 0},
        depth=1,
    )
    selects, select = [], FArray.get

    def get(array, index):
        selects.append(array)
        return select(array, index)

    with mock.patch.object(FArray, "get", get):
        got = outcome(enumerate_traces, inst)
    assert got == outcome(reference_traces, inst) and len(got) == 2 * 5
    assert len(selects) == 4


@pytest.mark.parametrize("rounds, traces", [(0, 0), (1, 4)])
def test_init_test_of_a_parameter_runs_before_the_array_filters(benchmarks, rounds, traces):
    # hats' (>= R 1) reads the parameter alone: at R = 0 it fails before
    # either array filter selects from any of the 4 arrays of its domain
    hats = load_project(benchmarks / "zk-hats")
    inst = FiniteInstance(
        system=hats.system,
        domains={"C": ArrayDomain(1, 2, (0, 1)), "P": ArrayDomain(1, 2, (0, 1)),
                 "i": ScalarDomain((0, 1)), "s": ScalarDomain((False, True))},
        params={"R": rounds},
        depth=1,
        quant_lo=-1,
        quant_hi=2,
    )
    arrays, select = [], FArray.get

    def get(array, index):
        arrays.append(array)
        return select(array, index)

    with mock.patch.object(FArray, "get", get):
        got = outcome(enumerate_traces, inst)
    assert got == outcome(reference_traces, inst) and len(got) == traces
    assert bool(arrays) == bool(rounds)


def branching_instance(init, a, x, depth=3):
    """An instance over Int variables a and x, where x may stay or grow by
    one at each step."""
    system = parse_system(
        f"(system branch (vars (a Int) (x Int)) (init {init}) "
        "(tx (and (= a! a) (<= x x!) (<= x! (+ x 1)))))"
    )
    return FiniteInstance(
        system=system,
        domains={"a": ScalarDomain(a), "x": ScalarDomain(x)},
        params={},
        depth=depth,
    )


def test_equal_initial_states_interleave_their_traces():
    # both initial states are (a 5, x 0): their traces have equal keys and
    # alternate in the canonical order, rather than following each other
    inst = branching_instance("(= x 0)", (5, 5), (0, 1, 2))
    got = outcome(enumerate_traces, inst)
    assert got == outcome(reference_traces, inst)
    assert len(got) == 8 and got[0] == got[1]


@settings(max_examples=200)
@given(st.sampled_from(("true", "(= x 0)", "(<= x 1)")), VALUES, VALUES)
def test_random_branching_traces_match_reference(init, a, x):
    inst = branching_instance(init, tuple(a), tuple(x))
    assert outcome(enumerate_traces, inst) == outcome(reference_traces, inst)


def test_trace_cap_counts_every_branch():
    # x's domain repeats 1, so x! = 1 is found twice and kept once; from
    # x = 0 three steps give 7 traces out of 4 initial candidates. At cap 6
    # the seventh trace is a lone successor, the last of its level.
    inst = branching_instance("(= x 0)", (5,), (0, 1, 1, 2), depth=4)._replace(cap=7)
    got = outcome(enumerate_traces, inst)
    assert got == outcome(reference_traces, inst) and len(got) == 7
    for cap in (6, 5, 4):
        inst = inst._replace(cap=cap)
        expected = (CapExceeded, f"trace count exceeds cap {cap}")
        assert outcome(enumerate_traces, inst) == outcome(reference_traces, inst) == expected


def test_successors_are_the_expansion_of_one_state():
    # the successors of a prefix's last state are the states that follow
    # the prefix in the traces, each once
    inst = branching_instance("(<= x 1)", (5, 5), (0, 1, 1, 2), depth=4)
    states = {state_key(s): s for t in enumerate_traces(inst) for s in t.states}
    traces = outcome(enumerate_traces, inst)
    assert traces == outcome(reference_traces, inst)
    for depth in range(1, inst.depth):
        for prefix in dict.fromkeys(t[:depth] for t in traces):
            following = [t[depth] for t in traces if t[:depth] == prefix]
            got = [state_key(s) for s in successors(inst, states[prefix[-1]])]
            assert sorted(got) == list(dict.fromkeys(following))
            assert got == [state_key(s) for s in filtered_successors(inst, states[prefix[-1]])]


def test_solved_bool_definition_keeps_type():
    system = parse_system(
        "(system flag (vars (a Int) (b Bool)) (init (= b (< a 2))) (tx (and (= a! a) (= b! b))))"
    )
    inst = FiniteInstance(
        system=system,
        domains={"a": ScalarDomain((0, 1, 2, 3)), "b": ScalarDomain((1, True, 0, False))},
        params={},
        depth=2,
    )
    got = outcome(enumerate_traces, inst)
    assert got == outcome(reference_traces, inst)
    assert [t[0][1] for t in got] == [("b", "bool", True)] * 2 + [("b", "bool", False)] * 2


def test_cap_judged_on_full_initial_product():
    # the full product has 4 * 10 * 1 = 40 states; the solved one has 4
    inst = scalar_instance("(= x (+ a 1))", {}, cap=39)
    assert outcome(enumerate_traces, inst) == outcome(reference_traces, inst)
    with pytest.raises(CapExceeded, match="state domain product exceeds cap 39"):
        enumerate_traces(inst)
    assert len(enumerate_traces(inst._replace(cap=40))) == 4


# -- the tx search against plain filtering --------------------------------------------


def evaluation(compiled, env):
    """The value of ``compiled`` at ``env``, or the type and message of its error."""
    try:
        return compiled(env)
    except Exception as exc:  # an ill-sorted term built in code raises TypeError and others too
        return type(exc), str(exc)


# values of an Int or Bool variable, which mix true and 1, and of an array
SCALAR_VALUES = (-2, -1, 0, 1, 2, 3, True, False)
ARRAY_VALUES = (FArray(0, (1, 2)), FArray(0, (1, True)), FArray(0, (1, 1)), FArray(-1, (0,), 1))
# quantifiers the oracle evaluates
SCALAR_BINDERS = (("j", INT), ("p", BOOL))


def value_of(sort):
    return st.sampled_from(ARRAY_VALUES if isinstance(sort, ArraySort) else SCALAR_VALUES)


def envs(data, tags, most=4):
    """Up to ``most`` envs that bind every name of ``VAR_SORTS`` with one of
    ``tags`` to a value of its sort, but for at most one left out."""
    full = st.fixed_dictionaries(
        {mangle(name, tag): value_of(sort) for name, sort in VAR_SORTS.items() for tag in tags}
    )
    out = []
    for env in data.draw(st.lists(full, min_size=1, max_size=most)):
        for name in data.draw(st.lists(st.sampled_from(sorted(env)), max_size=1)):
            del env[name]
        out.append(env)
    return out


def tx_instance(state_vars, tx, domains):
    """A depth-2 instance of a system with ``state_vars`` and ``tx``."""
    system = TransitionSystem("tx", tuple(state_vars.items()), (), TRUE, tx)
    return FiniteInstance(system, domains, {}, depth=2, quant_lo=-1, quant_hi=1)


def filtered_successors(inst, state):
    """The candidates of the whole next-state product, in order, on which
    every conjunct of tx evaluates to a truthy value, each state key once."""
    names = sorted(inst.domains)
    tests = [compile_term(c, inst.quant_lo, inst.quant_hi) for c in inst.system.tx.args]
    out, seen = [], set()
    for combo in itertools.product(*(list(inst.domains[n]) for n in names)):
        env = {**state, **{f"{n}!": v for n, v in zip(names, combo)}}
        if not all(test(env) for test in tests):
            continue
        nxt = dict(zip(names, combo))
        if state_key(nxt) not in seen:
            seen.add(state_key(nxt))
            out.append(nxt)
    return out


# every variable of VAR_SORTS, with a domain that mixes true and 1, also
# inside arrays
TX_VARS = dict(VAR_SORTS)
TX_DOMAINS = {
    "x": ScalarDomain((0, True)),
    "y": ScalarDomain((1, -1)),
    "b": ScalarDomain((True, 1)),
    "a": ScalarDomain((FArray(0, (1, 2)), FArray(0, (1, True)))),
    "m": ArrayDomain(0, 0, (0, 1)),
}


def tx_conjuncts(data):
    """Random conjuncts of a ``tx`` over ``TX_VARS``.

    A variable is read from the current state or, primed, from the
    candidate; tx is given no functions. Each top-level equation sets a
    primed variable, either way round, and may define it: its value is
    bound rather than looped over and checked against its domain, where
    plain filtering loops over the domain. A defined variable comes after
    the variables its value reads (see successors), so the value reads only
    primed variables named before it, whose product order plain filtering
    keeps. The frame (= m! m) of an array domain's variable is only
    type-checked, which holds for the states the domains give, not for the
    drawn ones, so it is not drawn."""
    tags = (PLAIN, (None, True))

    def terms(sort):
        return sorted_terms(sort, tags=tags, binders=SCALAR_BINDERS, apps=False)

    def equation(name):
        primed = Var(name, TX_VARS[name], None, True)
        frame = primed.with_tag(PLAIN) if isinstance(TX_DOMAINS[name], ArrayDomain) else None
        values = terms(primed.sort).filter(
            lambda e: e != frame and all(v.name < name for v in free_vars(e) if v.primed)
        )
        sides = st.tuples(st.just(primed), values)
        return st.builds(lambda pair, flip: Cmp("=", *pair[::-1 if flip else 1]), sides, st.booleans())

    tests = terms(BOOL).filter(lambda t: not (isinstance(t, Cmp) and t.op == "="))
    conjunct = st.one_of(tests, st.sampled_from(sorted(TX_VARS)).flatmap(equation))
    return data.draw(st.lists(conjunct, min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_successors_agree_with_plain_filtering(data):
    conjuncts = tx_conjuncts(data)
    states = data.draw(
        st.lists(st.fixed_dictionaries({n: value_of(s) for n, s in TX_VARS.items()}),
                 min_size=1, max_size=3)
    )
    inst = tx_instance(TX_VARS, And(tuple(conjuncts)), TX_DOMAINS)
    # every state twice, so that the second round reads what the first stored
    for state in states + states:
        got = successors(inst, state)
        assert [state_key(s) for s in got] == [state_key(s) for s in filtered_successors(inst, state)]


def test_successors_tell_true_from_one():
    x, a = Var("x", INT, None, True), Var("a", ArraySort(INT, INT), None, True)
    tx = And((Distinct((x, IntLit(1))), Distinct((Select(a, IntLit(0)), IntLit(1)))))
    arrays = (FArray(0, (0,)), FArray(0, (True,)), FArray(0, (1,)))
    inst = tx_instance({"x": INT, "a": ArraySort(INT, INT)}, tx,
                       {"x": ScalarDomain((True, 1)), "a": ScalarDomain(arrays)})
    expected = [{"a": FArray(0, (0,)), "x": True}, {"a": FArray(0, (True,)), "x": True}]
    for state in ({"x": 1, "a": arrays[2]}, {"x": True, "a": arrays[1]}) * 2:
        assert [state_key(s) for s in successors(inst, state)] == list(map(state_key, expected))


# (distinct a! a) reads a! from a filtered loop: arrays equal in another
# window are not distinct, and an array of true is distinct from one of 1
DISTINCT_ARRAYS = (FArray(0, (0,)), FArray(0, ()), FArray(0, (True,)), FArray(0, (1,)))


@pytest.mark.parametrize("start, kept", [(0, (2, 3)), (1, (2, 3)), (2, (0, 1, 3)), (3, (0, 1, 2))])
def test_two_argument_distinct_compares_arrays_as_values(start, kept):
    a = Var("a", ArraySort(INT, INT), None, True)
    tx = And((Distinct((a, a.with_tag(PLAIN))),))
    inst = tx_instance({"a": a.sort}, tx, {"a": ScalarDomain(DISTINCT_ARRAYS)})
    state = {"a": DISTINCT_ARRAYS[start]}
    expected = [state_key({"a": DISTINCT_ARRAYS[k]}) for k in kept]
    assert [state_key(s) for s in filtered_successors(inst, state)] == expected
    assert [state_key(s) for s in successors(inst, state)] == expected


def test_expressions_at_the_nesting_limit_are_written_inline():
    # two tests _NESTING levels deep, each a two-argument distinct under
    # ands that hold: one of the per-prefix binding x!, one in the filtered
    # loop of y!. Both are one expression each, so no function is defined
    x, x1, y1 = Var("x", INT), Var("x", INT, None, True), Var("y", INT, None, True)

    def deep(t, bound):
        for k in range(oracle._NESTING):
            t = And((Cmp("<=", IntLit(-1 - k), bound), t))
        return t

    tx = And((Cmp("=", x1, x), deep(Distinct((x1, IntLit(1))), x1), deep(Distinct((y1, x)), y1)))
    system = TransitionSystem("deep", (("x", INT), ("y", INT)), (), TRUE, tx)
    domain = ScalarDomain((0, 1, 2))
    inst = FiniteInstance(system, {"x": domain, "y": domain}, {}, depth=3)
    with mock.patch.object(oracle, "_define", wraps=oracle._define) as define:
        got = outcome(enumerate_traces, inst)
    source = [line for call in define.call_args_list for line in call.args[1]]
    assert not [line for line in source if line.lstrip().startswith(("def t", "def f"))]
    # x stays 0 or 2, and y steps to one of the two values other than x
    assert got == outcome(reference_traces, inst) and len(got) == 2 * 3 * 2 * 2


def test_filters_tell_true_from_one_in_what_they_read():
    # d! and a! are bound once per prefix, and the filter of x! reads both:
    # its entries are kept by their typed values, so d = 1 and d = true, and
    # arrays that hold 1 and true, never share one
    d, x = Var("d", INT, None, True), Var("x", INT, None, True)
    a = Var("a", ArraySort(INT, INT), None, True)
    frames = tuple(Cmp("=", v, v.with_tag(PLAIN)) for v in (d, a))
    tx = And((*frames, Distinct((x, d)), Distinct((x, Select(a, IntLit(0))))))
    arrays = (FArray(0, (1,)), FArray(0, (True,)))
    domains = {"a": ScalarDomain(arrays), "d": ScalarDomain((1, True)),
               "x": ScalarDomain((0, 1, True))}
    inst = tx_instance({"a": ArraySort(INT, INT), "d": INT, "x": INT}, tx, domains)
    got = outcome(enumerate_traces, inst)
    # from each of the 3 values of x: 2 + 1 + 1 + 2 successors over the values of a and d
    assert got == outcome(reference_traces, inst) and len(got) == 3 * 6
    states = [{"a": arr, "d": dv, "x": 0} for dv in (1, True) for arr in arrays]
    for state in states + states[::-1]:
        expected = filtered_successors(inst, state)
        assert list(map(state_key, successors(inst, state))) == list(map(state_key, expected))


def test_successors_test_a_defined_scalar_for_its_domain_by_type():
    b, n, v = (Var(name, INT, None, True) for name in ("b", "n", "v"))
    one, true = IntLit(1), BoolLit(True)
    cases = [
        ({"b": BOOL}, Cmp("=", b, one), {"b": ScalarDomain((False, True))}, []),
        ({"n": INT}, Cmp("=", n, true), {"n": ScalarDomain((0, 1))}, []),
        ({"v": INT}, Cmp("=", v, one), {"v": ScalarDomain((True, 1, 0))}, [{"v": 1}]),
        ({"v": INT}, Cmp("=", true, v), {"v": ScalarDomain((True, 1, 0))}, [{"v": True}]),
    ]
    for state_vars, tx, domains, expected in cases:
        inst = tx_instance(state_vars, tx, domains)
        for state in ({name: 0 for name in state_vars},) * 2:
            got = successors(inst, state)
            assert list(map(state_key, got)) == list(map(state_key, expected))


A = Var("A", ArraySort(INT, INT))
A_NEXT = Var("A", ArraySort(INT, INT), None, True)


@pytest.mark.parametrize(
    "rhs, start, kept",
    [
        (Store(A, IntLit(1), IntLit(5)), (0, 0), False),  # 5 is not a value of the domain
        (Store(A, IntLit(1), IntLit(1)), (0, 0), True),
        (Store(A, IntLit(1), TRUE), (0, 0), False),  # true is not 1
        (Store(A, IntLit(3), IntLit(1)), (0, 0), False),  # outside [1, 2], not the default
        (Store(A, IntLit(3), IntLit(0)), (0, 0), True),
        (ConstArray(IntLit(1)), (0, 0), False),  # default 1, not 0
        (ConstArray(IntLit(0)), (0, 0), True),  # the window [1, 2] read from the default
        (Store(ConstArray(IntLit(0)), IntLit(2), IntLit(1)), (1, 1), True),  # window [0, 2]
        (IntLit(0), (0, 0), False),
        # a frame keeps the current value, which lies in the domain for a
        # state that enumeration produces: it is only checked to be an array
        (A, (5, 0), True),
    ],
)
def test_successors_test_a_defined_array_for_its_domain(rhs, start, kept):
    domain = {"A": ArrayDomain(1, 2, (0, 1))}
    inst = tx_instance({"A": ArraySort(INT, INT)}, Cmp("=", A_NEXT, rhs), domain)
    state = {"A": FArray(1, start)}
    value = compile_term(rhs)(state)
    # the state holds the domain's member equal to the value, so that equal
    # states share a state key; a frame holds the value itself
    nxt = value if rhs is A else next((m for m in domain["A"] if values_equal(m, value)), None)
    assert successors(inst, state) == ([{"A": nxt}] if kept else [])
    assert outcome(enumerate_traces, inst) == outcome(reference_traces, inst)


def test_successors_divide_as_smtlib_does_on_every_call():
    # (div 7 b!) is -3 at b! = -2 alone: the remainder lies in [0, |b|), so
    # (div 7 (- 3)) is -2, and (div 7 0) is 0. Only a <= 0 asks for it.
    a, b = Var("a", INT), Var("b", INT, None, True)
    keep_a = Cmp("=", Var("a", INT, None, True), a)
    divides = Or((Cmp(">", a, IntLit(0)), Cmp("=", Div(IntLit(7), b), IntLit(-3))))
    inst = tx_instance({"a": INT, "b": INT}, And((keep_a, divides)),
                       {"a": ScalarDomain((0, 1)), "b": ScalarDomain((0, 2, -2, -3))})
    for _ in range(3):
        assert successors(inst, {"a": 1, "b": 0}) == [{"a": 1, "b": b} for b in (0, 2, -2, -3)]
        assert successors(inst, {"a": 0, "b": 0}) == [{"a": 0, "b": -2}]


@functools.cache
def shipped_states(benchmarks, name):
    """The instance of a shipped instance.sexp and every state of its traces."""
    inst = load_instance(benchmarks / name / "instance.sexp").instance
    states = {state_key(s): s for t in enumerate_traces(inst) for s in t.states}
    return inst, list(states.values())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SHIPPED_TRACES)), st.randoms(use_true_random=False))
def test_shuffled_tx_conjuncts_keep_successors(benchmarks, name, random):
    inst, states = shipped_states(benchmarks, name)
    conjuncts = list(inst.system.tx.args)
    random.shuffle(conjuncts)
    shuffled = inst._replace(system=inst.system._replace(tx=And(tuple(conjuncts))))
    for state in states:
        expected = sorted(map(state_key, successors(inst, state)))
        assert sorted(map(state_key, successors(shuffled, state))) == expected


# -- generated code against the closure compiler -------------------------------------


def reference_div_mod(a, b):
    """SMT-LIB's ``div`` and ``mod``: ``q`` rounds ``a / b`` down for
    ``b > 0`` and up for ``b < 0``, and ``r = a - b * q``; at ``b = 0``,
    ``q`` is 0 and ``r`` is ``a``."""
    if b == 0:
        return 0, a
    q = a // b if b > 0 else -(a // -b)
    return q, a - b * q


def reference_compile(term, quant_lo=-2, quant_hi=8, funcs=None):
    """A closure compiler, one closure per node, over an env keyed by
    mangled names, with the oracle's semantics: what cannot be evaluated is
    refused when compiled, and a call raises for the first free variable,
    in order of mangled name, that the env lacks."""

    def comp(t):
        if isinstance(t, Var):
            key = t.mangled
            return lambda env: env[key]
        if isinstance(t, (IntLit, BoolLit)):
            value = t.value
            return lambda env: value
        if isinstance(t, App):
            if funcs and t.func in funcs:
                fn = funcs[t.func]
            elif t.func == "pow2":
                fn = lambda n: 2**n if n >= 0 else 0  # noqa: E731
            elif t.func == "fact":
                fn = lambda n: math.prod(range(1, n + 1))  # noqa: E731
            else:
                raise OracleError(f"uninterpreted function {t.func} in oracle evaluation")
            args = [comp(a) for a in t.args]
            return lambda env: fn(*[a(env) for a in args])
        if isinstance(t, Add):
            args = [comp(a) for a in t.args]
            return lambda env: sum([a(env) for a in args])
        if isinstance(t, Sub):
            left, right = comp(t.left), comp(t.right)
            return lambda env: left(env) - right(env)
        if isinstance(t, Neg):
            operand = comp(t.operand)
            return lambda env: -operand(env)
        if isinstance(t, Mul):
            left, right = comp(t.left), comp(t.right)
            return lambda env: left(env) * right(env)
        if isinstance(t, (Div, Mod)):
            left, right = comp(t.left), comp(t.right)
            part = 0 if isinstance(t, Div) else 1
            return lambda env: reference_div_mod(left(env), right(env))[part]
        if isinstance(t, Cmp):
            left, right = comp(t.left), comp(t.right)
            if t.op == "=":
                return lambda env: values_equal(left(env), right(env))
            if t.op == "<":
                return lambda env: left(env) < right(env)
            if t.op == "<=":
                return lambda env: left(env) <= right(env)
            if t.op == ">":
                return lambda env: left(env) > right(env)
            return lambda env: left(env) >= right(env)
        if isinstance(t, Distinct):
            args = [comp(a) for a in t.args]

            def distinct(env):
                vals = [a(env) for a in args]
                return all(
                    not values_equal(vals[i], vals[j])
                    for i in range(len(vals))
                    for j in range(i + 1, len(vals))
                )

            return distinct
        if isinstance(t, Not):
            operand = comp(t.operand)
            return lambda env: not operand(env)
        if isinstance(t, And):
            args = [comp(a) for a in t.args]

            def conj(env):
                for a in args:
                    if not a(env):
                        return False
                return True

            return conj
        if isinstance(t, Or):
            args = [comp(a) for a in t.args]

            def disj(env):
                for a in args:
                    if a(env):
                        return True
                return False

            return disj
        if isinstance(t, Implies):
            left, right = comp(t.left), comp(t.right)
            return lambda env: (not left(env)) or right(env)
        if isinstance(t, Ite):
            cond, then, other = comp(t.cond), comp(t.then), comp(t.other)
            return lambda env: then(env) if cond(env) else other(env)
        if isinstance(t, Select):
            array, index = comp(t.array), comp(t.index)
            return lambda env: array(env).get(index(env))
        if isinstance(t, Store):
            array, index, value = comp(t.array), comp(t.index), comp(t.value)
            return lambda env: array(env).put(index(env), value(env))
        if isinstance(t, ConstArray):
            value = comp(t.value)
            return lambda env: FArray(0, (), value(env))
        if isinstance(t, Quant):
            ranges = []
            for name, sort in t.bound:
                if isinstance(sort, IntSort):
                    ranges.append([(name, v) for v in range(quant_lo, quant_hi + 1)])
                elif isinstance(sort, BoolSort):
                    ranges.append([(name, False), (name, True)])
                else:
                    raise OracleError(f"cannot enumerate quantifier over {sort_to_text(sort)}")
            combos = [dict(c) for c in itertools.product(*ranges)]
            body = comp(t.body)
            combine = all if isinstance(t, Forall) else any
            return lambda env: combine(body({**env, **combo}) for combo in combos)
        raise OracleError(f"cannot evaluate {t!r}")

    names = sorted({v.mangled for v in free_vars(term)})
    root = comp(term)

    def compiled(env):
        for name in names:
            if name not in env:
                raise OracleError(f"unbound variable {name} in oracle evaluation")
        return root(env)

    return compiled


# the symbols of TERM_SIGNATURE, given to the evaluator
FUNCS = {"c": lambda: 3, "f": lambda x: 2 * x - 1, "g": lambda x, p: p if x > 0 else not p,
         "h": lambda m: m.get(0)}
ALL_TAGS = tuple((copy, primed) for copy in (None, 1, 2) for primed in (False, True))


def compiled_or_refused(compile_fn, term, *args):
    """The compiled function of ``term``, or a function that gives the
    type and message of the refusal."""
    try:
        return compile_fn(term, *args)
    except OracleError as exc:
        refusal = type(exc), str(exc)
    return lambda *_: refusal


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_generated_code_matches_closure_reference(data):
    # a quantifier over an array sort is refused, by both alike
    binders = data.draw(st.sampled_from([SCALAR_BINDERS, BINDERS]))
    term = data.draw(st.sampled_from(SORTS).flatmap(
        functools.partial(sorted_terms, tags=ALL_TAGS, binders=binders)))
    lo, hi = data.draw(st.sampled_from([(-1, 1), (0, 2)]))
    compiled = compiled_or_refused(compile_term, term, lo, hi, FUNCS)
    reference = compiled_or_refused(reference_compile, term, lo, hi, FUNCS)
    for env in envs(data, ALL_TAGS):
        assert evaluation(compiled, env) == evaluation(reference, env)


x_, y_, b_, a_ = Var("x", INT), Var("y", INT), Var("b", BOOL), Var("a", ArraySort(INT, INT))


@pytest.mark.parametrize(
    "term",
    [
        # div and mod by a variable: by zero, a negative, a bool
        Div(x_, y_),
        Mod(x_, y_),
        Div(y_, x_),
        # select and store on a non-array, a term built in code: Python's error
        Select(x_, y_),
        Store(b_, y_, x_),
        Select(Store(a_, x_, b_), y_),
        # = is type-exact and distinct too; true is not 1
        Cmp("=", x_, b_),
        Distinct((x_, b_, y_)),
        And((b_, x_)),
        Or((x_, b_)),
        Implies(b_, x_),
        # + adds from 0: a sum of booleans is an int
        Add((b_, x_)),
        Add((x_,)),
        Add(()),
        Add((x_, b_, y_)),
        # quantifiers stop at the first deciding value
        Forall((("j", INT),), Cmp("<", Div(IntLit(1), Var("j", INT)), x_)),
        Exists((("j", INT), ("c", BOOL)), And((Var("c", BOOL), Cmp("=", Var("j", INT), x_)))),
        Forall((("x", INT),), Cmp("=", x_, Var("x", INT, 1))),
        Forall((("c", BOOL),),
               Cmp("=", Ite(Var("c", BOOL), Div(x_, IntLit(0)), Select(x_, y_)), y_)),
        # an unbound variable is named in order of mangled name
        Ite(b_, Var("y", INT, 2), Var("x", INT, 1, True)),
        Cmp("=", Var("k", INT, 2), Var("k", INT, 1)),
    ],
    ids=term_to_text,
)
def test_generated_code_matches_closure_reference_on_edge_cases(term):
    values = (-2, -1, 0, 2, True, False)
    for x, y, b in itertools.product(values, repeat=3):
        for env in ({"x": x, "y": y, "b": b, "a": FArray(0, (5,))}, {"x": x, "b": b}):
            expected = evaluation(reference_compile(term, -1, 1), env)
            assert evaluation(compile_term(term, -1, 1), env) == expected


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_two_state_predicate_matches_merged_env(data):
    # copy j of a variable is read from state j; the reference reads the two
    # states merged into one env keyed by mangled names. A predicate's free
    # variables are copies 1 and 2, unprimed.
    copies = ((1, False), (2, False))
    sorted_body = functools.partial(sorted_terms, tags=copies, binders=SCALAR_BINDERS, apps=False)
    body = data.draw(st.sampled_from(SORTS).flatmap(sorted_body))
    (merged,) = envs(data, copies, most=1)
    states = [{name.split("$")[0]: v for name, v in merged.items() if name.endswith(f"${j}")}
              for j in (1, 2)]
    holds = oracle._predicate(body, -1, 1)
    expected = evaluation(reference_compile(body, -1, 1), merged)
    assert evaluation(lambda pair: holds(*pair), states) == expected


def test_deep_terms_compile():
    # Python's tokenizer allows 200 nested brackets in one expression
    term = b_
    for _ in range(150):
        term = Not(Ite(term, Cmp("=", IntLit(1), Add((x_, IntLit(2)))), FALSE))
    for env in ({"b": True, "x": -1}, {"b": False, "x": 0}, {"b": True}):
        assert evaluation(compile_term(term), env) == evaluation(reference_compile(term), env)


# -- bounded evaluation ---------------------------------------------------------


@pytest.mark.parametrize(
    "first, second, same",
    [
        ({"x": 1, "a": FArray(0, (1,))}, {"x": 1, "a": FArray(0, (1,))}, True),
        ({"x": True}, {"x": 1}, False),
        ({"x": 0}, {"x": False}, False),
        ({"a": FArray(0, (0,))}, {"a": FArray(0, ())}, False),
        ({"a": FArray(0, (2,))}, {"a": 2}, False),
        ({"x": 1}, {"y": 1}, False),
        ({"a": FArray(0, (True,))}, {"a": FArray(0, (1,))}, False),
        ({"a": FArray(0, (), True)}, {"a": FArray(0, (), 1)}, False),
        ({"a": FArray(0, (True, 2))}, {"a": FArray(0, (True, 2))}, True),
    ],
)
def test_settled_compares_states_by_type(first, second, same):
    assert (state_key(first) == state_key(second)) is same
    sorted([state_key(first), state_key(second)])  # keys stay orderable


def test_bounded_eval_unknown_without_settling(counter):
    prop = parse_property(PROP, counter)
    inst = counter_instance(counter, 3, depth=2)
    t = enumerate_traces(inst)[0]
    # depth 2 of 'x counts to 3' never settles: G verdict must stay unknown
    assert eval_bounded(prop.body, t, t, inst) is None


def test_bounded_eval_settles_deterministically(counter):
    prop = parse_property(PROP, counter)
    inst = counter_instance(counter, 1, depth=3)
    t = enumerate_traces(inst)[0]
    assert eval_bounded(prop.body, t, t, inst) is True
    assert eval_bounded(prop.diff, t, t, inst, eventually=True) is False


def test_count_classes_single_trace(counter):
    prop = parse_property(PROP, counter)
    inst = counter_instance(counter, 2, depth=4)
    traces = enumerate_traces(inst)
    assert count_equivalence_classes(inst, prop, traces[0], traces) == 1


def test_count_classes_unknown_when_tail_open(counter):
    prop = parse_property(PROP, counter)
    inst = counter_instance(counter, 3, depth=2)
    traces = enumerate_traces(inst)
    assert count_equivalence_classes(inst, prop, traces[0], traces) == "unknown"


STAY_OR_STEP = """
(system stay-or-step
  (vars (x Int) (n Int))
  (params n)
  (init (= x 0))
  (tx (and (= n! n) (or (= x! x) (= x! (+ x 1))))))
"""


def test_last_state_with_two_successors_is_not_pinned():
    system = parse_system(STAY_OR_STEP)
    prop = parse_property(PROP, system)
    inst = FiniteInstance(system, {"x": ScalarDomain((0, 1, 2))}, {"n": 1}, depth=2)
    traces = enumerate_traces(inst)
    assert [[s["x"] for s in t.states] for t in traces] == [[0, 0], [0, 1]]
    # x = 0 may stay or step: only itself as a successor would pin it
    stay = traces[0]
    assert inst.pinned(stay) is False
    assert eval_bounded(prop.body, stay, stay, inst) is None
    assert count_equivalence_classes(inst, prop, stay, traces) == "unknown"
    # a declared deterministic instance raises, but only once the tail is
    # needed: the copy asks its own plan, not the pins inst has kept
    claimed = inst._replace(deterministic=True)
    assert eval_bounded(prop.diff, stay, traces[1], claimed, eventually=True) is True
    with pytest.raises(OracleError, match="declared deterministic"):
        eval_bounded(prop.body, stay, stay, claimed)
    with pytest.raises(OracleError, match="declared deterministic"):
        count_equivalence_classes(claimed, prop, stay, traces)
    assert eval_bounded(prop.body, stay, stay, inst) is None


def test_last_state_without_successor_in_domain_is_not_pinned(counter):
    prop = parse_property(PROP, counter)
    inst = counter_instance(counter, 3, depth=2)._replace(domains={"x": ScalarDomain((0, 1))})
    (trace,) = enumerate_traces(inst)
    assert [s["x"] for s in trace.states] == [0, 1]
    # x = 1 steps to 2, outside the domain
    assert successors(inst, trace.states[-1]) == []
    assert inst.pinned(trace) is False
    assert eval_bounded(prop.body, trace, trace, inst) is None


def test_absorbing_end_pins_nondeterministic_traces():
    # coin picks b once and then stays: the instance is not deterministic,
    # but each trace's last state has itself as its only successor
    coin = parse_system(COIN)
    inst = FiniteInstance(
        system=coin,
        domains={"done": ScalarDomain((False, True)), "b": ScalarDomain((0, 1))},
        params={},
        depth=2,
    )
    traces = enumerate_traces(inst)
    assert all(inst.pinned(t) for t in traces)
    prop = parse_property(COIN_PROP, coin)
    assert count_equivalence_classes(inst, prop, traces[0], traces) == 2


def test_eval_bounded_rejects_empty_traces(counter):
    inst = counter_instance(counter, 1, depth=1)
    prop = parse_property(PROP, counter)
    empty = BoundedTrace(())
    with pytest.raises(OracleError, match="non-empty"):
        eval_bounded(prop.body, empty, empty, inst)


STEP_COUNTER = """
(system step-counter
  (vars (x Int) (n Int) (k Int))
  (params n k)
  (init (and (<= 0 x) (<= x 2)))
  (tx (and (= n! n) (= k! k) (= x! (ite (<= (+ x k) n) (+ x k) x)))))
"""

STEP_ENV = {f"{name}${copy}": INT for name in ("x", "n", "k") for copy in (1, 2)}


STEP_BODIES = tuple(
    term_from_text(text, STEP_ENV) for text in ("(= n$1 n$2)", "(<= x$1 x$2)", "(= x$1 x$2)")
)


def settled(trace):
    """The rule the absorbing-end rule replaced: a trace of a deterministic
    instance with two equal consecutive states stays in that state."""
    s = trace.states
    return any(state_key(s[k]) == state_key(s[k + 1]) for k in range(len(s) - 1))


@settings(max_examples=150, deadline=None)
@given(
    bound=st.integers(0, 4),
    step=st.integers(0, 2),
    domain=st.sets(st.integers(0, 5), min_size=1),
    depth=st.integers(1, 5),
    body=st.sampled_from(STEP_BODIES),
    eventually=st.booleans(),
)
def test_absorbing_end_agrees_with_settled_rule(bound, step, domain, depth, body, eventually):
    system = parse_system(STEP_COUNTER)
    prop = parse_property(PROP, system)._replace(body=body)
    inst = FiniteInstance(
        system, {"x": ScalarDomain(tuple(sorted(domain)))}, {"n": bound, "k": step},
        depth=depth, deterministic=True,
    )
    traces = enumerate_traces(inst)
    assert all(inst.pinned(t) for t in traces if settled(t))
    pairs = [(a, b) for a in traces for b in traces]
    with mock.patch.object(FiniteInstance, "pinned", lambda self, trace: settled(trace)):
        expected = [
            (eval_bounded(body, a, b, inst, eventually=eventually),
             eval_bounded(prop.diff, a, b, inst, eventually=True))
            for a, b in pairs
        ]
        expected_classes = [count_equivalence_classes(inst, prop, t, traces) for t in traces]
    for (a, b), (body_verdict, diff_verdict) in zip(pairs, expected):
        if body_verdict is not None:
            assert eval_bounded(body, a, b, inst, eventually=eventually) is body_verdict
        if diff_verdict is not None:
            assert eval_bounded(prop.diff, a, b, inst, eventually=True) is diff_verdict
    for pivot, classes in zip(traces, expected_classes):
        if classes != "unknown":
            assert count_equivalence_classes(inst, prop, pivot, traces) == classes


def _and3(a, b):
    if a is False or b is False:
        return False
    return True if a is True and b is True else None


def _or3(a, b):
    if a is True or b is True:
        return True
    return False if a is False and b is False else None


def reference_eval(pred, first, second, instance, eventually=False):
    """The recursive three-valued evaluator ``eval_bounded`` replaced, cut
    down to ``G pred``, or ``F pred`` when ``eventually``: ``first`` is copy
    1 and ``second`` copy 2 of ``pred``, and a verdict that needs the tail is
    given only when both traces' last states are their own only successor."""
    traces = (first, second)
    depths = {t.depth for t in traces}
    if len(depths) != 1 or 0 in depths:
        raise OracleError("traces must be non-empty and of equal depth")
    d = depths.pop()

    def pinned(trace):
        last = trace.states[-1]
        nxt = successors(instance, last)
        return len(nxt) == 1 and state_key(nxt[0]) == state_key(last)

    def tail_known():
        return all(pinned(t) for t in traces)

    def holds(p):
        env = {}
        for j, trace in enumerate(traces):
            env.update({f"{name}${j + 1}": v for name, v in trace.states[p].items()})
        return bool(compile_term(pred, instance.quant_lo, instance.quant_hi)(env))

    if eventually:
        acc = False
        for k in range(d):
            acc = _or3(acc, holds(k))
            if acc is True:
                return True
        return False if acc is False and tail_known() else None
    acc = True
    for k in range(d):
        acc = _and3(acc, holds(k))
        if acc is False:
            return False
    return True if acc and tail_known() else None


def reference_classes(instance, prop, pivot, traces):
    candidates = []
    for t in traces:
        verdict = reference_eval(prop.body, pivot, t, instance)
        if verdict is None:
            return "unknown"
        if verdict:
            candidates.append(t)
    label = list(range(len(candidates)))
    for i, a in enumerate(candidates):
        for j in range(i + 1, len(candidates)):
            delta = reference_eval(prop.diff, a, candidates[j], instance, eventually=True)
            if delta is None:
                return "unknown"
            if not delta:
                label = [label[j] if l == label[i] else l for l in label]
    return len(set(label))


def verdict_or_error(call, *args):
    try:
        result = call(*args)
    except OracleError as exc:
        return type(exc), str(exc)
    return type(result), result


# k is no state variable of stay-or-step, so reading it raises; (div 2 x$2) is 0 at x = 0
REFERENCE_PREDICATES = (
    "(= n$1 n$2)",
    "(<= x$1 x$2)",
    "(= x$1 x$2)",
    "(= x$2 n$2)",
    "(< x$1 n$1)",
    "(= k$1 k$2)",
    "(> (div 2 x$2) 0)",
)


@settings(max_examples=200, deadline=None)
@given(
    system_text=st.sampled_from((STEP_COUNTER, STAY_OR_STEP)),
    bound=st.integers(0, 4),
    step=st.integers(0, 2),
    domain=st.sets(st.integers(0, 5), min_size=1),
    depth=st.integers(1, 4),
    deterministic=st.booleans(),
    body=st.sampled_from(REFERENCE_PREDICATES),
    diff=st.sampled_from(REFERENCE_PREDICATES),
)
# x = 0 may stay or step, so the pin question of G raises on a declared deterministic instance
@example(STAY_OR_STEP, 1, 0, {0, 1}, 1, True, "(= n$1 n$2)", "(= x$1 x$2)")
def test_eval_bounded_matches_reference(
    system_text, bound, step, domain, depth, deterministic, body, diff
):
    system = parse_system(system_text)
    params = {name: value for name, value in (("n", bound), ("k", step)) if name in system.params}
    inst = FiniteInstance(
        system, {"x": ScalarDomain(tuple(sorted(domain)))}, params,
        depth=depth, deterministic=deterministic,
    )
    try:
        traces = enumerate_traces(inst)
    except OracleError:
        return  # the deterministic claim fails during enumeration, before any verdict
    prop = parse_property(PROP, system)._replace(
        body=term_from_text(body, STEP_ENV),
        diff=term_from_text(diff, STEP_ENV),
    )
    for pred, eventually in itertools.product((prop.body, prop.diff), (False, True)):
        for a in traces:
            for b in traces:
                args = (pred, a, b, inst, eventually)
                expected = verdict_or_error(reference_eval, *args)
                assert verdict_or_error(eval_bounded, *args) == expected
    for pivot in traces:
        expected = verdict_or_error(reference_classes, inst, prop, pivot, traces)
        assert verdict_or_error(count_equivalence_classes, inst, prop, pivot, traces) == expected


def pairwise_classes(instance, prop, pivot, traces):
    """The class count from one ``eval_bounded`` call per pair, in the
    order ``count_equivalence_classes`` visits traces and pairs, as it
    counted before it read each predicate once per count."""
    candidates = []
    for t in traces:
        verdict = eval_bounded(prop.body, pivot, t, instance)
        if verdict is None:
            return "unknown"
        if verdict:
            candidates.append(t)
    label = list(range(len(candidates)))
    for i, a in enumerate(candidates):
        for j in range(i + 1, len(candidates)):
            delta = eval_bounded(prop.diff, a, candidates[j], instance, eventually=True)
            if delta is None:
                return "unknown"
            if not delta:
                label = [label[j] if l == label[i] else l for l in label]
    return len(set(label))


# k is no state variable, so a predicate that reads it raises when evaluated
READS_K = Cmp("=", Var("k", INT, 1), IntLit(0))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_class_count_matches_pairwise_verdicts(data):
    # a random tx over TX_VARS, some variables fixed at the start to keep
    # the traces few, random predicates over copies 1 and 2, and every
    # drawn trace as the pivot; most tails are open, so many counts end in
    # unknown
    system = TransitionSystem("tx", tuple(TX_VARS.items()), (), TRUE, And(tuple(tx_conjuncts(data))))
    fixed = data.draw(st.sets(st.sampled_from(sorted(TX_VARS)), min_size=3))
    init_fix = {name: data.draw(st.sampled_from(list(TX_DOMAINS[name]))) for name in sorted(fixed)}
    inst = FiniteInstance(system, TX_DOMAINS, {}, depth=data.draw(st.sampled_from((2, 3, 1))),
                          quant_lo=-1, quant_hi=1, cap=300, init_fix=init_fix)
    try:
        traces = enumerate_traces(inst)
    except CapExceeded:
        return
    terms = sorted_terms(BOOL, tags=((1, False), (2, False)), binders=SCALAR_BINDERS, apps=False)
    predicate = st.integers(0, 7).flatmap(lambda k: st.just(READS_K) if k == 0 else terms)
    prop = QhpProperty(data.draw(predicate), data.draw(predicate), "geq", TRUE)
    drawn = data.draw(st.lists(st.sampled_from(traces), max_size=6)) if traces else []
    for pivot in drawn:
        expected = verdict_or_error(pairwise_classes, inst, prop, pivot, drawn)
        assert verdict_or_error(count_equivalence_classes, inst, prop, pivot, drawn) == expected


def test_class_count_meets_a_trace_of_another_depth_in_turn(counter):
    # the body's G is left open by every pair of counter traces, so a pair
    # before the short trace ends the count in unknown; a pair decided false
    # by its prefix goes on to it
    prop = parse_property(PROP, counter)
    inst = counter_instance(counter, 3, depth=2)
    (trace,) = enumerate_traces(inst)
    short, empty = BoundedTrace(trace.states[:1]), BoundedTrace(())
    error = (OracleError, "traces must be non-empty and of equal depth")
    decided = prop._replace(body=term_from_text("(< x$1 x$2)", STEP_ENV))
    for prop, pivot, traces, expected in (
        (prop, trace, [trace, short], (str, "unknown")),
        (prop, trace, [short, trace], error),
        (decided, trace, [trace, short], error),
        (prop, empty, [], (int, 0)),
        (prop, empty, [empty], error),
    ):
        assert verdict_or_error(pairwise_classes, inst, prop, pivot, traces) == expected
        assert verdict_or_error(count_equivalence_classes, inst, prop, pivot, traces) == expected


# -- brute counting --------------------------------------------------------------


def test_brute_count_scalar():
    formula = term_from_text("(and (<= 0 v) (< v k))", {"v": INT, "k": INT})
    count = brute_count(formula, {"v": ScalarDomain(tuple(range(-3, 10)))}, {"k": 4})
    assert count == 4


def test_brute_count_array_permutations():
    from qhenum.terms import ArraySort

    env = {"a": ArraySort(INT, INT)}
    formula = term_from_text(
        "(and (forall ((i Int)) (=> (and (<= 1 i) (<= i 3))"
        "       (and (<= 1 (select a i)) (<= (select a i) 3))))"
        "     (forall ((i Int) (j Int))"
        "       (=> (and (<= 1 i) (<= i 3) (<= 1 j) (<= j 3) (not (= i j)))"
        "           (not (= (select a i) (select a j))))))",
        env,
    )
    count = brute_count(
        formula, {"a": ArrayDomain(1, 3, (1, 2, 3))}, quant_lo=0, quant_hi=4
    )
    assert count == 6


def test_brute_count_cap():
    formula = term_from_text("true", {})
    with pytest.raises(CapExceeded):
        brute_count(formula, {"v": ScalarDomain(tuple(range(100)))}, cap=10)


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
def test_brute_count_matches_interval_arithmetic(lo, width):
    formula = term_from_text("(and (<= lo v) (< v hi))", {"v": INT, "lo": INT, "hi": INT})
    count = brute_count(
        formula,
        {"v": ScalarDomain(tuple(range(-2, 20)))},
        {"lo": lo, "hi": lo + width},
    )
    assert count == width


def brute_outcome(count, formula, counted, params):
    """The model count, or the error type and message."""
    try:
        return count(formula, counted, params, -1, 3)
    except OracleError as exc:
        return type(exc), str(exc)


def filtered_count(formula, counted, params, quant_lo, quant_hi, compile=compile_term):
    """The candidates of the counted product, in order, that the whole
    formula accepts, as ``compile`` evaluates it."""
    holds = compile(formula, quant_lo, quant_hi)
    names = list(counted)
    return sum(
        1
        for combo in itertools.product(*(list(counted[n]) for n in names))
        if holds({**params, **dict(zip(names, combo))})
    )


def counted_formula(conjuncts):
    """The conjunction of ``conjuncts`` over a, x, y (Int), m (an Int array)
    and the parameter k; a bare Int variable is a conjunct, built in code."""
    env = {"a": INT, "x": INT, "y": INT, "k": INT, "m": ArraySort(INT, INT)}
    return And(tuple(Var(c, INT) if c in env else term_from_text(c, env) for c in conjuncts))


ARRAY_CONJUNCTS = ("(= (select m 0) a)", "(distinct (select m 1) x)", "(< (select m 0) k)")


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(CONJUNCTS + ARRAY_CONJUNCTS), min_size=1, max_size=4),
    st.fixed_dictionaries({"a": VALUES, "x": VALUES, "y": VALUES}),
)
@example(["(> (div 6 a) 0)", "(> x 100)"], {"a": [1, 0], "x": [0, 1], "y": [0]})
def test_brute_count_matches_plain_filtering(conjuncts, domains):
    formula = counted_formula(conjuncts)
    counted = {n: ScalarDomain(tuple(v)) for n, v in domains.items()}
    counted["m"] = ArrayDomain(0, 1, (0, 1))
    params = {"k": 1, "x": 5}  # a counted name is read from its domain, not from params
    expected = brute_outcome(filtered_count, formula, counted, params)
    assert brute_outcome(brute_count, formula, counted, params) == expected


@pytest.mark.parametrize("text", ["(< (+ a x) 3)", "(< (+ 2 a x) 3)", "(< (+ a) 3)", "(< (+ x a) 3)"])
def test_brute_count_adds_as_sum_does(text):
    # the search adds its bound values in place; with bools and an array
    # among them, the count and the first error must be those of sum, which
    # the reference compiler adds with (the generated code of compile_term
    # is the search's own)
    formula = term_from_text(text, {"a": INT, "x": INT})
    for a in ((0, True, 2), (True, FArray(0, (1,)), 1)):
        counted = {"a": ScalarDomain(a), "x": ScalarDomain((True, 1, 0))}
        expected = evaluation(
            lambda f: filtered_count(f, counted, {}, -2, 8, reference_compile), formula
        )
        assert evaluation(lambda f: brute_count(f, counted), formula) == expected


@pytest.mark.parametrize(
    "conjuncts",
    [
        # no value of x is above 100
        ("(forall ((u (Array Int Int))) (> (select u a) 0))", "(> x 100)"),
        # a + 5 is no value of x, and the parameter k is not given
        ("(> (div 6 (+ a k)) 0)", "(= x (+ a 5))"),
    ],
)
def test_brute_count_raises_before_what_empties_the_product(conjuncts):
    # brute_count refuses the formula before it searches; plain filtering
    # raises the same error at its first candidate
    formula = counted_formula(conjuncts)
    counted = {"a": ScalarDomain((1, 0)), "x": ScalarDomain(tuple(range(5))), "y": ScalarDomain((0, 1))}
    got = brute_outcome(brute_count, formula, counted, {})
    assert got == brute_outcome(filtered_count, formula, counted, {})
    assert got in ((OracleError, "cannot enumerate quantifier over (Array Int Int)"),
                   (OracleError, "unbound variable k in oracle evaluation"))


def test_second_call_writes_no_source_text(benchmarks):
    setup = load_instance(benchmarks / "zk-hats" / "instance.sexp")
    inst, prop = setup.instance, setup.project.prop
    valid = retag_free(setup.project.witness.valid, {indexed(1): PLAIN})
    counted = {n: setup.count_domains[n] for n, _ in setup.project.witness.enum_vars}

    def calls():
        traces = enumerate_traces(inst)
        return (traces, count_equivalence_classes(inst, prop, traces[0], traces),
                brute_count(valid, counted, inst.params, inst.quant_lo, inst.quant_hi))

    first = calls()
    assert first[1:] == (3, 3)
    with mock.patch.object(oracle, "_Source", wraps=oracle._Source) as source:
        assert calls() == first
    assert source.call_count == 0


def test_used_terms_are_freed_once_dropped():
    # the generated functions of a term are kept on the term, not in a table
    # that outlives it
    coin = parse_system(COIN)
    prop = parse_property(COIN_PROP, coin)
    inst = FiniteInstance(coin, {"done": ScalarDomain((False, True)), "b": ScalarDomain((0, 1))},
                          {}, depth=2)
    formula = term_from_text("(and (<= 0 v) (< v 2))", {"v": INT})
    traces = enumerate_traces(inst)
    assert count_equivalence_classes(inst, prop, traces[0], traces) == 2
    assert brute_count(formula, {"v": ScalarDomain((0, 1, 2))}) == 2
    used = (coin.init, coin.tx, prop.body, prop.diff, formula)
    refs = [weakref.ref(term) for term in used]
    del coin, prop, inst, formula, traces, used
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_compiled_predicates_are_freed_without_the_cycle_collector():
    # a predicate's function sits in its body's memo and must not refer back
    # to the body, or the body would wait for the cycle collector
    coin = parse_system(COIN)
    prop = parse_property(COIN_PROP, coin)
    inst = FiniteInstance(coin, {"done": ScalarDomain((False, True)), "b": ScalarDomain((0, 1))},
                          {}, depth=2)
    traces = enumerate_traces(inst)
    gc.collect()
    gc.disable()
    try:
        assert count_equivalence_classes(inst, prop, traces[0], traces) == 2
        bodies = (prop.body, prop.diff)
        assert all(body.memo for body in bodies)
        refs = [weakref.ref(body) for body in bodies]
        del coin, prop, inst, traces, bodies
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_compiled_predicate_names_an_unbound_variable():
    # the generated function names the variable itself: nothing is compiled again
    body = term_from_text("(= x$1 y$2)", {"x$1": INT, "y$2": INT})
    holds = oracle._predicate(body, -1, 1)
    assert holds({"x": 1}, {"y": 1}) is True
    with mock.patch.object(oracle, "_Source", wraps=oracle._Source) as source:
        with pytest.raises(OracleError, match=r"^unbound variable y\$2 in oracle evaluation$"):
            holds({"x": 1}, {"x": 1})
    assert source.call_count == 0


def test_class_count_computes_successors_once_per_last_state():
    # k = 0: every trace stays where it starts, so the body's G is left open
    # by each prefix and asks for the pivot's pin once per trace
    system = parse_system(STEP_COUNTER)
    prop = parse_property(PROP, system)
    inst = FiniteInstance(system, {"x": ScalarDomain((0, 1, 2, 3))}, {"n": 3, "k": 0},
                          depth=2, deterministic=True)
    traces = enumerate_traces(inst)
    with mock.patch.object(oracle, "successors", wraps=oracle.successors) as calls:
        assert count_equivalence_classes(inst, prop, traces[0], traces) == 3
    keys = [state_key(call.args[1]) for call in calls.call_args_list]
    assert sorted(keys) == sorted({state_key(t.states[-1]) for t in traces})


def test_searches_over_more_variables_than_python_nests():
    # Python allows 20 nested blocks; here 24 variables share one loop
    names = [f"v{i}" for i in range(24)]
    chain = And(tuple(Cmp("<=", Var(a, INT), Var(b, INT)) for a, b in zip(names, names[1:])))
    step = And(tuple(Cmp("<=", Var(n, INT), Var(n, INT, None, True)) for n in names))
    domains = {n: ScalarDomain((0, 1) if i % 3 == 2 else (0,)) for i, n in enumerate(names)}
    assert brute_count(chain, domains) == filtered_count(chain, domains, {}, -2, 8) == 2
    system = TransitionSystem("wide", tuple((n, INT) for n in names), (), chain, step)
    inst = FiniteInstance(system=system, domains=domains, params={}, depth=2)
    assert outcome(enumerate_traces, inst) == outcome(reference_traces, inst)


def test_expansion_over_more_variables_than_python_nests():
    # 32 variables: p0-p9 are defined from fixed names and one another, so
    # bound once per prefix; l0-l10 loop, each filtered by a test that reads
    # a p and, from l2 on, an earlier l; d0-d10 are defined from the l, and
    # with the l give 22 clauses of one comprehension
    ps, ls, ds = ([f"{c}{k}" for k in range(n)] for c, n in (("p", 10), ("l", 11), ("d", 11)))
    tx = ["(= p0! p0)", "(= p1! (- 1 p0!))", "(= p2! p1!)", "(<= p0! 1)"]
    tx += [f"(= p{k}! (ite (< p{k - 1}! 1) p{k} 1))" for k in range(3, 10)]
    tx += [f"(<= l{k}! p{k % 10}!)" for k in range(11)]
    tx += [f"(<= l{k}! l{k - 2}!)" for k in range(2, 11)]
    tx += [f"(= d{k}! (+ l{k}! p{k % 10}!))" for k in range(11)] + ["(<= d3! 2)"]
    names = ps + ls + ds
    variables = " ".join(f"({n} Int)" for n in names)
    system = parse_system(f"(system wide (vars {variables}) (init true) (tx (and {' '.join(tx)})))")
    domains = {n: ScalarDomain((0, 1, 2) if n in ds else (0, 1)) for n in names}
    inst = FiniteInstance(system=system, domains=domains, params={}, depth=2,
                          init_fix=dict.fromkeys(names, 0))
    got = outcome(enumerate_traces, inst)
    # p0! = 0 holds l0! and so every even l at 0; the odd l fall from l1
    assert got == outcome(reference_traces, inst) and len(got) == 6
