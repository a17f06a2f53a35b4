import itertools

import pytest
from hypothesis import strategies as st
from pathlib import Path

from qhenum.backend import resolve_solver
from qhenum.terms import (
    BOOL,
    INT,
    Add,
    And,
    App,
    ArraySort,
    BoolLit,
    Cmp,
    ConstArray,
    Distinct,
    Div,
    Exists,
    Forall,
    Implies,
    IntLit,
    Ite,
    Mod,
    Mul,
    Neg,
    Not,
    Or,
    PLAIN,
    Quant,
    Select,
    Signature,
    Store,
    Sub,
    Var,
)

REPO = Path(__file__).resolve().parents[1]
BENCHMARKS = REPO / "benchmarks"


@pytest.fixture(scope="session")
def solver():
    return resolve_solver()


@pytest.fixture(scope="session")
def benchmarks():
    return BENCHMARKS


@pytest.fixture
def stub_solver(tmp_path):
    """Make a solver command that reads its query and gives a fixed reply.

    Stubs test how queries travel, never what a real solver would answer.
    """
    numbers = itertools.count(1)

    def make(stdout: str, stderr: str = "", code: int = 0) -> list[str]:
        script = tmp_path / f"stub-solver-{next(numbers)}.sh"
        script.write_text(
            "#!/bin/sh\n"
            "cat > /dev/null\n"
            f"cat <<'REPLY'\n{stdout}\nREPLY\n"
            + (f"cat >&2 <<'ERR'\n{stderr}\nERR\n" if stderr else "")
            + f"exit {code}\n"
        )
        script.chmod(0o755)
        return [str(script)]

    return make


@pytest.fixture
def case_solver(tmp_path):
    """Make a solver command whose reply depends on the query text: ``hit``
    when the query contains ``pattern``, ``miss`` otherwise. Each
    ``(pattern, reply)`` of ``before`` is tried first, in order."""
    numbers = itertools.count(1)

    def make(pattern: str, hit: str, miss: str, before=()) -> list[str]:
        script = tmp_path / f"case-solver-{next(numbers)}.sh"
        arms = "".join(
            f"  *'{text}'*) cat <<'REPLY'\n{reply}\nREPLY\n  ;;\n"
            for text, reply in (*before, (pattern, hit))
        )
        script.write_text(
            "#!/bin/sh\n"
            "query=$(cat)\n"
            f'case "$query" in\n{arms}'
            f"  *) cat <<'REPLY'\n{miss}\nREPLY\n  ;;\nesac\n"
        )
        script.chmod(0o755)
        return [str(script)]

    return make


# every free variable name has one sort, except z, which may clash
VAR_SORTS = {"x": INT, "y": INT, "b": BOOL, "a": ArraySort(INT, INT), "m": ArraySort(INT, BOOL)}
TERM_SIGNATURE = (
    Signature()
    .extend("c", (), INT)
    .extend("f", (INT,), INT)
    .extend("g", (INT, BOOL), BOOL)
    .extend("h", (ArraySort(INT, BOOL),), BOOL)
)


SORTS = (INT, BOOL, ArraySort(INT, INT), ArraySort(INT, BOOL))
BINDERS = (("j", INT), ("k", ArraySort(INT, BOOL)))
KINDS = {
    INT: (Ite, Add, Neg, Sub, Mul, Div, Mod, Select, App),
    BOOL: (Ite, Cmp, Distinct, Not, And, Or, Implies, Select, App, Forall, Exists),
}


@st.composite
def sorted_terms(draw, sort, bound=(), depth=0, tags=(PLAIN,), binders=BINDERS, apps=True):
    """A well-sorted term of ``sort`` over ``VAR_SORTS``, each free name
    with one of ``tags``, the symbols of ``TERM_SIGNATURE`` (unless not
    ``apps``) and the ``binders`` in ``bound``."""

    def sub(s, scope=bound):
        return draw(sorted_terms(s, scope, depth + 1, tags, binders, apps))

    def some(s, least=0):
        return tuple(sub(s) for _ in range(draw(st.integers(least, 3))))

    if depth >= 3 or draw(st.booleans()):
        names = [n for n, s in {**VAR_SORTS, **dict(bound)}.items() if s == sort]
        if names and draw(st.booleans()):
            name = draw(st.sampled_from(names))
            return Var(name, sort, *(PLAIN if name in dict(bound) else draw(st.sampled_from(tags))))
        if sort == INT:
            return App("c", ()) if apps and draw(st.booleans()) else IntLit(draw(st.integers(-9, 9)))
        if sort == BOOL:
            return BoolLit(draw(st.booleans()))
        return ConstArray(sub(sort.element), sort)
    kind = draw(st.sampled_from([k for k in KINDS.get(sort, (Ite, Store)) if apps or k is not App]))
    if kind is Ite:
        return Ite(sub(BOOL), sub(sort), sub(sort))
    if kind in (Add, And, Or):
        return kind(some(sort))
    if kind in (Neg, Not):
        return kind(sub(sort))
    if kind in (Sub, Mul, Div, Mod, Implies):
        return kind(sub(sort), sub(sort))
    if kind is Select:
        return Select(sub(ArraySort(INT, sort)), sub(INT))
    if kind is Store:
        return Store(sub(sort), sub(INT), sub(sort.element))
    if kind is Cmp:
        op = draw(st.sampled_from(["=", "<", "<=", ">", ">="]))
        s = draw(st.sampled_from(SORTS)) if op == "=" else INT
        return Cmp(op, sub(s), sub(s))
    if kind is Distinct:
        return Distinct(some(draw(st.sampled_from(SORTS)), least=1))
    if kind is App:
        if sort == INT:
            return App("f", (sub(INT),))
        if draw(st.booleans()):
            return App("g", (sub(INT), sub(BOOL)))
        return App("h", (sub(ArraySort(INT, BOOL)),))
    binder = draw(st.sampled_from([binders[:1], binders[1:], binders]))
    return kind(binder, sub(BOOL, tuple({**dict(bound), **dict(binder)}.items())))


@pytest.fixture(scope="session")
def any_term():
    """Strategy of terms over every node kind, not necessarily well sorted.

    Free names are tagged with copies and primes; binders (also empty and
    nested) rebind the same names at any sort; ``u`` and ``v`` are applied
    but not in ``TERM_SIGNATURE``.
    """
    names = st.sampled_from(sorted(VAR_SORTS))
    sorts = st.sampled_from([INT, BOOL, ArraySort(INT, INT), ArraySort(INT, BOOL),
                             ArraySort(BOOL, INT), ArraySort(INT, ArraySort(INT, INT))])
    array_sorts = sorts.filter(lambda s: isinstance(s, ArraySort))
    tags = st.tuples(st.sampled_from([None, 1, 2]), st.booleans())
    leaves = st.one_of(
        st.builds(lambda name, tag: Var(name, VAR_SORTS[name], *tag), names, tags),
        st.builds(Var, st.just("z"), st.sampled_from([INT, BOOL])),
        st.builds(IntLit, st.integers(min_value=-20, max_value=20)),
        st.builds(BoolLit, st.booleans()),
        st.just(App("c", ())),
    )

    def nodes(kids):
        many = st.lists(kids, max_size=3).map(tuple)
        binder = st.lists(st.tuples(st.sampled_from([*VAR_SORTS, "z", "j"]), sorts),
                          max_size=2).map(tuple)
        return st.one_of(
            st.builds(App, st.sampled_from(["f", "f", "g", "g", "h", "h", "u", "v"]),
                      st.lists(kids, min_size=1, max_size=3).map(tuple)),
            st.builds(Add, many), st.builds(Sub, kids, kids), st.builds(Neg, kids),
            st.builds(Mul, kids, kids), st.builds(Div, kids, kids), st.builds(Mod, kids, kids),
            st.builds(Cmp, st.sampled_from(["=", "<", "<=", ">", ">="]), kids, kids),
            st.builds(Distinct, many), st.builds(Not, kids), st.builds(And, many),
            st.builds(Or, many), st.builds(Implies, kids, kids), st.builds(Ite, kids, kids, kids),
            st.builds(Select, kids, kids), st.builds(Store, kids, kids, kids),
            st.builds(ConstArray, kids, array_sorts),
            st.builds(Forall, binder, kids), st.builds(Exists, binder, kids),
        )

    return st.recursive(leaves, nodes, max_leaves=24)


@pytest.fixture(scope="session")
def term_signature():
    """The ranks of every symbol ``any_term`` applies, except ``u`` and ``v``."""
    return TERM_SIGNATURE


# The term walks as they were before ``terms`` rebuilt only what changes:
# the references for ``free_vars`` and for the walks built on it.


def reference_children(term):
    if isinstance(term, (Var, IntLit, BoolLit)):
        return ()
    if isinstance(term, (App, Add, Distinct, And, Or)):
        return term.args
    if isinstance(term, (Sub, Mul, Div, Mod, Cmp, Implies)):
        return (term.left, term.right)
    if isinstance(term, (Neg, Not)):
        return (term.operand,)
    if isinstance(term, Ite):
        return (term.cond, term.then, term.other)
    if isinstance(term, Select):
        return (term.array, term.index)
    if isinstance(term, Store):
        return (term.array, term.index, term.value)
    if isinstance(term, ConstArray):
        return (term.value,)
    if isinstance(term, Quant):
        return (term.body,)
    raise TypeError(f"unknown term {term!r}")


def reference_free_vars(term, bound=frozenset()):
    if isinstance(term, Var):
        if term.tag == PLAIN and term.name in bound:
            return frozenset()
        return frozenset({term})
    if isinstance(term, Quant):
        return reference_free_vars(term.body, bound | {name for name, _ in term.bound})
    out = frozenset()
    for child in reference_children(term):
        out |= reference_free_vars(child, bound)
    return out
