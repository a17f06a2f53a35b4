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
