import pytest
from conftest import reference_children, reference_free_vars
from hypothesis import given, settings, strategies as st

from qhenum.backend import (
    KILL_GRACE_MS,
    MBQI_OPTIONS,
    OBLIGATION_LOGIC,
    STDERR_LIMIT,
    VALIDITY_OPTIONS,
    EmitError,
    Obligation,
    ProtocolError,
    Session,
    SolverSpawnError,
    Verdict,
    build_query,
    emit,
    resolve_solver,
    solve,
)
from qhenum import backend, terms
from qhenum.counting import ENTAILMENT
from qhenum.terms import (
    Add,
    And,
    App,
    ArraySort,
    BOOL,
    BoolLit,
    BoolSort,
    Cmp,
    ConstArray,
    Distinct,
    Div,
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
    Select,
    Signature,
    Store,
    Sub,
    UnknownSymbol,
    Var,
    term_from_text,
    term_to_text,
)

ARR = ArraySort(INT, INT)


def test_emit_golden():
    x = Var("x", INT)
    a = Var("a", ARR)
    formula = Cmp("=", Select(Store(a, x, IntLit(1)), x), IntLit(1))
    query = build_query(
        [Not(formula)], logic="AUFLIA", options=(("smt.mbqi", "false"),), timeout_ms=5000
    )
    assert emit(query) == (
        "(set-logic AUFLIA)\n"
        "(set-option :smt.mbqi false)\n"
        "(set-option :timeout 5000)\n"
        "(declare-const a (Array Int Int))\n"
        "(declare-const x Int)\n"
        "(assert (not (= (select (store a x 1) x) 1)))\n"
        "(check-sat)\n"
    )


def test_emit_const_array():
    formula = Cmp("=", Select(ConstArray(IntLit(0)), IntLit(3)), IntLit(0))
    text = emit(build_query([formula]))
    assert "((as const (Array Int Int)) 0)" in text


def test_emit_function_declarations():
    sig = Signature().extend("cnt.V", (INT,), INT)
    formula = term_from_text("(= (cnt.V n) 1)", {"n": INT}, sig)
    text = emit(build_query([formula], signature=sig))
    assert "(declare-fun cnt.V (Int) Int)" in text


def test_conflicting_sorts_rejected():
    with pytest.raises(EmitError):
        build_query([Cmp("=", Var("x", INT), IntLit(0)), Var("x", BOOL)])


def test_emit_is_deterministic():
    vs = [Var(n, INT) for n in ("m", "z", "a", "k")]
    asserts = [Cmp("<", v, IntLit(9)) for v in vs]
    assert emit(build_query(asserts)) == emit(build_query(list(asserts)))


def test_resolve_solver_explicit_wins(monkeypatch):
    monkeypatch.setenv("QHENUM_SOLVER", "ignored")
    assert resolve_solver(["mysolver", "-x"]) == ["mysolver", "-x"]


def test_resolve_solver_env(monkeypatch):
    monkeypatch.setenv("QHENUM_SOLVER", "my-z3 -smt2 -in")
    assert resolve_solver() == ["my-z3", "-smt2", "-in"]


def test_wrapper_without_its_package_is_refused(bare_node):
    _, _, log = bare_node
    with pytest.raises(SolverSpawnError, match="^no SMT solver found: .*z3-solver"):
        resolve_solver()
    assert not log.exists()


def test_wrapper_with_its_package_is_picked(bare_node):
    node, wrapper, log = bare_node
    (wrapper.parent.parent / "node_modules" / "z3-solver").mkdir(parents=True)
    assert resolve_solver() == [str(node), str(wrapper)]
    assert not log.exists()


def test_solve_trivial_unsat(solver):
    query = build_query([Cmp("<", IntLit(1), IntLit(0))], timeout_ms=10_000)
    assert solve(query, solver).status == "unsat"


def test_solve_sat_with_model(solver):
    x = Var("x", INT)
    query = build_query(
        [Cmp("=", x, IntLit(7))], timeout_ms=10_000, get_model=True
    )
    verdict = solve(query, solver)
    assert verdict.status == "sat"
    assert dict(verdict.model)["x"] == "7"


def test_solve_garbage_reply_raises():
    query = build_query([Cmp("=", IntLit(0), IntLit(0))], timeout_ms=10_000)
    with pytest.raises(ProtocolError):
        solve(query, solver=["cat"])


def test_solve_missing_binary_raises():
    query = build_query([Cmp("=", IntLit(0), IntLit(0))], timeout_ms=10_000)
    with pytest.raises(SolverSpawnError):
        solve(query, solver=["/nonexistent/solver-binary"])


def test_timeout_yields_unknown(stub_solver):
    # killed 1 ms plus the grace after the start, long before the stub replies
    query = build_query([Cmp("=", IntLit(0), IntLit(0))], timeout_ms=0)
    verdict = solve(query, stub_solver("sat", sleep=KILL_GRACE_MS / 1000 + 2))
    assert verdict.status == "unknown"
    assert verdict.transcript == "timeout"


@pytest.mark.parametrize("timeout_ms, option", [(0, 1), (1, 1), (5000, 5000)])
def test_query_asks_the_solver_to_stop_in_time(case_solver, timeout_ms, option):
    # the option follows the query's own options; a solver that honours it
    # answers unknown itself, and that answer is read, not a kill
    query = build_query([Cmp("=", IntLit(0), IntLit(0))], timeout_ms=timeout_ms)
    lines = emit(query).splitlines()
    assert lines[1:3] == ["(set-option :smt.mbqi false)", f"(set-option :timeout {option})"]
    verdict = solve(query, case_solver(f"(set-option :timeout {option})", "unknown", "sat"))
    assert (verdict.status, verdict.transcript) == ("unknown", "unknown\n")


def test_solver_answer_within_the_grace_is_read(stub_solver):
    # past the query's timeout but within the grace: the reply counts
    query = build_query([Cmp("=", IntLit(0), IntLit(0))], timeout_ms=0)
    verdict = solve(query, stub_solver("unknown", sleep=KILL_GRACE_MS / 4000))
    assert (verdict.status, verdict.transcript) == ("unknown", "unknown\n")


def test_no_verdict_error_carries_stderr(stub_solver):
    cause = "Error [ERR_MODULE_NOT_FOUND]: Cannot find package 'z3-solver'"
    cmd = stub_solver("", stderr=cause + "\n" + "    at frame\n" * 200, code=1)
    query = build_query([Cmp("=", IntLit(0), IntLit(0))], timeout_ms=10_000)
    with pytest.raises(ProtocolError) as info:
        solve(query, cmd)
    message = str(info.value)
    assert message.startswith("no verdict in solver reply (exit 1): ")
    assert cause in message
    assert len(message) <= len("no verdict in solver reply (exit 1): ") + STDERR_LIMIT


def test_no_verdict_error_without_stderr(stub_solver):
    query = build_query([Cmp("=", IntLit(0), IntLit(0))], timeout_ms=10_000)
    with pytest.raises(ProtocolError, match=r"^no verdict in solver reply \(exit 1\)$"):
        solve(query, stub_solver("", code=1))


def test_session_resolves_solver_once(monkeypatch):
    monkeypatch.setenv("QHENUM_SOLVER", "my-z3 -smt2 -in")
    session = Session()
    monkeypatch.setenv("QHENUM_SOLVER", "other")
    assert session.cmd == ["my-z3", "-smt2", "-in"]
    assert Session(["mysolver", "-x"]).cmd == ["mysolver", "-x"]


def test_session_sends_with_model_and_numbers_debug_files(stub_solver, tmp_path):
    debug = tmp_path / "debug"
    session = Session(stub_solver("unsat"), timeout_ms=7000, debug_dir=debug)
    x = Var("x", INT)
    first = (Cmp("=", x, IntLit(1)),)
    second = (Cmp("<", x, IntLit(0)),)
    assert session.ask(Obligation("base/init", first)).status == "proved"
    answer = session.ask(Obligation("link", second, attempts=(MBQI_OPTIONS,)))
    assert (answer.label, answer.status) == ("link", "proved")
    assert sorted(p.name for p in debug.iterdir()) == [
        "001-base_init.smt2",
        "001-base_init.smt2.out",
        "002-link.smt2",
        "002-link.smt2.out",
    ]
    for name, assertions, options, timeout_ms in (
        ("001-base_init.smt2", first, VALIDITY_OPTIONS, 7000),
        ("002-link.smt2", second, MBQI_OPTIONS, 7000),
    ):
        query = build_query(
            assertions,
            logic=OBLIGATION_LOGIC,
            options=options,
            timeout_ms=timeout_ms,
            get_model=True,
        )
        assert (debug / name).read_text() == emit(query)


@pytest.mark.parametrize(
    "reply, status, model",
    [
        ("unsat", "proved", None),
        ("sat\n(model (define-fun x () Int 3))", "failed", (("x", "3"),)),
        ("unknown", "unknown", None),
    ],
)
def test_ask_reads_the_verdict_once(stub_solver, reply, status, model):
    session = Session(stub_solver(reply))
    obligation = Obligation("q", (Cmp("=", Var("x", INT), IntLit(3)),))
    answer = session.ask(obligation)
    assert (answer.label, answer.status, answer.model) == ("q", status, model)


@pytest.mark.parametrize(
    "attempts, timeout, walls, sent",
    [
        # a retry gets what the first attempt left of the session timeout
        (ENTAILMENT, 20_000, [300, 0], [20_000, 19_700]),
        # a first attempt that used the whole budget is not retried
        (ENTAILMENT, 20_000, [20_000], [20_000]),
        # nor is one that ran past it
        (ENTAILMENT, 20_000, [20_400], [20_000]),
    ],
    ids=["retry", "spent", "overrun"],
)
def test_premise_attempts_share_one_time_budget(monkeypatch, attempts, timeout, walls, sent):
    # every attempt answers unknown after the given wall time
    timeouts, wall = [], iter(walls)

    def solve(query, solver=None, debug_path=None):
        timeouts.append(query.timeout_ms)
        return Verdict("unknown", None, next(wall))

    monkeypatch.setattr(backend, "solve", solve)
    premise = Obligation("p", (), attempts=attempts, failure="p: not valid")
    answer = Session(["unused-solver"], timeout).ask(premise)
    assert (answer.label, answer.status) == ("p", "unknown")
    assert timeouts == sent


def test_syntactic_obligation_is_proved_without_a_query(tmp_path):
    debug = tmp_path / "debug"
    session = Session(["/nonexistent/solver-binary"], debug_dir=debug)
    answer = session.ask(Obligation("totality", (), syntactic=True))
    assert (answer.status, answer.wall_ms) == ("proved", 0)
    assert not debug.exists()


# How build_query collected declarations before it rendered each assertion in
# one walk: a free-variable walk (conftest's ``reference_free_vars``) and a
# subterm walk per assertion. Kept as the reference for the declarations and
# for the order of their errors.


def reference_subterms(term):
    yield term
    for child in reference_children(term):
        yield from reference_subterms(child)


def reference_sort_text(sort):
    if isinstance(sort, BoolSort):
        return "Bool"
    if isinstance(sort, IntSort):
        return "Int"
    if isinstance(sort, ArraySort):
        return f"(Array {reference_sort_text(sort.index)} {reference_sort_text(sort.element)})"
    raise TypeError(f"unknown sort {sort!r}")


def reference_declarations(assertions, signature):
    """(functions, consts) of a query over ``assertions``."""
    consts = {}
    funcs = {}
    for formula in assertions:
        for v in reference_free_vars(formula):
            prev = consts.get(v.mangled)
            if prev is not None and prev != v.sort:
                raise EmitError(f"constant {v.mangled} used at two sorts")
            consts[v.mangled] = v.sort
        for sub in reference_subterms(formula):
            if isinstance(sub, App):
                funcs[sub.func] = signature.rank(sub.func)
    return (
        tuple((n, *funcs[n]) for n in sorted(funcs)),
        tuple(sorted(consts.items())),
    )


def reference_emit(assertions, signature):
    functions, consts = reference_declarations(assertions, signature)
    lines = ["(set-logic ALL)", "(set-option :smt.mbqi false)", "(set-option :timeout 120000)"]
    for name, args, res in functions:
        args_text = " ".join(map(reference_sort_text, args))
        lines.append(f"(declare-fun {name} ({args_text}) {reference_sort_text(res)})")
    lines += [f"(declare-const {name} {reference_sort_text(sort)})" for name, sort in consts]
    lines += [f"(assert {term_to_text(formula)})" for formula in assertions]
    return "\n".join([*lines, "(check-sat)", "(get-model)"]) + "\n"


def outcome(make):
    """The result of ``make()``, or the type of its error; the message too
    where it is deterministic (a clash reports any one of its names)."""
    try:
        return make()
    except EmitError:
        return EmitError
    except (TypeError, UnknownSymbol) as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@given(data=st.data())
def test_query_matches_reference_collection(any_term, term_signature, data):
    assertions = data.draw(st.lists(any_term, min_size=1, max_size=3))

    def build():
        query = build_query(assertions, term_signature, logic=OBLIGATION_LOGIC, get_model=True)
        return (query.functions, query.consts), emit(query)

    def reference():
        return reference_declarations(assertions, term_signature), reference_emit(
            assertions, term_signature
        )

    assert outcome(build) == outcome(reference)


class Opaque:
    """Not a term: no renderer knows it."""


X_INT, X_BOOL = Var("x", INT), Var("x", BOOL)


@pytest.mark.parametrize(
    "assertions, error",
    [
        # within one assertion: an unknown node, then a clash, then a symbol
        ([And((App("u", (X_INT,)), X_BOOL, Opaque()))], TypeError),
        ([And((App("u", (X_INT,)), X_BOOL))], EmitError),
        ([App("u", (X_INT,))], UnknownSymbol),
        # the first unknown symbol in pre-order is named
        ([Cmp("=", App("u", (App("v", ()),)), App("w", ()))], UnknownSymbol),
        # across assertions: the first faulty assertion decides
        ([Cmp("=", X_INT, IntLit(0)), And((X_BOOL, Opaque()))], TypeError),
        ([Cmp("=", X_INT, IntLit(0)), And((App("u", ()), X_BOOL))], EmitError),
        ([App("u", ()), And((X_INT, X_BOOL, Opaque()))], UnknownSymbol),
        # a bound name is no constant, whatever its sort
        ([And((X_BOOL, Forall((("x", INT),), Cmp("=", X_INT, IntLit(0))), App("u", ())))],
         UnknownSymbol),
    ],
)
def test_errors_keep_their_order(assertions, error):
    with pytest.raises(error) as info:
        build_query(assertions)
    expected = outcome(lambda: reference_declarations(assertions, Signature()))
    assert expected in (error, (error, str(info.value)))


# -- each assertion term is rendered once ---------------------------------------


@settings(max_examples=200)
@given(data=st.data())
def test_query_built_again_is_equal(any_term, term_signature, data):
    assertions = data.draw(st.lists(any_term, min_size=1, max_size=3))

    def build():
        return build_query(assertions, term_signature, logic=OBLIGATION_LOGIC, get_model=True)

    assert outcome(build) == outcome(build)


def test_term_object_is_rendered_once(monkeypatch):
    walks = []
    render = terms.render
    monkeypatch.setattr(terms, "render", lambda term: walks.append(term) or render(term))
    shared = Cmp("=", X_INT, IntLit(0))
    first = build_query([shared, Not(shared)])
    second = build_query([Not(shared), shared])
    assert walks == [shared, Not(shared), Not(shared)]
    assert first.assertions == second.assertions[::-1]


def test_rendered_term_still_clashes_with_a_neighbour():
    clean = Cmp("=", X_INT, IntLit(0))
    query = build_query([clean])
    for assertions in ([X_BOOL, clean], [clean, X_BOOL]):
        with pytest.raises(EmitError, match="constant x used at two sorts"):
            build_query(assertions)
    assert build_query([clean]) == query


@pytest.mark.parametrize("assertions", [[And((X_BOOL, Opaque()))], [Opaque()]])
def test_unknown_node_raises_on_every_call(assertions):
    for _ in range(3):
        with pytest.raises(TypeError, match="unknown term"):
            build_query(assertions)
