import pytest

from qhenum.backend import (
    MODEL_OPTIONS,
    OBLIGATION_LOGIC,
    STDERR_LIMIT,
    VALIDITY_OPTIONS,
    EmitError,
    ProtocolError,
    Query,
    Session,
    SolverSpawnError,
    build_query,
    emit,
    resolve_solver,
    solve,
)
from qhenum.terms import (
    ArraySort,
    BOOL,
    Cmp,
    ConstArray,
    INT,
    IntLit,
    Not,
    Select,
    Signature,
    Store,
    UninterpSort,
    Var,
    term_from_text,
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
        "(declare-const a (Array Int Int))\n"
        "(declare-const x Int)\n"
        "(assert (not (= (select (store a x 1) x) 1)))\n"
        "(check-sat)\n"
    )


def test_emit_const_array_and_uninterp_sort():
    tr = UninterpSort("Tr")
    t = Var("t", tr)
    formula = Cmp("=", Select(ConstArray(IntLit(0)), IntLit(3)), IntLit(0))
    query = build_query([formula, Cmp("=", t, t)])
    text = emit(query)
    assert "(declare-sort Tr 0)" in text
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


def test_timeout_yields_unknown(solver):
    query = Query(
        assertions=(Cmp("=", IntLit(0), IntLit(0)),), timeout_ms=0, get_model=False
    )
    verdict = solve(query, solver)
    assert verdict.status == "unknown"
    assert verdict.transcript == "timeout"


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
    first = [Cmp("=", x, IntLit(1))]
    second = [Cmp("<", x, IntLit(0))]
    assert session.check(first, "base/init").status == "unsat"
    verdict = session.check(second, "link", options=MODEL_OPTIONS, timeout_ms=900)
    assert verdict.status == "unsat"
    assert sorted(p.name for p in debug.iterdir()) == [
        "001-base_init.smt2",
        "001-base_init.smt2.out",
        "002-link.smt2",
        "002-link.smt2.out",
    ]
    for name, assertions, options, timeout_ms in (
        ("001-base_init.smt2", first, VALIDITY_OPTIONS, 7000),
        ("002-link.smt2", second, MODEL_OPTIONS, 900),
    ):
        query = build_query(
            assertions,
            logic=OBLIGATION_LOGIC,
            options=options,
            timeout_ms=timeout_ms,
            get_model=True,
        )
        assert (debug / name).read_text() == emit(query)
