import pytest

from qhenum import backend
from qhenum.backend import Session, Verdict
from qhenum.counting import (
    ENTAILMENT,
    MODEL_SEARCH,
    RULES,
    DeclaredPred,
    Kernel,
    KernelError,
    NotValid,
    Premise,
    QueryUnknown,
    RuleApp,
    VarsOverlap,
    apply_rule,
    check_script,
    parse_proof,
)
from qhenum.sexpr import SexprError
from qhenum.terms import INT, IntLit, Var, term_from_text

TIMEOUT = 20_000


def pred(name, variables, counted, body_text):
    env = {n: s for n, s in variables}
    return DeclaredPred(name, tuple(variables), tuple(counted), term_from_text(body_text, env))


def apply(kernel, rule, *fields):
    return apply_rule(kernel, RuleApp(rule, RULES[rule].payload(*fields)))


def make_kernel(solver, *preds):
    kernel = Kernel(Session(solver, TIMEOUT))
    for p in preds:
        kernel.declare_pred(p)
    return kernel


V, W, B, K, N = [("v", INT)], [("w", INT)], [("b", INT)], ("k", INT), ("n", INT)


# -- declarations -------------------------------------------------------------


def test_declare_pred_validation():
    with pytest.raises(KernelError):
        pred("P", V, [], "(= v 0)")  # no counted variables
    with pytest.raises(KernelError):
        pred("P", V, ["q"], "(= v 0)")  # counted var undeclared
    with pytest.raises(KernelError):
        pred("P", V + V, ["v"], "(= v 0)")  # duplicate variables


def test_unknown_predicate_rejected(solver):
    kernel = make_kernel(solver)
    with pytest.raises(KernelError):
        apply(kernel, "positive", "nope")


# -- range ---------------------------------------------------------------------


def test_range_accepts_interval(solver):
    kernel = make_kernel(solver, pred("R", V + [K], ["v"], "(and (<= 0 v) (< v k))"))
    fact = apply(kernel, "range", "R")
    assert fact.rule == "range"
    assert kernel.entails(
        term_from_text("(= (cnt.R 5) 5)", {}, kernel.signature), "t"
    )
    assert kernel.entails(
        term_from_text("(= (cnt.R (- 2)) 0)", {}, kernel.signature), "t"
    )


def test_range_rejects_wrong_shape(solver):
    kernel = make_kernel(
        solver,
        pred("R1", V + [K], ["v"], "(and (< 0 v) (< v k))"),
        pred("R2", V + [K], ["v"], "(and (<= 0 v) (< v v))"),
        pred("R3", V + [W[0], K], ["v", "w"], "(and (<= 0 v) (< v k))"),
    )
    with pytest.raises(KernelError):
        apply(kernel, "range", "R1")  # strict lower bound
    with pytest.raises(KernelError):
        apply(kernel, "range", "R2")  # bound mentions the counted variable
    with pytest.raises(KernelError):
        apply(kernel, "range", "R3")  # two counted variables


# -- positive --------------------------------------------------------------------


def test_positive(solver):
    kernel = make_kernel(solver, pred("P", V + [K], ["v"], "(= v k)"))
    apply(kernel, "positive", "P")
    assert kernel.entails(
        term_from_text("(forall ((k Int)) (>= (cnt.P k) 0))", {}, kernel.signature),
        "t",
    )


# -- const bounds -----------------------------------------------------------------


def test_const_lb_model_search(solver):
    kernel = make_kernel(solver, pred("P", V, ["v"], "(and (<= 0 v) (< v 3))"))
    apply(kernel, "const-lb", "P", 3)
    assert kernel.entails(term_from_text("(>= cnt.P 3)", {}, kernel.signature), "t")
    with pytest.raises(NotValid):
        apply(kernel, "const-lb", "P", 4)


def test_const_lb_explicit_witnesses(solver):
    kernel = make_kernel(solver, pred("P", V, ["v"], "(and (<= 0 v) (< v 3))"))
    models = [{"v": IntLit(0)}, {"v": IntLit(2)}]
    apply(kernel, "const-lb", "P", 2, models)
    assert kernel.entails(term_from_text("(>= cnt.P 2)", {}, kernel.signature), "t")


def test_const_lb_bad_witnesses_rejected(solver):
    kernel = make_kernel(solver, pred("P", V, ["v"], "(and (<= 0 v) (< v 3))"))
    with pytest.raises(NotValid):
        # 5 violates the body
        apply(kernel, "const-lb", "P", 2, [{"v": IntLit(0)}, {"v": IntLit(5)}])
    with pytest.raises(NotValid):
        # witnesses are not pairwise distinct
        apply(kernel, "const-lb", "P", 2, [{"v": IntLit(1)}, {"v": IntLit(1)}])
    with pytest.raises(KernelError):
        apply(kernel, "const-lb", "P", 2, [{"v": IntLit(0)}])


def test_const_lb_parameterized(solver):
    kernel = make_kernel(
        solver,
        pred("P", V + [K], ["v"], "(or (= v 0) (= v k))"),
        pred("Q", V + [K], ["v"], "(and (= v 0) (= v k))"),
    )
    apply(kernel, "const-lb", "P", 1)
    assert kernel.entails(
        term_from_text("(forall ((k Int)) (>= (cnt.P k) 1))", {}, kernel.signature),
        "t",
    )
    with pytest.raises(NotValid):
        apply(kernel, "const-lb", "P", 2)  # fails when k = 0
    with pytest.raises(NotValid):
        apply(kernel, "const-lb", "Q", 1)  # fails when k != 0


def test_const_ub(solver):
    kernel = make_kernel(solver, pred("P", V, ["v"], "(= v 7)"))
    apply(kernel, "const-ub", "P", 2)
    assert kernel.entails(term_from_text("(<= cnt.P 1)", {}, kernel.signature), "t")
    with pytest.raises(NotValid):
        apply(kernel, "const-ub", "P", 1)  # one model does exist


def test_const_bound_rejects_degenerate_count(solver):
    kernel = make_kernel(solver, pred("P", V, ["v"], "(= v 7)"))
    with pytest.raises(KernelError):
        apply(kernel, "const-lb", "P", 0)


# -- ub (subset) --------------------------------------------------------------------


def test_ub(solver):
    kernel = make_kernel(
        solver,
        pred("F", V, ["v"], "(and (<= 0 v) (< v 2))"),
        pred("G", V, ["v"], "(and (<= 0 v) (< v 5))"),
    )
    apply(kernel, "ub", "F", "G")
    assert kernel.entails(
        term_from_text("(<= cnt.F cnt.G)", {}, kernel.signature), "t"
    )
    with pytest.raises(NotValid):
        apply(kernel, "ub", "G", "F")  # G is not a subset of F


def test_ub_countermodel_reaches_not_valid(stub_solver):
    # the stub answers every query with a model: the kernel must keep it
    cmd = stub_solver("sat\n(model (define-fun v () Int 5))")
    kernel = Kernel(Session(cmd, TIMEOUT))
    kernel.declare_pred(pred("F", V, ["v"], "(and (<= 0 v) (< v 5))"))
    kernel.declare_pred(pred("G", V, ["v"], "(and (<= 0 v) (< v 2))"))
    with pytest.raises(NotValid) as info:
        apply(kernel, "ub", "F", "G")
    assert info.value.model == (("v", "5"),)


def test_ub_unsat_with_model_error_is_valid(stub_solver):
    # asking for a model after unsat makes the solver print an error line
    cmd = stub_solver('unsat\n(error "line 9 column 10: model is not available")')
    kernel = Kernel(Session(cmd, TIMEOUT))
    kernel.declare_pred(pred("F", V, ["v"], "(and (<= 0 v) (< v 2))"))
    kernel.declare_pred(pred("G", V, ["v"], "(and (<= 0 v) (< v 5))"))
    fact = apply(kernel, "ub", "F", "G")
    assert fact.rule == "ub" and kernel.facts == [fact]


# -- or --------------------------------------------------------------------------------


def test_or(solver):
    kernel = make_kernel(
        solver,
        pred("F", V, ["v"], "(and (<= 0 v) (< v 4))"),
        pred("G", V, ["v"], "(and (<= 0 v) (< v 2))"),
        pred("H", V, ["v"], "(and (<= 2 v) (< v 4))"),
    )
    apply(kernel, "or", "F", "G", "H")
    with pytest.raises(NotValid):
        apply(kernel, "or", "G", "F", "H")  # G != F or H


def test_or_overlap_is_subtracted(solver):
    kernel = make_kernel(
        solver,
        pred("F", V, ["v"], "(and (<= 0 v) (< v 4))"),
        pred("G", V, ["v"], "(and (<= 0 v) (< v 3))"),
        pred("H", V, ["v"], "(and (<= 2 v) (< v 4))"),
    )
    apply(kernel, "or", "F", "G", "H")
    goal = term_from_text(
        "(= cnt.F (- (+ cnt.G cnt.H) cnt.G&H))", {}, kernel.signature
    )
    assert kernel.entails(goal, "t")


# -- products -----------------------------------------------------------------------------


def test_disjoint(solver):
    kernel = make_kernel(
        solver,
        pred("H", V + W, ["v", "w"], "(and (and (<= 0 v) (< v 2)) (and (<= 0 w) (< w 3)))"),
        pred("F", V, ["v"], "(and (<= 0 v) (< v 2))"),
        pred("G", W, ["w"], "(and (<= 0 w) (< w 3))"),
    )
    apply(kernel, "disjoint", "H", "F", "G")
    assert kernel.entails(
        term_from_text("(= cnt.H (* cnt.F cnt.G))", {}, kernel.signature), "t"
    )


def test_disjoint_rejects_shared_variables(solver):
    kernel = make_kernel(
        solver,
        pred("H", V, ["v"], "(and (<= 0 v) (< v 2))"),
        pred("F", V, ["v"], "(<= 0 v)"),
        pred("G", V, ["v"], "(< v 2)"),
    )
    with pytest.raises(VarsOverlap):
        apply(kernel, "disjoint", "H", "F", "G")


def test_and_ub(solver):
    kernel = make_kernel(
        solver,
        pred("H", V, ["v"], "(and (<= 0 v) (< v 2))"),
        pred("F", V, ["v"], "(<= 0 v)"),
        pred("G", W, ["w"], "(< w 2)"),
    )
    with pytest.raises(KernelError):
        apply(kernel, "and-ub", "H", "F", "G")  # counted vars of h miss w
    kernel2 = make_kernel(
        solver,
        pred("H", V + W, ["v", "w"], "(and (and (<= 0 v) (< v 2)) (and (<= 0 w) (< w 3)))"),
        pred("F", V, ["v"], "(and (<= 0 v) (< v 2))"),
        pred("G", W, ["w"], "(and (<= 0 w) (< w 3))"),
        pred("Bad", W, ["w"], "(and (<= 0 w) (< w 1))"),
    )
    apply(kernel2, "and-ub", "H", "F", "G")
    with pytest.raises(NotValid):
        apply(kernel2, "and-ub", "H", "F", "Bad")


# -- injective ---------------------------------------------------------------------------------


def test_injective(solver):
    kernel = make_kernel(
        solver,
        pred("F", V, ["v"], "(and (<= 0 v) (< v 3))"),
        pred("G", W, ["w"], "(and (<= 0 w) (< w 6))"),
    )
    env = {"v": INT}
    apply(kernel, "injective", "F", "G", {"w": term_from_text("(* 2 v)", env)})
    assert kernel.entails(
        term_from_text("(<= cnt.F cnt.G)", {}, kernel.signature), "t"
    )


def test_injective_rejects_collapsing_witness(solver):
    kernel = make_kernel(
        solver,
        pred("F", V, ["v"], "(and (<= 0 v) (< v 3))"),
        pred("G", W, ["w"], "(and (<= 0 w) (< w 6))"),
    )
    with pytest.raises(NotValid):
        apply(kernel, "injective", "F", "G", {"w": IntLit(0)})


def test_injective_rejects_escaping_image(solver):
    kernel = make_kernel(
        solver,
        pred("F", V, ["v"], "(and (<= 0 v) (< v 3))"),
        pred("G", W, ["w"], "(and (<= 0 w) (< w 2))"),
    )
    with pytest.raises(NotValid):
        apply(kernel, "injective", "F", "G", {"w": term_from_text("v", {"v": INT})})


# -- induction ----------------------------------------------------------------------------------


def test_ind_geq(solver):
    kernel = make_kernel(
        solver,
        pred("F", V + [N], ["v"], "(and (<= 0 v) (< v n))"),
        pred("G", B, ["b"], "(= b 0)"),
    )
    env = {"v": INT, "b": INT}
    apply(
        kernel,
        "ind-geq",
        "F",
        "G",
        "n",
        {"v": term_from_text("v", env)},
        term_from_text("(>= n 0)", {"n": INT}),
    )
    goal = term_from_text(
        "(forall ((n Int)) (=> (>= n 0) (>= (cnt.F (+ n 1)) (* (cnt.F n) cnt.G))))",
        {},
        kernel.signature,
    )
    assert kernel.entails(goal, "t")


def test_ind_geq_rejects_noninjective_lift(solver):
    kernel = make_kernel(
        solver,
        pred("F", V + [N], ["v"], "(and (<= 0 v) (< v n))"),
        pred("G", B, ["b"], "(and (<= 0 b) (< b 2))"),
    )
    env = {"v": INT, "b": INT}
    with pytest.raises(NotValid):
        # ignores b, so two g-models map to one lifted model
        apply(kernel, "ind-geq", "F", "G", "n", {"v": term_from_text("v", env)})


def test_ind_leq(solver):
    kernel = make_kernel(
        solver,
        pred("F", V + [N], ["v"], "(and (<= 0 v) (< v (* 2 n)))"),
        pred("G", B, ["b"], "(and (<= 0 b) (< b 2))"),
    )
    env = {"v": INT}
    apply(
        kernel,
        "ind-leq",
        "F",
        "G",
        "n",
        {"v": term_from_text("(div v 2)", env)},
        {"b": term_from_text("(mod v 2)", env)},
        term_from_text("(>= n 1)", {"n": INT}),
    )
    goal = term_from_text(
        "(forall ((n Int)) (=> (>= n 1) (<= (cnt.F (+ n 1)) (* (cnt.F n) cnt.G))))",
        {},
        kernel.signature,
    )
    assert kernel.entails(goal, "t")


def test_ind_leq_rejects_bad_lowering(solver):
    kernel = make_kernel(
        solver,
        pred("F", V + [N], ["v"], "(and (<= 0 v) (< v (* 2 n)))"),
        pred("G", B, ["b"], "(and (<= 0 b) (< b 2))"),
    )
    env = {"v": INT}
    with pytest.raises(NotValid):
        # identity does not land back in F at n
        apply(
            kernel,
            "ind-leq",
            "F",
            "G",
            "n",
            {"v": term_from_text("v", env)},
            {"b": term_from_text("0", env)},
            term_from_text("(>= n 1)", {"n": INT}),
        )


def test_ind_requires_fresh_counted_names(solver):
    kernel = make_kernel(
        solver,
        pred("F", V + [N], ["v"], "(and (<= 0 v) (< v n))"),
        pred("G", V, ["v"], "(= v 0)"),
    )
    with pytest.raises(KernelError):
        apply(kernel, "ind-geq", "F", "G", "n", {"v": Var("v", INT)})


# -- close --------------------------------------------------------------------------------------


def close_kernel(solver, timeout=TIMEOUT):
    kernel = Kernel(Session(solver, timeout))
    kernel.declare_pred(pred("F", V + [N], ["v"], "(and (<= 0 v) (< v n))"))
    apply(kernel, "range", "F")
    return kernel


def test_close_recurrence(solver):
    kernel = close_kernel(solver)
    one = IntLit(1)
    apply(kernel, "close", "F", "n", one, one, one, one, ">=")
    goal = term_from_text(
        "(forall ((n Int)) (=> (>= n 1) (>= (cnt.F n) 1)))", {}, kernel.signature
    )
    assert kernel.entails(goal, "t")


# A failed entailment behind close can surface either as an explicit mismatch
# (solver finds a countermodel) or as an inconclusive-solver rejection (the
# recursive count axioms admit no finite model); both refuse the fact.


def test_close_base_mismatch(solver):
    kernel = close_kernel(solver, timeout=3000)
    before = len(kernel.facts)
    with pytest.raises(KernelError):
        apply(kernel, "close", "F", "n", IntLit(1), IntLit(5), IntLit(1), IntLit(1), ">=")
    assert len(kernel.facts) == before


def test_close_step_mismatch(solver):
    kernel = close_kernel(solver, timeout=3000)
    before = len(kernel.facts)
    with pytest.raises(KernelError):
        # facts do not entail doubling
        apply(
            kernel,
            "close",
            "F",
            "n",
            IntLit(1),
            IntLit(1),
            IntLit(2),
            term_from_text("(pow2 (- n 1))", {"n": INT}, kernel.signature),
            ">=",
        )
    assert len(kernel.facts) == before


def test_close_needs_single_parameter(solver):
    kernel = make_kernel(
        solver, pred("F", V + [K, N], ["v"], "(and (<= 0 v) (< v n))")
    )
    with pytest.raises(KernelError):
        apply(kernel, "close", "F", "n", IntLit(1), IntLit(1), IntLit(1), IntLit(1), ">=")


# -- scripts ------------------------------------------------------------------------------------

SCRIPT = """
(proof
  (declare-pred R ((v Int) (k Int)) (counted v) (and (<= 0 v) (< v k)))
  (step 1 (range R) (positive R))
  (goal (forall ((k Int)) (=> (>= k 0) (= (cnt.R k) k)))))
"""


def test_check_script_accepts(solver):
    script = parse_proof(SCRIPT)
    result = check_script(script, Session(solver, TIMEOUT))
    assert result.status == "accepted"
    assert result.rejected_at is None
    assert [f.rule for f in result.facts] == ["range", "positive"]


def test_check_script_rejects_bad_step(solver):
    bad = SCRIPT.replace("(and (<= 0 v) (< v k))", "(and (< 0 v) (< v k))")
    result = check_script(parse_proof(bad), Session(solver, TIMEOUT))
    assert result.status != "accepted"
    assert result.rejected_at == "step 1"


def test_check_script_rejects_unentailed_goal(solver):
    bad = SCRIPT.replace("(= (cnt.R k) k)", "(= (cnt.R k) (+ k 1))")
    result = check_script(parse_proof(bad), Session(solver, 3000))
    assert result.status != "accepted"
    assert result.rejected_at == "goal"


def test_check_script_requires_goal(solver):
    script = parse_proof(
        "(proof (declare-pred R ((v Int)) (counted v) (= v 0)) (step 1 (positive R)))"
    )
    result = check_script(script, Session(solver, TIMEOUT))
    assert result.status != "accepted"
    assert result.rejected_at == "goal"


def test_parse_proof_const_lb_models():
    text = """
    (proof
      (declare-pred P ((v Int)) (counted v) (and (<= 0 v) (< v 2)))
      (step 1 (const-lb P 2 (model (v 0)) (model (v 1))))
      (goal (>= cnt.P 2)))
    """
    script = parse_proof(text)
    (step,) = script.steps
    (app,) = step.apps
    assert app.rule == "const-lb"
    assert app.payload.c == 2
    assert app.payload.models == ({"v": IntLit(0)}, {"v": IntLit(1)})


# -- malformed scripts ----------------------------------------------------------------------------

DECLARED = "(declare-pred P ((v Int) (n Int)) (counted v) (and (<= 0 v) (< v n)))"


@pytest.mark.parametrize(
    "section",
    [
        "(step 1 (range))",
        "(step 1 (const-ub P))",
        "(step 1 (const-ub P x))",
        "(step 1 (const-ub P 2 (model (v 0))))",
        "(step 1 (const-lb P 2 (v 0)))",
        "(step 1 (close P n 0))",
        "(step 1 (range P P))",
        "(step 1 (positive Q))",
        "(step 1 (and-ub (and P) P P))",
        "(step 1 (injective P P))",
        "(step 1 (injective P P (witness (v))))",
        "(step 1 (ind-geq P P 3 (witness (v v))))",
        "(step 1 (ind-leq P P n (hx (v v))))",
        "(step 1 (ind-geq P P n (witness (v v)) (guard)))",
        "(step x (range P))",
        "(declare-pred P ((v Int)))",
        "(declare-pred Q (v Int) (counted v) true)",
        "(declare-pred Q ((v Int)) (counted w) true)",
        "(goal)",
        "(goal (>= cnt.Q 1))",
    ],
)
def test_parse_proof_rejects_malformed_scripts(section):
    with pytest.raises(SexprError):
        parse_proof(f"(proof {DECLARED} {section})")


# -- offline: witnesses, unknown verdicts -----------------------------------------------------------

WITNESS_SCRIPT = """
(proof
  (declare-pred F ((v Int) (n Int)) (counted v) (and (<= 0 v) (< v n)))
  (declare-pred G ((b Int)) (counted b) (= b 0))
  (step 1 {step})
  (goal true))
"""


@pytest.mark.parametrize(
    "step, reason",
    [
        ("(ind-geq F G n (witness (q 1)))", "ind-geq(F,G): witness missing v"),
        ("(ind-leq F G n (hx (q 1)) (hy (b 0)))", "ind-leq(F,G): hx missing v"),
        ("(ind-leq F G n (hx (v 1)) (hy (q 0)))", "ind-leq(F,G): hy missing b"),
        ("(injective G F (witness (q 1)))", "injective(G,F): witness missing v"),
        ("(const-lb G 1 (model (q 0)))", "const-lb(G,1): model missing b"),
    ],
)
def test_missing_witness_variable_rejects_step_before_any_query(step, reason, stub_solver, tmp_path):
    debug = tmp_path / "debug"
    script = parse_proof(WITNESS_SCRIPT.format(step=step))
    result = check_script(script, Session(stub_solver("unsat"), TIMEOUT, debug))
    assert (result.status, result.rejected_at, result.reason) == ("rejected", "step 1", reason)
    assert result.facts == ()
    assert not debug.exists()


UNKNOWN_SCRIPT = """
(proof
  (declare-pred P ((v Int)) (counted v) (and (<= 0 v) (< v 3)))
  (declare-pred Q ((v Int)) (counted v) (and (<= 0 v) (< v 5)))
  {steps}
  (goal (>= cnt.P 2)))
"""


@pytest.mark.parametrize(
    "steps, rejected_at, sent",
    [
        # a model search: the default tactic, then model-based instantiation
        ("(step 1 (const-lb P 2))", "step 1", ["const-lb(P,2)", "const-lb(P,2)"]),
        # a plain validity premise has one attempt
        ("(step 1 (ub P Q))", "step 1", ["ub(P,Q)"]),
        # an entailment: E-matching, then model-based instantiation
        ("", "goal", ["goal", "goal"]),
    ],
)
def test_unknown_admits_no_fact(steps, rejected_at, sent, stub_solver, tmp_path):
    debug = tmp_path / "debug"
    script = parse_proof(UNKNOWN_SCRIPT.format(steps=steps))
    result = check_script(script, Session(stub_solver("unknown"), TIMEOUT, debug))
    assert (result.status, result.rejected_at) == ("unknown", rejected_at)
    assert result.reason == f"{sent[0]}: solver returned unknown"
    assert result.facts == ()
    names = sorted(p.name for p in debug.glob("*.smt2"))
    assert [n[4:-len(".smt2")] for n in names] == sent
    if len(sent) == 2:
        assert "(set-option :smt.mbqi true)" not in (debug / names[0]).read_text()
        assert "(set-option :smt.mbqi true)" in (debug / names[1]).read_text()


@pytest.mark.parametrize(
    "attempts, timeout, walls, sent",
    [
        # a retry gets what the first attempt left of the session timeout
        (ENTAILMENT, 20_000, [300, 0], [20_000, 19_700]),
        # a first attempt that used the whole budget is not retried
        (ENTAILMENT, 20_000, [20_000], [20_000]),
        (MODEL_SEARCH, 20_000, [15_000, 0], [15_000, 5_000]),
        (MODEL_SEARCH, 12_000, [2_000, 0], [12_000, 10_000]),
        (MODEL_SEARCH, 20_000, [20_400], [15_000]),
    ],
    ids=["retry", "spent", "capped", "capped-retry", "overrun"],
)
def test_premise_attempts_share_one_time_budget(monkeypatch, attempts, timeout, walls, sent):
    # every attempt answers unknown after the given wall time
    timeouts, wall = [], iter(walls)

    def solve(query, solver=None, debug_path=None):
        timeouts.append(query.timeout_ms)
        return Verdict("unknown", None, next(wall))

    monkeypatch.setattr(backend, "solve", solve)
    premise = Premise("p", (), attempts=attempts, failure="p: not valid")
    with pytest.raises(QueryUnknown, match="p: solver returned unknown"):
        Kernel(Session(["unused-solver"], timeout)).send([premise])
    assert timeouts == sent
