from pathlib import Path

import pytest

from test_query_stream import RULE_SCRIPT, RULE_SCRIPT_LABELS, STREAMS

from qhenum.backend import Session
from qhenum.counting import RULES, apply_rule, check_script, parse_proof
from qhenum.sexpr import SexprError
from qhenum.terms import BOOL, INT, App, Cmp, IntLit, Var, sort_to_text, substitute

TIMEOUT = 20_000
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def pred(name, variables, counted, body_text):
    """The declare-pred form of a predicate."""
    binders = " ".join(f"({n} {sort_to_text(s)})" for n, s in variables)
    return f"(declare-pred {name} ({binders}) (counted {' '.join(counted)}) {body_text})"


def check(solver, preds, *steps, goal="true", timeout=TIMEOUT):
    """The result of checking the script that declares ``preds``, makes each
    of ``steps`` one step, numbered from 1, and ends with ``(goal goal)``."""
    numbered = " ".join(f"(step {i} {step})" for i, step in enumerate(steps, 1))
    script = parse_proof(f"(proof {' '.join(preds)} {numbered} (goal {goal}))")
    return check_script(script, Session(solver, timeout))


def outcome(result):
    """Where a script stopped, and the rules of the facts it admitted."""
    return result.status, result.rejected_at, [f.rule for f in result.facts]


def load_error(preds, app):
    """The message with which loading the script that declares ``preds``
    and applies ``app`` fails."""
    with pytest.raises(SexprError) as err:
        parse_proof(f"(proof {' '.join(preds)} (step 1 {app}))")
    return str(err.value)


V, W, B, K, N = [("v", INT)], [("w", INT)], [("b", INT)], ("k", INT), ("n", INT)


# -- declarations -------------------------------------------------------------


def test_declare_pred_validation():
    for declaration, message in [
        (pred("P", V, [], "(= v 0)"), "predicate P: no counted variables"),
        (pred("P", V, ["q"], "(= v 0)"), "predicate P: counted var q undeclared"),
        (pred("P", V + V, ["v"], "(= v 0)"), "predicate P: duplicate variables"),
    ]:
        with pytest.raises(SexprError) as err:
            parse_proof(f"(proof {declaration})")
        assert str(err.value) == message


# -- range ---------------------------------------------------------------------


def test_range_accepts_interval(solver):
    preds = [pred("R", V + [K], ["v"], "(and (<= 0 v) (< v k))")]
    for goal in ("(= (cnt.R 5) 5)", "(= (cnt.R (- 2)) 0)"):
        result = check(solver, preds, "(range R)", goal=goal)
        assert outcome(result) == ("passed", None, ["range"])


def test_range_rejects_wrong_shape():
    shape = "range rule needs a body of the shape (and (<= lower v) (< v upper))"
    for variables, counted, body, message in [
        (V + [K], ["v"], "(and (< 0 v) (< v k))", shape),  # strict lower bound
        (V + [K], ["v"], "(and (<= 0 v) (< v v))", shape),  # bound mentions v
        (V + [K], ["v"], "(and (<= 0 v) (< v k) (< v 9))", shape),  # three conjuncts
        (V + [K], ["v"], "(and (< v k) (<= 0 v))", shape),  # conjuncts swapped
        (V + W + [K], ["v", "w"], "(and (<= 0 v) (< v k))",
         "range rule needs exactly one counted variable"),
    ]:
        assert load_error([pred("R", variables, counted, body)], "(range R)") == message


# -- positive --------------------------------------------------------------------


def test_positive(solver):
    preds = [pred("P", V + [K], ["v"], "(= v k)")]
    result = check(solver, preds, "(positive P)", goal="(forall ((k Int)) (>= (cnt.P k) 0))")
    assert result.status == "passed"


def test_at_reference_instantiates_parameter_and_keeps_symbol():
    body = "(and (<= 0 v) (< v k))"
    script = parse_proof(
        f"(proof {pred('P', V + [K], ['v'], body)} (step 1 (positive (at P 3))))"
    )
    (app,) = script.steps[0].apps
    (count,) = app.args
    plain = script.counts["P"]
    assert (count.name, count.symbol, count.args, count.params) == ("P", "cnt.P", (IntLit(3),), ())
    assert count.formula == substitute(plain.formula, {Var("k", INT): IntLit(3)})
    premises, fact = apply_rule((), app)
    assert premises == () and fact.label == "positive(P)"
    assert fact.axiom == Cmp(">=", App("cnt.P", (IntLit(3),)), IntLit(0))


# -- const bounds -----------------------------------------------------------------


def test_const_lb_model_search(solver):
    preds = [pred("P", V, ["v"], "(and (<= 0 v) (< v 3))")]
    assert check(solver, preds, "(const-lb P 3)", goal="(>= cnt.P 3)").status == "passed"
    result = check(solver, preds, "(const-lb P 3)", "(const-lb P 4)")
    assert outcome(result) == ("failed", "step 2", ["const-lb"])


def test_const_lb_explicit_witnesses(solver):
    preds = [pred("P", V, ["v"], "(and (<= 0 v) (< v 3))")]
    app = "(const-lb P 2 (model (v 0)) (model (v 2)))"
    assert check(solver, preds, app, goal="(>= cnt.P 2)").status == "passed"


def test_const_lb_bad_witnesses_rejected(solver):
    # too few (model ...) sections are rejected at load: see
    # test_missing_witness_variable_rejects_step_before_any_query
    preds = [pred("P", V, ["v"], "(and (<= 0 v) (< v 3))")]
    for app in (
        "(const-lb P 2 (model (v 0)) (model (v 5)))",  # 5 violates the body
        "(const-lb P 2 (model (v 1)) (model (v 1)))",  # witnesses are not pairwise distinct
    ):
        assert outcome(check(solver, preds, app)) == ("failed", "step 1", [])


def test_const_lb_parameterized(solver):
    preds = [
        pred("P", V + [K], ["v"], "(or (= v 0) (= v k))"),
        pred("Q", V + [K], ["v"], "(and (= v 0) (= v k))"),
    ]
    goal = "(forall ((k Int)) (>= (cnt.P k) 1))"
    assert check(solver, preds, "(const-lb P 1)", goal=goal).status == "passed"
    for refused in (
        "(const-lb P 2)",  # fails when k = 0
        "(const-lb Q 1)",  # fails when k != 0
    ):
        result = check(solver, preds, "(const-lb P 1)", refused)
        assert outcome(result) == ("failed", "step 2", ["const-lb"])


def test_const_ub(solver):
    preds = [pred("P", V, ["v"], "(= v 7)")]
    assert check(solver, preds, "(const-ub P 2)", goal="(<= cnt.P 1)").status == "passed"
    result = check(solver, preds, "(const-ub P 2)", "(const-ub P 1)")  # one model does exist
    assert outcome(result) == ("failed", "step 2", ["const-ub"])


def test_const_bound_rejects_degenerate_count():
    apps = ["(const-lb P 0)", "(const-ub P 0)", "(const-ub P -1)", "(const-lb P 0 (model (v 7)))"]
    for app in apps:
        assert load_error([pred("P", V, ["v"], "(= v 7)")], app) == "constant bound needs c >= 1"


# -- ub (subset) --------------------------------------------------------------------


def test_ub(solver):
    preds = [
        pred("F", V, ["v"], "(and (<= 0 v) (< v 2))"),
        pred("G", V, ["v"], "(and (<= 0 v) (< v 5))"),
    ]
    assert check(solver, preds, "(ub F G)", goal="(<= cnt.F cnt.G)").status == "passed"
    result = check(solver, preds, "(ub F G)", "(ub G F)")  # G is not a subset of F
    assert outcome(result) == ("failed", "step 2", ["ub"])


def test_ub_countermodel_reaches_not_valid(stub_solver):
    # the stub answers every query with a model: the refused step must keep it
    cmd = stub_solver("sat\n(model (define-fun v () Int 5))")
    preds = [
        pred("F", V, ["v"], "(and (<= 0 v) (< v 5))"),
        pred("G", V, ["v"], "(and (<= 0 v) (< v 2))"),
    ]
    result = check(cmd, preds, "(ub F G)")
    assert outcome(result) == ("failed", "step 1", [])
    assert (result.reason, result.model) == ("ub(F,G): premise not valid", (("v", "5"),))


def test_ub_unsat_with_model_error_is_valid(stub_solver):
    # asking for a model after unsat makes the solver print an error line
    cmd = stub_solver('unsat\n(error "line 9 column 10: model is not available")')
    preds = [
        pred("F", V, ["v"], "(and (<= 0 v) (< v 2))"),
        pred("G", V, ["v"], "(and (<= 0 v) (< v 5))"),
    ]
    assert outcome(check(cmd, preds, "(ub F G)")) == ("passed", None, ["ub"])


# -- or --------------------------------------------------------------------------------


def test_or(solver):
    preds = [
        pred("F", V, ["v"], "(and (<= 0 v) (< v 4))"),
        pred("G", V, ["v"], "(and (<= 0 v) (< v 2))"),
        pred("H", V, ["v"], "(and (<= 2 v) (< v 4))"),
    ]
    result = check(solver, preds, "(or F G H)", "(or G F H)")  # G != F or H
    assert outcome(result) == ("failed", "step 2", ["or"])


def test_or_overlap_is_subtracted(solver):
    preds = [
        pred("F", V, ["v"], "(and (<= 0 v) (< v 4))"),
        pred("G", V, ["v"], "(and (<= 0 v) (< v 3))"),
        pred("H", V, ["v"], "(and (<= 2 v) (< v 4))"),
    ]
    goal = "(= cnt.F (- (+ cnt.G cnt.H) cnt.G&H))"
    assert check(solver, preds, "(or F G H)", goal=goal).status == "passed"


# -- products -----------------------------------------------------------------------------


def test_disjoint(solver):
    preds = [
        pred("H", V + W, ["v", "w"], "(and (and (<= 0 v) (< v 2)) (and (<= 0 w) (< w 3)))"),
        pred("F", V, ["v"], "(and (<= 0 v) (< v 2))"),
        pred("G", W, ["w"], "(and (<= 0 w) (< w 3))"),
    ]
    goal = "(= cnt.H (* cnt.F cnt.G))"
    assert check(solver, preds, "(disjoint H F G)", goal=goal).status == "passed"


def test_disjoint_rejects_shared_variables():
    preds = [
        pred("H", V, ["v"], "(and (<= 0 v) (< v 2))"),
        pred("F", V, ["v"], "(<= 0 v)"),
        pred("G", V, ["v"], "(< v 2)"),
    ]
    message = "disjoint rule needs disjoint counted variables"
    assert load_error(preds, "(disjoint H F G)") == message


def test_and_ub(solver):
    preds = [
        pred("H", V + W, ["v", "w"], "(and (and (<= 0 v) (< v 2)) (and (<= 0 w) (< w 3)))"),
        pred("F", V, ["v"], "(and (<= 0 v) (< v 2))"),
        pred("G", W, ["w"], "(and (<= 0 w) (< w 3))"),
        pred("Bad", W, ["w"], "(and (<= 0 w) (< w 1))"),
    ]
    result = check(solver, preds, "(and-ub H F G)", "(and-ub H F Bad)")
    assert outcome(result) == ("failed", "step 2", ["and-ub"])


# -- injective ---------------------------------------------------------------------------------

INJECTIVE_PREDS = (
    pred("F", V, ["v"], "(and (<= 0 v) (< v 3))"),
    pred("G", W, ["w"], "(and (<= 0 w) (< w 6))"),
)


def test_injective(solver):
    app = "(injective F G (witness (w (* 2 v))))"
    assert check(solver, INJECTIVE_PREDS, app, goal="(<= cnt.F cnt.G)").status == "passed"


def test_injective_rejects_collapsing_witness(solver):
    result = check(solver, INJECTIVE_PREDS, "(injective F G (witness (w 0)))")
    assert outcome(result) == ("failed", "step 1", [])


def test_injective_rejects_escaping_image(solver):
    preds = [
        pred("F", V, ["v"], "(and (<= 0 v) (< v 3))"),
        pred("G", W, ["w"], "(and (<= 0 w) (< w 2))"),
    ]
    result = check(solver, preds, "(injective F G (witness (w v)))")
    assert outcome(result) == ("failed", "step 1", [])


# -- induction ----------------------------------------------------------------------------------


def test_ind_geq(solver):
    preds = [
        pred("F", V + [N], ["v"], "(and (<= 0 v) (< v n))"),
        pred("G", B, ["b"], "(= b 0)"),
    ]
    app = "(ind-geq F G n (witness (v v)) (guard (>= n 0)))"
    goal = "(forall ((n Int)) (=> (>= n 0) (>= (cnt.F (+ n 1)) (* (cnt.F n) cnt.G))))"
    assert check(solver, preds, app, goal=goal).status == "passed"


def test_ind_geq_rejects_noninjective_lift(solver):
    preds = [
        pred("F", V + [N], ["v"], "(and (<= 0 v) (< v n))"),
        pred("G", B, ["b"], "(and (<= 0 b) (< b 2))"),
    ]
    # ignores b, so two g-models map to one lifted model
    result = check(solver, preds, "(ind-geq F G n (witness (v v)))")
    assert outcome(result) == ("failed", "step 1", [])


IND_LEQ_PREDS = (
    pred("F", V + [N], ["v"], "(and (<= 0 v) (< v (* 2 n)))"),
    pred("G", B, ["b"], "(and (<= 0 b) (< b 2))"),
)


def test_ind_leq(solver):
    app = "(ind-leq F G n (hx (v (div v 2))) (hy (b (mod v 2))) (guard (>= n 1)))"
    goal = "(forall ((n Int)) (=> (>= n 1) (<= (cnt.F (+ n 1)) (* (cnt.F n) cnt.G))))"
    assert check(solver, IND_LEQ_PREDS, app, goal=goal).status == "passed"


def test_ind_leq_rejects_bad_lowering(solver):
    # identity does not land back in F at n
    result = check(solver, IND_LEQ_PREDS, "(ind-leq F G n (hx (v v)) (hy (b 0)) (guard (>= n 1)))")
    assert outcome(result) == ("failed", "step 1", [])


def test_ind_requires_fresh_counted_names():
    preds = [pred("F", V + [N], ["v"], "(and (<= 0 v) (< v n))"), pred("G", V, ["v"], "(= v 0)")]
    message = "ind rule: counted variables of f and g must not share names"
    assert load_error(preds, "(ind-geq F G n (witness (v v)))") == message
    assert load_error(preds, "(ind-leq F G n (hx (v v)) (hy (v 0)))") == message


# -- close --------------------------------------------------------------------------------------


def check_close(solver, close, goal="true", timeout=TIMEOUT):
    """The result of a script that admits the range of F in step 1 and
    applies ``close`` in step 2."""
    preds = [pred("F", V + [N], ["v"], "(and (<= 0 v) (< v n))")]
    return check(solver, preds, "(range F)", close, goal=goal, timeout=timeout)


def test_close_recurrence(solver):
    goal = "(forall ((n Int)) (=> (>= n 1) (>= (cnt.F n) 1)))"
    result = check_close(solver, "(close F n 1 1 1 1 >=)", goal)
    assert outcome(result) == ("passed", None, ["range", "close-recurrence"])


# A failed entailment behind close can surface either as an explicit mismatch
# (solver finds a countermodel) or as an inconclusive-solver rejection (the
# recursive count axioms admit no finite model); both refuse the fact.


def test_close_base_mismatch(solver):
    result = check_close(solver, "(close F n 1 5 1 1 >=)", timeout=3000)
    assert result.status != "passed"
    assert (result.rejected_at, [f.rule for f in result.facts]) == ("step 2", ["range"])


def test_close_step_mismatch(solver):
    # facts do not entail doubling
    result = check_close(solver, "(close F n 1 1 2 (pow2 (- n 1)) >=)", timeout=3000)
    assert result.status != "passed"
    assert (result.rejected_at, [f.rule for f in result.facts]) == ("step 2", ["range"])


def test_close_needs_single_parameter():
    two = [pred("F", V + [K, N], ["v"], "(and (<= 0 v) (< v n))")]
    one = [pred("F", V + [N], ["v"], "(and (<= 0 v) (< v n))")]
    message = "close_recurrence needs a count with the single parameter {}"
    for preds, app, n in [
        (two, "(close F n 1 1 1 1 >=)", "n"),  # a second parameter k
        (one, "(close F v 1 1 1 1 >=)", "v"),  # the counted variable
        (one, "(close F k 1 1 1 1 >=)", "k"),  # no variable of F
        (one, "(close (at F 3) n 1 1 1 1 >=)", "n"),  # no parameter left
    ]:
        assert load_error(preds, app) == message.format(n)
    relation = "close_recurrence relation must be =, <=, or >="
    assert load_error(one, "(close F n 1 1 1 1 >)") == relation
    boolean = [pred("F", V + [("n", BOOL)], ["v"], "(and (<= 0 v) (< v 3))")]
    sort = "close_recurrence parameter n has sort Bool, not Int"
    assert load_error(boolean, "(close F n 1 1 1 1 =)") == sort


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
    assert result.status == "passed"
    assert result.rejected_at is None
    assert [f.rule for f in result.facts] == ["range", "positive"]


def test_check_script_rejects_bad_step():
    # a step whose side condition fails never reaches check_script
    bad = SCRIPT.replace("(and (<= 0 v) (< v k))", "(and (< 0 v) (< v k))")
    with pytest.raises(SexprError) as err:
        parse_proof(bad)
    assert str(err.value) == "range rule needs a body of the shape (and (<= lower v) (< v upper))"


def test_check_script_rejects_unentailed_goal(solver):
    bad = SCRIPT.replace("(= (cnt.R k) k)", "(= (cnt.R k) (+ k 1))")
    result = check_script(parse_proof(bad), Session(solver, 3000))
    assert result.status != "passed"
    assert result.rejected_at == "goal"


def test_check_script_requires_goal(stub_solver):
    script = parse_proof(
        "(proof (declare-pred R ((v Int)) (counted v) (= v 0)) (step 1 (positive R)))"
    )
    result = check_script(script, Session(stub_solver("unsat"), TIMEOUT))
    assert outcome(result) == ("failed", "goal", ["positive"])
    assert result.reason == "script has no goal"


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
    count, c, models = app.args
    assert count == script.counts["P"]
    assert c == 2
    v = Var("v", INT)
    assert models == ({v: IntLit(0)}, {v: IntLit(1)})


def test_goal_may_name_a_conjunction_count_resolved_before_it(stub_solver):
    declared = pred("F", V, ["v"], "(< v 2)") + pred("G", V, ["v"], "(> v 0)")
    goal = "(goal (>= cnt.F&G 0))"
    script = parse_proof(f"(proof {declared} (step 1 (positive (and F G))) {goal})")
    assert script.signature.rank("cnt.F&G") == ((), INT)
    result = check_script(script, Session(stub_solver("unsat"), TIMEOUT))
    assert (result.status, [f.label for f in result.facts]) == ("passed", ["positive(F&G)"])
    with pytest.raises(SexprError, match="unknown atom 'cnt.F&G'"):
        parse_proof(f"(proof {declared} {goal} (step 1 (positive (and F G))))")


def test_every_rule_is_pinned_by_a_query_stream():
    # the query-stream pins run the shipped proofs and RULE_SCRIPT
    texts = [RULE_SCRIPT, *((d / "proof.sexp").read_text() for d in BENCHMARKS.iterdir())]
    applied = {app.rule for text in texts for step in parse_proof(text).steps for app in step.apps}
    assert applied == set(RULES)


def premise_labels(script):
    """The labels of ``script``'s premises, ``/`` written ``_`` as in a query
    file name, built by folding ``apply_rule`` over its steps and admitting
    each fact; no solver is involved."""
    facts, labels = [], []
    for step in script.steps:
        for app in step.apps:
            premises, fact = apply_rule(facts, app)
            labels += [premise.label.replace("/", "_") for premise in premises]
            facts.append(fact)
    return labels


@pytest.mark.parametrize("name", [*sorted(STREAMS), "RULE_SCRIPT"])
def test_pure_builds_give_the_pinned_counting_labels(name):
    # the counting stage's part of each pinned query stream, in send order
    if name == "RULE_SCRIPT":
        text, pinned = RULE_SCRIPT, RULE_SCRIPT_LABELS
    else:
        text, pinned = (BENCHMARKS / name / "proof.sexp").read_text(), STREAMS[name][1]
    expected = [label for label in pinned if not label.startswith(("goal", "link"))]
    assert premise_labels(parse_proof(text)) == expected


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
        "(step 1 (positive (at P 1 2)))",
        "(step 1 (positive (and (at P 1) P)))",
        "(declare-pred W ((w Int)) (counted w) true) (step 1 (positive (and P W)))",
        "(declare-pred Q ((v Int)) (counted v) (+ v 1))",
        "(goal (+ cnt.Q 1))",
        "(step 1 (positive (at P true)))",
        "(step 1 (injective P P (witness (v true))))",
        "(step 1 (const-lb P 1 (model (v true))))",
        "(step 1 (ind-leq P P n (hx (v true)) (hy (v 0))))",
        "(step 1 (ind-leq P P n (hx (v 0)) (hy (v true))))",
        "(step 1 (ind-geq P P n (witness (v 0)) (guard 1)))",
        "(step 1 (close P n 1 1 true 1 =))",
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


# A witness section that misses a counted variable or binds another is
# rejected at load, before any query; so is a const-lb whose (model ...)
# sections do not number c.
@pytest.mark.parametrize(
    "step, reason",
    [
        ("(ind-geq F G n (witness (q 1)))", "ind-geq(F,G): witness missing v"),
        ("(ind-leq F G n (hx (q 1)) (hy (b 0)))", "ind-leq(F,G): hx missing v"),
        ("(ind-leq F G n (hx (v 1)) (hy (q 0)))", "ind-leq(F,G): hy missing b"),
        ("(injective G F (witness (q 1)))", "injective(G,F): witness missing v"),
        ("(const-lb G 1 (model (q 0)))", "const-lb(G,1): model missing b"),
        ("(const-lb G 2 (model (b 0)))", "const-lb(G,2): needs exactly 2 (model ...) sections"),
    ],
)
def test_missing_witness_variable_rejects_step_before_any_query(step, reason):
    with pytest.raises(SexprError) as err:
        parse_proof(WITNESS_SCRIPT.format(step=step))
    assert str(err.value) == reason


STRAY_SCRIPT = """
(proof
  (declare-pred F ((v Int)) (counted v) (and (<= 0 v) (< v 2)))
  (declare-pred G ((w Int)) (counted w) (and (<= 0 w) (< w 4)))
  (declare-pred H ((v Int) (n Int)) (counted v) (and (<= 0 v) (< v n)))
  (declare-pred B ((v Int) (b Bool)) (counted v) (and b (= v 0)))
  (step 1 {step})
  (goal true))
"""


@pytest.mark.parametrize(
    "step, reason",
    [
        ("(injective F G (witness (w v) (wq 7)))", "injective(F,G): witness binds wq, which is not counted"),
        ("(ind-geq H G n (witness (v 1) (w 2)))", "ind-geq(H,G): witness binds w, which is not counted"),
        ("(ind-leq H G n (hx (v 1)) (hy (w 0) (n 1)))", "ind-leq(H,G): hy binds n, which is not counted"),
        ("(const-lb G 1 (model (w 0) (v 1)))", "const-lb(G,1): model binds v, which is not counted"),
    ],
)
def test_stray_witness_entry_rejects_step_before_any_query(step, reason):
    with pytest.raises(SexprError) as err:
        parse_proof(STRAY_SCRIPT.format(step=step))
    assert str(err.value) == reason


# A rule's side conditions are checked at load as well; the tests of range,
# const-lb/ub, disjoint, ind and close above pin their other messages.
@pytest.mark.parametrize(
    "step, reason",
    [
        ("(ub F G)", "ub rule needs identical counted variables"),
        ("(or G F F)", "or rule needs identical counted variables"),
        ("(or F F G)", "conjunction of predicates with different counted vars"),
        ("(and-ub F F G)", "product rule: counted vars of h must be those of f and g"),
        ("(disjoint F F G)", "product rule: counted vars of h must be those of f and g"),
        ("(ind-geq H G k (witness (v 1)))", "ind rule: k is not a parameter of f"),
        ("(ind-leq H G v (hx (v 1)) (hy (w 0)))", "ind rule: v is not a parameter of f"),
        ("(ind-geq B G b (witness (v 1)))", "ind rule: b has sort Bool, not Int"),
    ],
)
def test_side_condition_rejects_step_before_any_query(step, reason):
    with pytest.raises(SexprError) as err:
        parse_proof(STRAY_SCRIPT.format(step=step))
    assert str(err.value) == reason


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
