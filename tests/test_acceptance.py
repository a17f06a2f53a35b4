"""End-to-end acceptance suite.

Covers the full pipeline on the shipped benchmarks, proof-script mutation
robustness, agreement between the symbolic counting results and the
brute-force oracle, a randomized soundness sweep of the counting kernel,
and determinism of the generated reports.
"""

import json
import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import pytest

from qhenum.backend import Session
from qhenum.cli import load_project, run_benchmarks
from qhenum.counting import (
    Kernel,
    NotValid,
    apply_rule,
    check_script,
    parse_proof,
)
from qhenum.oracle import (
    ArrayDomain,
    FArray,
    FiniteInstance,
    ScalarDomain,
    brute_count,
    count_equivalence_classes,
    enumerate_traces,
    eval_term,
)
from qhenum.qhl import parse_property
from qhenum.sexpr import parse_one, to_text
from qhenum.system import parse_system
from qhenum.terms import (
    BUILTIN_SIGNATURE,
    INT,
    PLAIN,
    And,
    indexed,
    retag_free,
    term_from_text,
    term_to_text,
)


# ---------------------------------------------------------------------------
# Shared suite runs (two consecutive runs feed the determinism check)


@pytest.fixture(scope="session")
def suite(benchmarks, tmp_path_factory):
    out = tmp_path_factory.mktemp("reports")
    texts = []
    for k in (1, 2):
        path = out / f"run{k}.json"
        code = run_benchmarks(benchmarks, json_out=path)
        assert code == 0, f"benchmark suite run {k} exited with {code}"
        texts.append(path.read_text())
    return texts


def suite_rows(text):
    return {row["project"]: row for row in json.loads(text)["suite"]}


def suite_reports(text):
    return {rep["project"]: rep for rep in json.loads(text)["reports"]}


# ---------------------------------------------------------------------------
# 1. Hats protocol end to end


def test_hats_end_to_end(suite, benchmarks):
    row = suite_rows(suite[0])["zk-hats"]
    assert row["verdict"] == "QHP-verified"
    assert row["wall_ms"] < 60_000
    # the counting goal is |Valid(e, R)|_e = 2^R - 1
    script = parse_proof((benchmarks / "zk-hats" / "proof.sexp").read_text())
    sig = BUILTIN_SIGNATURE.extend("cnt.V", (INT,), INT)
    expected = term_from_text(
        "(forall ((R Int)) (=> (>= R 1) (= (cnt.V R) (- (pow2 R) 1))))", {}, sig
    )
    assert term_to_text(script.goal) == term_to_text(expected)


# ---------------------------------------------------------------------------
# 2. Proof-script mutation runs: deleting any single step must be caught


def test_hats_proof_single_step_deletions(benchmarks, solver):
    text = (benchmarks / "zk-hats" / "proof.sexp").read_text()
    full = check_script(parse_proof(text), Session(solver, 20_000))
    assert full.status == "accepted", f"shipped script rejected: {full.rejected_at} {full.reason}"

    form = parse_one(text)
    step_positions = [
        i for i, f in enumerate(form) if isinstance(f, list) and f and f[0] == "step"
    ]
    assert len(step_positions) == 9

    def run_without(position):
        mutated = to_text([f for i, f in enumerate(form) if i != position])
        return check_script(parse_proof(mutated), Session(solver, 15_000))

    # modest parallelism: oversubscribing the solver can turn a fast,
    # genuinely-provable early step into a spurious timeout rejection
    with ThreadPoolExecutor(max_workers=3) as pool:
        results = list(pool.map(run_without, step_positions))

    for deleted, result in enumerate(results, start=1):
        assert result.status != "accepted", f"script without step {deleted} was accepted"
        # the rejection must surface at a later step or at the goal
        at = result.rejected_at
        assert at == "goal" or int(at.split()[1]) > deleted, (deleted, at)


# ---------------------------------------------------------------------------
# 3. Hats oracle agrees with the closed form at small round counts


def hats_instance(system, rounds):
    return FiniteInstance(
        system=system,
        domains={
            "C": ArrayDomain(1, rounds, (0, 1)),
            "P": ArrayDomain(1, rounds, (0, 1)),
            "i": ScalarDomain(tuple(range(0, rounds + 1))),
            "s": ScalarDomain((False, True)),
        },
        params={"R": rounds},
        depth=rounds + 2,
        deterministic=True,
        quant_lo=-1,
        quant_hi=rounds + 2,
    )


def test_hats_class_counts_match_brute_counts(benchmarks):
    project = load_project(benchmarks / "zk-hats")
    valid = retag_free(project.witness.valid, {indexed(1): PLAIN})
    started = time.monotonic()
    for rounds in (1, 2, 3):
        inst = hats_instance(project.system, rounds)
        traces = enumerate_traces(inst)
        # pivot on a run where the cheat succeeds (responses match the cards)
        pivot = next(t for t in traces if t.states[-1]["s"] is True)
        classes = count_equivalence_classes(inst, project.prop, pivot, traces)
        brute = brute_count(
            valid,
            {"e": ArrayDomain(1, rounds, (0, 1))},
            {"R": rounds},
            quant_lo=-1,
            quant_hi=rounds + 2,
        )
        assert classes == brute == 2**rounds - 1
    assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# 4. Randomized counting-kernel soundness sweep
#
# Every fact the kernel admits on a randomized finite-domain instance is
# re-checked numerically: count symbols are interpreted by brute_count over
# the instance's domain and the admitted axiom must evaluate to true.

SWEEP_DOMAIN = ScalarDomain(tuple(range(-2, 12)))
SWEEP_QUANT = (-2, 8)


@dataclass
class CountedSet:
    body: object
    counted: tuple[str, ...]
    params: tuple[str, ...]


def declare(decls, registry, name, variables, counted, body_text):
    env = {n: s for n, s in variables}
    binders = " ".join(f"({n} Int)" for n, _ in variables)
    decls.append(f"(declare-pred {name} ({binders}) (counted {' '.join(counted)}) {body_text})")
    params = tuple(n for n, _ in variables if n not in counted)
    registry[name] = CountedSet(term_from_text(body_text, env), tuple(counted), params)


def sweep_count(entry, args=()):
    return brute_count(
        entry.body,
        {c: SWEEP_DOMAIN for c in entry.counted},
        dict(zip(entry.params, args)),
        quant_lo=SWEEP_QUANT[0],
        quant_hi=SWEEP_QUANT[1],
    )


def validate_facts(registry, facts):
    funcs = {
        f"cnt.{name}": (lambda *args, e=entry: sweep_count(e, args))
        for name, entry in registry.items()
    }
    for fact in facts:
        holds = eval_term(fact.axiom, {}, *SWEEP_QUANT, funcs=funcs)
        assert holds is True, f"admitted {fact.rule} fact violated numerically"


def parse_apps(decls, *apps):
    """The script that declares ``decls`` and applies ``apps`` in one step."""
    return parse_proof(f"(proof {' '.join(decls)} (step 1 {' '.join(apps)}))")


def scenario_range(rng, decls, registry):
    lo = rng.randint(0, 3)
    declare(decls, registry, "R", [("v", INT), ("k", INT)], ["v"],
            f"(and (<= {lo} v) (< v k))")
    return ["(range R)", "(positive R)"]


def scenario_const_bounds(rng, decls, registry):
    points = rng.sample(range(0, 9), rng.randint(1, 4))
    eqs = " ".join(f"(= v {p})" for p in points)
    body = f"(or {eqs})" if len(points) > 1 else eqs
    declare(decls, registry, "S", [("v", INT)], ["v"], body)
    models = " ".join(f"(model (v {p}))" for p in points)
    return [f"(const-lb S {len(points)} {models})", f"(const-ub S {len(points) + 1})"]


def scenario_subset(rng, decls, registry):
    g_lo = rng.randint(0, 3)
    g_hi = g_lo + rng.randint(1, 5)
    f_lo = rng.randint(g_lo, g_hi)
    f_hi = rng.randint(f_lo, g_hi)
    declare(decls, registry, "F", [("v", INT)], ["v"],
            f"(and (<= {f_lo} v) (< v {f_hi}))")
    declare(decls, registry, "G", [("v", INT)], ["v"],
            f"(and (<= {g_lo} v) (< v {g_hi}))")
    return ["(ub F G)"]


def scenario_union(rng, decls, registry):
    a = rng.randint(0, 3)
    b = a + rng.randint(0, 3)
    m = rng.randint(a, b) if b > a else a
    c = rng.randint(b, b + 3)
    declare(decls, registry, "F", [("v", INT)], ["v"],
            f"(and (<= {a} v) (< v {c}))")
    declare(decls, registry, "G", [("v", INT)], ["v"],
            f"(and (<= {a} v) (< v {b}))")
    declare(decls, registry, "H", [("v", INT)], ["v"],
            f"(and (<= {m} v) (< v {c}))")
    registry["G&H"] = CountedSet(
        And((registry["G"].body, registry["H"].body)), ("v",), ()
    )
    return ["(or F G H)"]


def scenario_product(rng, decls, registry):
    v_lo, w_lo = rng.randint(0, 3), rng.randint(0, 3)
    v_hi = v_lo + rng.randint(0, 3)
    w_hi = w_lo + rng.randint(0, 3)
    fv = f"(and (<= {v_lo} v) (< v {v_hi}))"
    gw = f"(and (<= {w_lo} w) (< w {w_hi}))"
    declare(decls, registry, "P", [("v", INT), ("w", INT)], ["v", "w"],
            f"(and {fv} {gw})")
    declare(decls, registry, "F", [("v", INT)], ["v"], fv)
    declare(decls, registry, "G", [("w", INT)], ["w"], gw)
    return ["(disjoint P F G)", "(and-ub P F G)"]


def scenario_injection(rng, decls, registry):
    m = rng.randint(1, 4)
    stride = rng.randint(1, 3)
    shift = rng.randint(0, 3)
    declare(decls, registry, "F", [("v", INT)], ["v"], f"(and (<= 0 v) (< v {m}))")
    declare(decls, registry, "G", [("w", INT)], ["w"],
            f"(and (<= 0 w) (< w {shift + stride * (m - 1) + 1}))")
    return [f"(injective F G (witness (w (+ (* {stride} v) {shift}))))"]


SCENARIOS = (
    scenario_range,
    scenario_const_bounds,
    scenario_subset,
    scenario_union,
    scenario_product,
    scenario_injection,
)


def test_randomized_kernel_sweep(solver):
    rng = random.Random(20260823)
    validated = 0
    for iteration in range(200):
        decls, registry = [], {}
        scenario = SCENARIOS[iteration % len(SCENARIOS)]
        script = parse_apps(decls, *scenario(rng, decls, registry))
        kernel = Kernel(Session(solver, 10_000), script.signature)
        facts = [apply_rule(kernel, app) for app in script.steps[0].apps]
        assert facts
        validate_facts(registry, facts)
        validated += len(facts)
        if iteration % 10 == 0:
            # a deliberately unsound claim on the same instance must be
            # refused, and numerics must agree that it is unsound
            entry_name = next(n for n in registry if registry[n].counted == ("v",))
            entry = registry[entry_name]
            if not entry.params:
                count = sweep_count(entry)
                before = len(kernel.facts)
                (claim,) = parse_apps(decls, f"(const-lb {entry_name} {count + 1})").steps[0].apps
                with pytest.raises(NotValid):
                    apply_rule(kernel, claim)
                assert len(kernel.facts) == before
    assert validated >= 200


# ---------------------------------------------------------------------------
# 5. Benchmark suite verdicts plus per-benchmark oracle validation


def test_all_benchmarks_verified(suite):
    rows = suite_rows(suite[0])
    assert set(rows) == {
        "electronic-purse",
        "f-y-array-shuffle",
        "password-checker",
        "path-oram",
        "zk-hats",
    }
    for name, row in rows.items():
        assert row["verdict"] == "QHP-verified", f"{name}: {row['verdict']}"


def test_purse_deniability_oracle(benchmarks):
    project = load_project(benchmarks / "electronic-purse")
    for decr in (2, 5):
        inst = FiniteInstance(
            system=project.system,
            domains={
                "bal": ScalarDomain(tuple(range(0, 6 * decr + 1))),
                "st": ScalarDomain(tuple(range(0, 2 * decr + 1))),
                "q": ScalarDomain(tuple(range(0, 7))),
                "rs": ScalarDomain(tuple(range(0, decr))),
            },
            params={"dc": decr},
            depth=2 * decr,
            deterministic=True,
        )
        traces = enumerate_traces(inst)
        classes = count_equivalence_classes(inst, project.prop, traces[0], traces)
        assert isinstance(classes, int) and classes >= decr


# Deterministic refinement of the password checker: the attacker enumerates
# every candidate password (the guess at time t is the binary encoding of t),
# so bounded traces settle and the observed class counts are exact. Any
# attacker refinement can only shrink the class count, so staying within the
# 2^n - 1 bound is what the leq property promises.
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


def test_password_leakage_oracle(benchmarks):
    system = parse_system(PASSWORD_EXHAUSTIVE_ATTACKER)
    prop = parse_property(
        (benchmarks / "password-checker" / "property.sexp").read_text(), system
    )
    for n in (1, 2, 3):
        guesses = 2**n - 1
        inst = FiniteInstance(
            system=system,
            domains={
                "pwd": ArrayDomain(1, n, (0, 1)),
                "inp": ArrayDomain(1, n, (0, 1)),
                "ok": ScalarDomain((False, True)),
                "t": ScalarDomain(tuple(range(0, guesses + 1))),
            },
            params={"n": n, "m": guesses},
            depth=guesses + 2,
            deterministic=True,
            quant_lo=-1,
            quant_hi=n + 2,
        )
        traces = enumerate_traces(inst)
        pivot = next(
            t
            for t in traces
            if all(t.states[0]["pwd"].get(j) == 0 for j in range(1, n + 1))
        )
        classes = count_equivalence_classes(inst, prop, pivot, traces)
        assert isinstance(classes, int) and classes <= 2**n - 1


def test_shuffle_permutation_oracle(benchmarks):
    project = load_project(benchmarks / "f-y-array-shuffle")
    for n in (2, 3):
        identity = FArray(1, tuple(range(1, n + 1)))
        values = tuple(range(1, n + 1))
        inst = FiniteInstance(
            system=project.system,
            domains={
                "A": ArrayDomain(1, n, values),
                "Ap": ArrayDomain(1, n, values),
                "P": ArrayDomain(1, n, values),
                "Q": ArrayDomain(1, n, values),
                "i": ScalarDomain(tuple(range(0, n + 1))),
                "r": ScalarDomain(tuple(range(0, n + 1))),
            },
            params={"n": n},
            depth=n + 1,
            init_fix={
                "A": identity,
                "Ap": identity,
                "P": identity,
                "Q": identity,
                "i": 0,
                "r": 0,
            },
            quant_lo=0,
            quant_hi=n + 1,
        )
        # from a pinned input, traces are exactly the random-choice sequences
        traces = enumerate_traces(inst)
        assert len(traces) == math.factorial(n)
        outputs = {
            tuple(t.states[-1]["Ap"].get(j) for j in range(1, n + 1)) for t in traces
        }
        assert len(outputs) == math.factorial(n)


# ---------------------------------------------------------------------------
# 6. Path ORAM: symbolic bundle plus derangement combinatorics
#
# The unbounded-size deniability claim is established by the symbolic
# verification-condition suite alone; exhaustive enumeration of the full
# ORAM model is infeasible and only the derangement combinatorics are
# validated at toy sizes.


def test_path_oram_symbolic_bundle_discharged(suite):
    report = suite_reports(suite[0])["path-oram"]
    assert report["verdict"] == "QHP-verified"
    bundles = report["stages"]["enumeration"]["bundles"]
    assert bundles, "no enumeration bundles recorded"
    for bundle in bundles:
        assert bundle["established"]
        for obligation in bundle["obligations"]:
            assert obligation["status"] == "proved", obligation


def test_path_oram_derangement_counts(benchmarks):
    project = load_project(benchmarks / "path-oram")
    valid = retag_free(project.witness.valid, {indexed(1): PLAIN})
    expected = {3: 2, 4: 9}
    for blocks, derangements in expected.items():
        domain = ArrayDomain(1, blocks, tuple(range(1, blocks + 1)))
        count = brute_count(
            valid,
            {"Y": domain, "W": domain},
            {"nb": blocks},
            quant_lo=0,
            quant_hi=blocks + 1,
        )
        assert count == derangements
        assert count >= math.factorial(blocks - 1)


# ---------------------------------------------------------------------------
# 7. Determinism of the generated reports


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "wall_ms"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def test_reports_identical_across_runs(suite):
    normalized = [
        json.dumps(strip_timing(json.loads(text)), indent=2, sort_keys=True)
        for text in suite
    ]
    assert normalized[0].encode() == normalized[1].encode()
