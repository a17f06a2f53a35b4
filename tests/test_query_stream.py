"""The query stream of ``verify``, pinned offline.

A stub solver answers ``unsat`` to every query. Every query is a validity
query (only ``unsat`` proves), so that drives every shipped project to
``QHP-verified``, and the debug files of one run name and hold every query the
pipeline sends: enumeration obligations, counting-rule premises, the goal and
the link. The stub stands in for the plumbing only, never for what z3 answers.
"""

import hashlib
import json

import pytest

from qhenum.backend import Session
from qhenum.cli import main
from qhenum.counting import check_script, parse_proof


def read_stream(debug_dir):
    """Labels in send order, and one sha256 over the texts in label order;
    every query sets ``smt.mbqi``."""
    names = sorted(p.name for p in debug_dir.glob("*.smt2"))
    assert [int(n[:3]) for n in names] == list(range(1, len(names) + 1))
    labels = [n[4:-len(".smt2")] for n in names]
    assert len(set(labels)) == len(labels)
    texts = {label: (debug_dir / name).read_text() for label, name in zip(labels, names)}
    assert all("(set-option :smt.mbqi " in text for text in texts.values())
    digest = hashlib.sha256("".join(texts[k] for k in sorted(texts)).encode()).hexdigest()
    return labels, digest


ENUMERATION_QUERIES = (
    "existence-base_inv-init",
    "existence-step_inv-preservation",
    "existence-base_init",
    "existence-base_rel",
    "existence-step_tx",
    "existence-step_rel",
    "existence-step_psi",
)

# per project: the enumeration queries (sent in parallel, so in any order)
# and the queries after them (sent one at a time, in this order)
STREAMS = {
    "electronic-purse": (
        (*ENUMERATION_QUERIES, "distinctness"),
        ("goal", "link"),
        "ed145dc57e8e5966abc6cbe93b9b6f0f600f189b6fd9f090c27109c540f23b77",
    ),
    "f-y-array-shuffle": (
        (
            *ENUMERATION_QUERIES,
            "distinctness_lockstep",
            "distinctness_progress",
            "distinctness_arrival",
        ),
        (
            "const-lb(S,1)",
            "const-ub(S,2)",
            "ind-geq(S,K)_lift",
            "ind-geq(S,K)_inj",
            "close(S)_base",
            "close(S)_step",
            "close(S)_closed-base",
            "close(S)_closed-step",
            "close(S)_factor-nonneg",
            "close(S)_closed-nonneg",
            "goal",
            "link",
        ),
        "6a045e8e1b6c84a758995e2c138dcf8bc9fbcba0e48af17fa0c3081b4ad290dd",
    ),
    "password-checker": (
        (
            "surj-cover-base_inv-init",
            "surj-cover-step_inv-preservation",
            "surj-cover-base",
            "surj-cover-step",
            "surj-distinct_base",
            "surj-distinct_step",
        ),
        (
            "const-ub(V&V1,1)",
            "or(Vf,V,V1)",
            "const-lb(V1,1)",
            "const-ub(V1,2)",
            "const-lb(Vf,2)",
            "const-ub(Vf,3)",
            "ind-leq(Vf,W)_lower",
            "ind-leq(Vf,W)_inj",
            "ind-geq(Vf,W)_lift",
            "ind-geq(Vf,W)_inj",
            "close(Vf)_base",
            "close(Vf)_step",
            "close(Vf)_closed-base",
            "close(Vf)_closed-step",
            "close(Vf)_factor-nonneg",
            "close(Vf)_closed-nonneg",
            "goal",
            "link",
            "link-bound-nonneg",
        ),
        "ad70c0307ed5557ff3abf32e1e8ec52b6eae26d8d22b2063dc1ec3e7e5d3bd1e",
    ),
    "path-oram": (
        (*ENUMERATION_QUERIES, "distinctness"),
        (
            "const-lb(D,1)",
            "const-ub(D,2)",
            "ind-geq(D,K)_lift",
            "ind-geq(D,K)_inj",
            "close(D)_base",
            "close(D)_step",
            "close(D)_closed-base",
            "close(D)_closed-step",
            "close(D)_factor-nonneg",
            "close(D)_closed-nonneg",
            "goal",
            "link",
        ),
        "56113a5f296c9930c30b6c5873c2e112bc1196ced769f0486a99d3a66cd093ef",
    ),
    "zk-hats": (
        (*ENUMERATION_QUERIES, "distinctness"),
        (
            "const-ub(V&V1,1)",
            "or(Vf,V,V1)",
            "const-lb(V1,1)",
            "const-ub(V1,2)",
            "const-lb(Vf,2)",
            "const-ub(Vf,3)",
            "ind-leq(Vf,W)_lower",
            "ind-leq(Vf,W)_inj",
            "ind-geq(Vf,W)_lift",
            "ind-geq(Vf,W)_inj",
            "close(Vf)_base",
            "close(Vf)_step",
            "close(Vf)_closed-base",
            "close(Vf)_closed-step",
            "close(Vf)_factor-nonneg",
            "close(Vf)_closed-nonneg",
            "goal",
            "link",
        ),
        "2a705a06266a2e2e7aab926a39e638142809348857a0569ef66ac1dd3d7c0710",
    ),
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_verify_query_stream_is_pinned(name, benchmarks, stub_solver, tmp_path, capsys):
    debug = tmp_path / "debug"
    code = main(["verify", str(benchmarks / name), "--solver", stub_solver("unsat")[0],
                 "--debug-dir", str(debug)])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["verdict"]) == (0, "QHP-verified")
    parallel, ordered, digest = STREAMS[name]
    labels, actual = read_stream(debug)
    assert sorted(labels[: len(parallel)]) == sorted(parallel)
    assert labels[len(parallel):] == list(ordered)
    assert actual == digest


# The rules and rule forms that no shipped proof uses, one application each.
RULE_SCRIPT = """
(proof
  (declare-pred F ((v Int)) (counted v) (and (<= 0 v) (< v 2)))
  (declare-pred G ((v Int)) (counted v) (and (<= 0 v) (< v 5)))
  (declare-pred W ((w Int)) (counted w) (and (<= 0 w) (< w 3)))
  (declare-pred H ((v Int) (w Int)) (counted v w)
    (and (and (<= 0 v) (< v 2)) (and (<= 0 w) (< w 3))))
  (declare-pred P ((v Int) (k Int)) (counted v) (or (= v 0) (= v k)))
  (step 1 (ub F G))
  (step 2 (disjoint H F W) (and-ub H F W))
  (step 3 (injective F G (witness (v (* 2 v)))))
  (step 4 (const-lb F 2 (model (v 0)) (model (v 1))))
  (step 5 (const-lb P 1) (const-lb F 1))
  (goal (<= cnt.F cnt.G)))
"""

RULE_SCRIPT_LABELS = (
    "ub(F,G)",
    "disjoint(H,F,W)",
    "and-ub(H,F,W)",
    "injective(F,G)_into",
    "injective(F,G)_inj",
    "const-lb(F,2)",
    "const-lb(P,1)",
    "const-lb(F,1)",
    "goal",
)


def test_unshipped_rules_query_stream_is_pinned(stub_solver, tmp_path):
    debug = tmp_path / "debug"
    result = check_script(parse_proof(RULE_SCRIPT), Session(stub_solver("unsat"), 20_000, debug))
    assert [f.rule for f in result.facts] == [
        "ub", "disjoint", "and-ub", "injectivity", "const-lb", "const-lb", "const-lb",
    ]
    labels, digest = read_stream(debug)
    assert labels == list(RULE_SCRIPT_LABELS)
    assert digest == "0615c3b9f34d7075b4e8bbd4eb5bb32dc341414846e63efac2768d38a3c6911a"
