"""The query stream of ``verify``, pinned offline.

A stub solver answers ``unsat`` to every query that sets ``smt.mbqi`` (the
validity queries) and ``sat`` with an empty model to the rest (the model
searches of ``const-lb``). That drives every shipped project to
``QHP-verified``, so the debug files of one run name and hold every query the
pipeline sends: enumeration obligations, counting-rule premises, the goal and
the link. The stub stands in for the plumbing only, never for what z3 answers.
"""

import hashlib
import json

import pytest

from qhenum.backend import Session
from qhenum.cli import main
from qhenum.counting import check_script, parse_proof


@pytest.fixture
def split_stub(case_solver):
    return case_solver("smt.mbqi", "unsat", "sat\n(model)")


def read_stream(debug_dir):
    """Labels in send order, and one sha256 over the texts in label order."""
    names = sorted(p.name for p in debug_dir.glob("*.smt2"))
    assert [int(n[:3]) for n in names] == list(range(1, len(names) + 1))
    labels = [n[4:-len(".smt2")] for n in names]
    assert len(set(labels)) == len(labels)
    texts = {label: (debug_dir / name).read_text() for label, name in zip(labels, names)}
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
        "8e48a7cad5c452e257dcb2393fd25fc551d4743ef7750a93b3ae1e7784091e27",
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
        "a5a06c68d3a747f39a1ba0aab456fb1393a01d2a043a243f98e99e7f47bfdd14",
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
        "0f739f650c7bfffaaff7df91942f3e7c953947eceaffbc639b2006d9fe2b772a",
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
        "59c997497f8d094a6cd23626812c15de470a811cd1ab704e86e711720bed239e",
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
        "85ba07ea095d6a5b71acddb36d8c0eeb64d4ac8890ba7ab2731033bfd0a69939",
    ),
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_verify_query_stream_is_pinned(name, benchmarks, split_stub, tmp_path, capsys):
    debug = tmp_path / "debug"
    code = main(["verify", str(benchmarks / name), "--solver", split_stub[0],
                 "--debug-dir", str(debug)])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["verdict"]) == (0, "QHP-verified")
    parallel, ordered, digest = STREAMS[name]
    labels, actual = read_stream(debug)
    assert sorted(labels[: len(parallel)]) == sorted(parallel)
    assert labels[len(parallel):] == list(ordered)
    assert actual == digest


# The rules that no shipped proof uses, one application each.
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
  (step 5 (const-lb P 1))
  (goal (<= cnt.F cnt.G)))
"""


def test_unshipped_rules_query_stream_is_pinned(split_stub, tmp_path):
    debug = tmp_path / "debug"
    result = check_script(parse_proof(RULE_SCRIPT), Session(split_stub, 20_000, debug))
    assert [f.rule for f in result.facts] == [
        "ub", "disjoint", "and-ub", "injectivity", "const-lb", "const-lb",
    ]
    labels, digest = read_stream(debug)
    assert labels == [
        "ub(F,G)",
        "disjoint(H,F,W)",
        "and-ub(H,F,W)",
        "injective(F,G)_into",
        "injective(F,G)_inj",
        "const-lb(F,2)",
        "const-lb(P,1)",
        "goal",
    ]
    assert digest == "dc6b4b492d5057f7030bbb246343dfc7acce8358ab20a956e9a6a8fca3f1c21a"
