import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from qhenum.backend import (
    OBLIGATION_LOGIC,
    VALIDITY_OPTIONS,
    Obligation,
    Session,
    build_query,
    emit,
)
from qhenum.cli import load_project
from qhenum.enumeration import (
    _psi,
    AtIndex,
    MissingWitness,
    VcBundle,
    discharge,
    gen_injective_vcs,
    gen_surjective_vcs,
    parse_enumeration,
)
from qhenum.qhl import parse_property
from qhenum.sexpr import SexprError
from qhenum.system import parse_system
from qhenum.terms import INT, Cmp, IntLit, Var

SYSTEM = """
(system chooser
  (vars (c Int) (o Int))
  (init (and (<= 0 c) (< c 2) (= o c)))
  (tx (and (= c! c) (= o! o))))
"""

PROP = """
(qhp (forall t0)
     (count t1
       :diff (finally (not (= o$1 o$2)))
       :body (globally (= c$2 c$2))
       :cmp eq
       :bound 2))
"""

WITNESS = """
(enumeration
  (enum-vars (Y Int))
  (valid (and (<= 0 Y) (< Y 2)))
  (trel (and (= c$2 Y) (= o$2 Y)))
  (skolem-init (c Y) (o Y))
  (skolem-step (c Y) (o Y))
  (cover (Y o$2)))
"""


@pytest.fixture(scope="module")
def system():
    return parse_system(SYSTEM)


@pytest.fixture(scope="module")
def prop(system):
    return parse_property(PROP, system)


@pytest.fixture(scope="module")
def witness(system):
    return parse_enumeration(WITNESS, system)


def test_parse_enumeration(witness):
    assert [n for n, _ in witness.enum_vars] == ["Y"]
    assert witness.diff_mode is None
    assert witness.strengthening == ()


def test_parse_enumeration_requires_core_sections(system):
    with pytest.raises(SexprError):
        parse_enumeration("(enumeration (enum-vars (Y Int)) (valid true))", system)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("(valid (and (<= 0 Y) (< Y 2)))", "(valid Y)", "valid has sort Int, not Bool"),
        ("(cover (Y o$2))", "(cover (Y (< o$2 1)))", "cover Y has sort Bool, not Int"),
        ("(cover (Y o$2))", "(cover (Z o$2))", "cover: Z is not an enumeration variable"),
        ("(skolem-init (c Y)", "(skolem-init (z Y) (c Y)",
         "skolem-init: z is not a state variable"),
        ("(skolem-step (c Y)", "(skolem-step (c (pointwise (j) Y))",
         "skolem-step c is Int, not an array over Int"),
        ("(cover (Y o$2))", "(cover (Y o$2)) (diff-at-index (counter k) (target 1))",
         "diff-at-index: counter k is not a state variable"),
        ("(cover (Y o$2))", "(cover (Y o$2)) (diff-at-index (counter c) (target true))",
         "target has sort Bool, not Int"),
    ],
    ids=["valid", "cover", "stray-cover", "stray-skolem", "pointwise-scalar", "counter",
         "target"],
)
def test_parse_enumeration_reads_each_term_at_its_sort(system, old, new, message):
    assert old in WITNESS
    with pytest.raises(SexprError) as err:
        parse_enumeration(WITNESS.replace(old, new), system)
    assert str(err.value) == message


def test_psi_of_copies_one_and_two_is_the_body_itself(prop):
    # an identity mapping returns the body itself, with its SMT-LIB text cached
    assert _psi(prop, 1, 2) is prop.body


def test_missing_skolem_entry(system, prop):
    text = WITNESS.replace("(skolem-init (c Y) (o Y))", "(skolem-init (c Y))")
    witness = parse_enumeration(text, system)
    with pytest.raises(MissingWitness):
        gen_injective_vcs(system, prop, witness)


def test_missing_cover_entry(system, prop):
    text = WITNESS.replace("(cover (Y o$2))", "")
    witness = parse_enumeration(text, system)
    with pytest.raises(MissingWitness):
        gen_surjective_vcs(system, prop, witness)


def test_injective_bundle_labels(system, prop, witness):
    bundle = gen_injective_vcs(system, prop, witness)
    labels = [ob.label for ob in bundle.obligations]
    assert labels == [
        "totality-of-witness",
        "existence-base/init",
        "existence-base/rel",
        "existence-step/tx",
        "existence-step/rel",
        "existence-step/psi",
        "distinctness",
    ]
    assert bundle.obligations[0].syntactic


def test_surjective_bundle_labels(system, prop, witness):
    bundle = gen_surjective_vcs(system, prop, witness)
    labels = [ob.label for ob in bundle.obligations]
    assert labels == [
        "totality-of-witness",
        "surj-cover-base",
        "surj-cover-step",
        "surj-distinct/base",
        "surj-distinct/step",
    ]


def test_strengthening_adds_prerequisites(system, prop):
    text = WITNESS.replace(
        "(cover (Y o$2)))", "(cover (Y o$2)) (strengthen (= o c)))"
    )
    witness = parse_enumeration(text, system)
    labels = [ob.label for ob in gen_injective_vcs(system, prop, witness).obligations]
    assert "existence-base/inv-init" in labels
    assert "existence-step/inv-preservation" in labels


def test_at_index_mode_labels(system, prop):
    text = WITNESS.replace(
        "(cover (Y o$2)))",
        "(cover (Y o$2)) (diff-at-index (counter c) (target 1)))",
    )
    witness = parse_enumeration(text, system)
    assert isinstance(witness.diff_mode, AtIndex)
    assert witness.diff_mode.counter == "c"
    labels = [ob.label for ob in gen_injective_vcs(system, prop, witness).obligations]
    assert "distinctness/lockstep" in labels
    assert "distinctness/progress" in labels
    assert "distinctness/arrival" in labels


def test_both_bundles_discharge(system, prop, witness, solver):
    for gen in (gen_injective_vcs, gen_surjective_vcs):
        bundle = gen(system, prop, witness)
        report = discharge(bundle, Session(solver, 20_000))
        assert report.established, [
            (r.label, r.status) for r in report.results if r.status != "proved"
        ]


def test_bad_skolem_fails_existence(system, prop, solver):
    text = WITNESS.replace("(skolem-init (c Y) (o Y))", "(skolem-init (c 0) (o 0))")
    witness = parse_enumeration(text, system)
    report = discharge(gen_injective_vcs(system, prop, witness), Session(solver, 20_000))
    failed = {r.label for r in report.results if r.status == "failed"}
    assert "existence-base/rel" in failed
    assert not report.established


def test_collapsing_trel_fails_distinctness(system, prop, solver):
    text = WITNESS.replace("(trel (and (= c$2 Y) (= o$2 Y)))", "(trel (= o$2 0))")
    witness = parse_enumeration(text, system)
    report = discharge(gen_injective_vcs(system, prop, witness), Session(solver, 20_000))
    statuses = {r.label: r.status for r in report.results}
    assert statuses["distinctness"] == "failed"


def test_corrupted_cover_fails_surjectivity(system, prop, solver):
    text = WITNESS.replace("(cover (Y o$2))", "(cover (Y 0))")
    witness = parse_enumeration(text, system)
    report = discharge(gen_surjective_vcs(system, prop, witness), Session(solver, 20_000))
    statuses = {r.label: r.status for r in report.results}
    assert statuses["surj-cover-base"] == "failed"
    assert not report.established


def test_discharge_shares_one_debug_numbering(stub_solver, tmp_path):
    # many short queries on 8 threads, with the interpreter switching threads
    # as often as it can, must still take the numbers 1..N once each
    timeout_ms = 5000
    obligations = tuple(
        Obligation(f"stress/{i:02d}", (Cmp("<", Var(f"x{i}", INT), IntLit(i)),))
        for i in range(24)
    )
    debug = tmp_path / "debug"
    session = Session(stub_solver("unsat"), timeout_ms, debug)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=1) as runner:
            report = runner.submit(
                discharge, VcBundle("injective", obligations), session
            ).result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert report.established
    assert not [p for p in debug.iterdir() if p.is_dir()]
    files = sorted(debug.glob("*.smt2"))
    assert sorted(int(p.name[:3]) for p in files) == list(range(1, len(obligations) + 1))
    by_label = {p.name[4:-len(".smt2")]: p for p in files}
    assert sorted(by_label) == sorted(ob.label.replace("/", "_") for ob in obligations)
    for ob in obligations:
        sent = by_label[ob.label.replace("/", "_")].read_text()
        assert sent == emit(
            build_query(
                ob.assertions,
                logic=OBLIGATION_LOGIC,
                options=VALIDITY_OPTIONS,
                timeout_ms=timeout_ms,
                get_model=True,
            )
        )


BUNDLE_GENERATORS = {
    "geq": (gen_injective_vcs,),
    "leq": (gen_surjective_vcs,),
    "eq": (gen_injective_vcs, gen_surjective_vcs),
}


@pytest.mark.parametrize(
    "name",
    ["electronic-purse", "f-y-array-shuffle", "password-checker", "path-oram", "zk-hats"],
)
def test_bundle_builds_each_assertion_once(benchmarks, name):
    """Value-equal assertions of one bundle are one object, so each is
    rendered once however many obligations carry it."""
    project = load_project(benchmarks / name)
    for gen in BUNDLE_GENERATORS[project.prop.cmp]:
        bundle = gen(project.system, project.prop, project.witness)
        first: dict = {}
        for ob in bundle.obligations:
            for term in ob.assertions:
                kept = first.setdefault(term, term)
                assert kept is term, f"{bundle.kind} {ob.label}: a second copy of an assertion"
