"""The package's immutable records behave as frozen dataclasses do: equality
by class and fields, a hash of the fields, the ``Name(field=value, ...)``
repr that error messages embed, no assignment, and copies and pickles that
round-trip."""

import copy
import pickle
import re
import weakref

import pytest

from qhenum.backend import VALIDITY, Answer, Obligation, Query, Verdict
from qhenum.cli import OracleSetup, Project
from qhenum.counting import CountFact, CountTerm, ProofScript, ProofStep, Rule, RuleApp, ScriptResult
from qhenum.enumeration import AtIndex, DischargeReport, EnumerationWitness, Pointwise, VcBundle
from qhenum.oracle import ArrayDomain, BoundedTrace, FArray, FiniteInstance, ScalarDomain
from qhenum.qhl import QhlError, QhpProperty, WellDefinedResult
from qhenum.system import TransitionSystem
from qhenum.terms import (
    BOOL,
    INT,
    Add,
    And,
    App,
    ArraySort,
    BoolLit,
    BoolSort,
    Cmp,
    ConstArray,
    Distinct,
    Div,
    Exists,
    Forall,
    Implies,
    IntLit,
    IntSort,
    Ite,
    Mod,
    Mul,
    Neg,
    Not,
    Or,
    Quant,
    Select,
    Signature,
    Sort,
    Store,
    Sub,
    Term,
    Var,
)

# fresh objects: the package's TRUE and FALSE may carry what other tests cached
ONE, TWO, YES, NO = IntLit(1), IntLit(2), BoolLit(True), BoolLit(False)
ZEROS = ConstArray(IntLit(0))
ONE_TEXT, TWO_TEXT = "IntLit(value=1)", "IntLit(value=2)"
ZEROS_TEXT = "ConstArray(value=IntLit(value=0), sort=ArraySort(index=IntSort(), element=IntSort()))"
# a property's predicates, over copies 1 and 2
SAME = Cmp("=", Var("x", INT, 1), Var("x", INT, 2))
SAME_TEXT = (
    "Cmp(op='=', left=Var(name='x', sort=IntSort(), copy=1, primed=False), "
    "right=Var(name='x', sort=IntSort(), copy=2, primed=False))"
)

# each record class: a function that builds an instance, and its repr
RECORDS = {
    Sort: (lambda: Sort(), "Sort()"),
    BoolSort: (lambda: BoolSort(), "BoolSort()"),
    IntSort: (lambda: IntSort(), "IntSort()"),
    ArraySort: (lambda: ArraySort(INT, BOOL), "ArraySort(index=IntSort(), element=BoolSort())"),
    Signature: (
        lambda: Signature((("f", (INT,), BOOL),)),
        "Signature(functions=(('f', (IntSort(),), BoolSort()),))",
    ),
    Term: (lambda: Term(), "Term()"),
    Var: (lambda: Var("x", INT, 1, True), "Var(name='x', sort=IntSort(), copy=1, primed=True)"),
    IntLit: (lambda: IntLit(-3), "IntLit(value=-3)"),
    BoolLit: (lambda: BoolLit(True), "BoolLit(value=True)"),
    App: (lambda: App("f", (ONE,)), f"App(func='f', args=({ONE_TEXT},))"),
    Add: (lambda: Add((ONE, TWO)), f"Add(args=({ONE_TEXT}, {TWO_TEXT}))"),
    Sub: (lambda: Sub(ONE, TWO), f"Sub(left={ONE_TEXT}, right={TWO_TEXT})"),
    Neg: (lambda: Neg(ONE), f"Neg(operand={ONE_TEXT})"),
    Mul: (lambda: Mul(ONE, TWO), f"Mul(left={ONE_TEXT}, right={TWO_TEXT})"),
    Div: (lambda: Div(ONE, TWO), f"Div(left={ONE_TEXT}, right={TWO_TEXT})"),
    Mod: (lambda: Mod(ONE, TWO), f"Mod(left={ONE_TEXT}, right={TWO_TEXT})"),
    Cmp: (lambda: Cmp("<=", ONE, TWO), f"Cmp(op='<=', left={ONE_TEXT}, right={TWO_TEXT})"),
    Distinct: (lambda: Distinct((ONE, TWO)), f"Distinct(args=({ONE_TEXT}, {TWO_TEXT}))"),
    Not: (lambda: Not(YES), "Not(operand=BoolLit(value=True))"),
    And: (lambda: And((YES, NO)), "And(args=(BoolLit(value=True), BoolLit(value=False)))"),
    Or: (lambda: Or((YES, NO)), "Or(args=(BoolLit(value=True), BoolLit(value=False)))"),
    Implies: (
        lambda: Implies(YES, NO),
        "Implies(left=BoolLit(value=True), right=BoolLit(value=False))",
    ),
    Ite: (
        lambda: Ite(YES, ONE, TWO),
        f"Ite(cond=BoolLit(value=True), then={ONE_TEXT}, other={TWO_TEXT})",
    ),
    Select: (lambda: Select(ZEROS, ONE), f"Select(array={ZEROS_TEXT}, index={ONE_TEXT})"),
    Store: (
        lambda: Store(ZEROS, ONE, TWO),
        f"Store(array={ZEROS_TEXT}, index={ONE_TEXT}, value={TWO_TEXT})",
    ),
    ConstArray: (lambda: ConstArray(IntLit(0)), ZEROS_TEXT),
    Quant: (
        lambda: Quant((("j", INT),), YES),
        "Quant(bound=(('j', IntSort()),), body=BoolLit(value=True))",
    ),
    Forall: (
        lambda: Forall((("j", INT),), YES),
        "Forall(bound=(('j', IntSort()),), body=BoolLit(value=True))",
    ),
    Exists: (
        lambda: Exists((("j", INT),), YES),
        "Exists(bound=(('j', IntSort()),), body=BoolLit(value=True))",
    ),
    Verdict: (
        lambda: Verdict("sat", (("x", "1"),)),
        "Verdict(status='sat', model=(('x', '1'),), wall_ms=0, transcript='')",
    ),
    Answer: (
        lambda: Answer("goal", "proved", 5),
        "Answer(label='goal', status='proved', wall_ms=5, model=None)",
    ),
    Project: (
        lambda: Project("dir", "system", "prop", "witness", "script", "V", None, 100, None, {"system": 3}),
        "Project(directory='dir', system='system', prop='prop', witness='witness', "
        "script='script', valid_pred='V', solver=None, timeout_ms=100, debug_dir=None, "
        "lines={'system': 3})",
    ),
    OracleSetup: (
        lambda: OracleSetup("project", "instance", {"x": ScalarDomain((0, 1))}),
        "OracleSetup(project='project', instance='instance', "
        "count_domains={'x': ScalarDomain(values=(0, 1))})",
    ),
    CountTerm: (
        lambda: CountTerm("P", YES, (ONE,), (), ()),
        f"CountTerm(name='P', body=BoolLit(value=True), counted=({ONE_TEXT},), params=(), "
        "args=(), bindings=())",
    ),
    CountFact: (
        lambda: CountFact(YES, "range", "step 1"),
        "CountFact(axiom=BoolLit(value=True), rule='range', label='step 1')",
    ),
    RuleApp: (lambda: RuleApp("range", ("P",)), "RuleApp(rule='range', args=('P',))"),
    ProofStep: (
        lambda: ProofStep(1, (RuleApp("range", ("P",)),)),
        "ProofStep(index=1, apps=(RuleApp(rule='range', args=('P',)),))",
    ),
    ProofScript: (
        lambda: ProofScript({}, (), None, Signature()),
        "ProofScript(counts={}, steps=(), goal=None, signature=Signature(functions=()))",
    ),
    Rule: (lambda: Rule(len, max), "Rule(parse=<built-in function len>, build=<built-in function max>)"),
    Pointwise: (lambda: Pointwise("j", ONE), f"Pointwise(index='j', body={ONE_TEXT})"),
    AtIndex: (lambda: AtIndex("t", TWO), f"AtIndex(counter='t', target={TWO_TEXT})"),
    EnumerationWitness: (
        lambda: EnumerationWitness((("e", INT),), YES, NO, (), ()),
        "EnumerationWitness(enum_vars=(('e', IntSort()),), valid=BoolLit(value=True), "
        "trel=BoolLit(value=False), skolem_init=(), skolem_step=(), strengthening=(), cover=(), "
        "diff_mode=None)",
    ),
    VcBundle: (lambda: VcBundle("injective", ()), "VcBundle(kind='injective', obligations=())"),
    DischargeReport: (
        lambda: DischargeReport("injective", (), True, 7),
        "DischargeReport(kind='injective', results=(), established=True, wall_ms=7)",
    ),
    ScalarDomain: (lambda: ScalarDomain((0, 1)), "ScalarDomain(values=(0, 1))"),
    ArrayDomain: (lambda: ArrayDomain(0, 1, (0, 1)), "ArrayDomain(lo=0, hi=1, values=(0, 1), default=0)"),
    BoundedTrace: (lambda: BoundedTrace(({"x": 1},)), "BoundedTrace(states=({'x': 1},))"),
    FiniteInstance: (
        lambda: FiniteInstance(TransitionSystem("s", (("x", INT),), ("x",), YES, NO), {}, {"x": 0}, 1),
        "FiniteInstance(system=TransitionSystem(name='s', state_vars=(('x', IntSort()),), "
        "params=('x',), init=BoolLit(value=True), tx=BoolLit(value=False)), domains={}, "
        "params={'x': 0}, depth=1, deterministic=False, quant_lo=-2, quant_hi=8, cap=1000000, "
        "init_fix={})",
    ),
    WellDefinedResult: (lambda: WellDefinedResult(True), "WellDefinedResult(ok=True, reason='')"),
    FArray: (lambda: FArray(1, (5, 6), 0), "FArray(lo=1, vals=(5, 6), default=0)"),
    ScriptResult: (
        lambda: ScriptResult("rejected", "step 1", "why", ()),
        "ScriptResult(status='rejected', rejected_at='step 1', reason='why', facts=())",
    ),
    Query: (
        lambda: Query(("(f x)",), "ALL", (), (("f", (INT,), BOOL),), (("x", INT),), 5, True),
        "Query(assertions=('(f x)',), logic='ALL', options=(), functions=(('f', (IntSort(),), "
        "BoolSort()),), consts=(('x', IntSort()),), timeout_ms=5, get_model=True)",
    ),
    Obligation: (
        lambda: Obligation("goal", (YES,), "sat", (), True, "why"),
        "Obligation(label='goal', assertions=(BoolLit(value=True),), needs='sat', attempts=(), "
        "syntactic=True, failure='why')",
    ),
    TransitionSystem: (
        lambda: TransitionSystem("s", (("x", INT),), ("x",), YES, NO),
        "TransitionSystem(name='s', state_vars=(('x', IntSort()),), params=('x',), "
        "init=BoolLit(value=True), tx=BoolLit(value=False))",
    ),
    QhpProperty: (
        lambda: QhpProperty(Not(SAME), SAME, "leq", TWO, YES),
        f"QhpProperty(diff=Not(operand={SAME_TEXT}), body={SAME_TEXT}, cmp='leq', bound={TWO_TEXT}, "
        "assuming=BoolLit(value=True))",
    ),
}
# records with a dict among their fields hash as a tuple holding a dict does
UNHASHABLE = {Project, OracleSetup, ProofScript, BoundedTrace, FiniteInstance}
CLASSES = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


@CLASSES
def test_equal_fields_give_equal_records(cls):
    build, _ = RECORDS[cls]
    first, second = build(), build()
    assert type(first) is cls and first is not second
    assert first == second and not first != second
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


@CLASSES
def test_repr_names_every_field(cls):
    build, text = RECORDS[cls]
    assert repr(build()) == text


@CLASSES
def test_records_cannot_be_changed(cls):
    record = RECORDS[cls][0]()
    for name in [*vars(record), "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == RECORDS[cls][1]


@CLASSES
def test_copies_and_pickles_round_trip(cls):
    record = RECORDS[cls][0]()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and repr(twin) == repr(record)


@pytest.mark.parametrize(
    "first, second",
    [
        (Sub(ONE, TWO), Mul(ONE, TWO)),
        (And((YES, NO)), Or((YES, NO))),
        (Forall((("j", INT),), YES), Exists((("j", INT),), YES)),
        (Not(YES), Neg(YES)),
        (BoolSort(), IntSort()),
    ],
    ids=lambda record: type(record).__name__,
)
def test_kinds_with_the_same_fields_differ(first, second):
    assert first != second and second != first
    assert len({first, second}) == 2


def test_defaults():
    assert Var("x", INT) == Var("x", INT, None, False)
    assert repr(Var("x", INT)) == "Var(name='x', sort=IntSort(), copy=None, primed=False)"
    assert ConstArray(ONE).sort == ArraySort(INT, INT)
    assert ConstArray(ONE) == ConstArray(ONE, ArraySort(INT, INT))
    assert Signature() == Signature(())


def test_cached_properties_and_weak_references():
    term = Add((ONE, TWO))
    assert term.smt[0] == "(+ 1 2)" and term.smt is term.smt
    term.memo["key"] = 1
    assert term.memo == {"key": 1}
    assert term == Add((ONE, TWO))  # cached values are not fields
    ref = weakref.ref(term)
    del term
    assert ref() is None


def test_records_of_more_than_four_fields_take_fields_by_name():
    full = Obligation("goal", (YES,), "unsat", VALIDITY, False, "why")
    assert Obligation("goal", (YES,), failure="why") == full
    assert Obligation(failure="why", assertions=(YES,), label="goal") == full
    with pytest.raises(TypeError, match=r"Obligation\(\) has no field 'reason'"):
        Obligation("goal", (YES,), reason="why")
    with pytest.raises(TypeError, match=r"Obligation\(\) got field 'label' twice"):
        Obligation("goal", (YES,), label="goal")
    with pytest.raises(TypeError, match=r"Obligation\(\) missing field 'assertions'"):
        Obligation("goal", failure="why")


def test_replace_changes_the_named_fields():
    system = TransitionSystem("s", (("x", INT),), ("x",), YES, NO)
    assert system._replace(tx=YES, name="t") == TransitionSystem("t", (("x", INT),), ("x",), YES, YES)
    assert system._replace() == system and system.tx == NO
    assert Var("x", INT)._replace(copy=1) == Var("x", INT, 1)
    with pytest.raises(TypeError, match=r"TransitionSystem\(\) has no field 'sort'"):
        system._replace(sort=INT)
    with pytest.raises(TypeError, match="'size'"):
        Var("x", INT)._replace(sort=INT, size=1)


@pytest.mark.parametrize("stray", [Var("x", INT, 1, True), Var("x", INT, 3)], ids=repr)
def test_property_refuses_a_variable_outside_copies_1_and_2(stray):
    prop = RECORDS[QhpProperty][0]()
    wrong = Cmp("=", Var("x", INT, 1), stray)
    with pytest.raises(QhlError, match=rf"body mentions {re.escape(stray.mangled)} outside copies 1 and 2"):
        QhpProperty(diff=Not(SAME), body=wrong, cmp="leq", bound=TWO)
    with pytest.raises(QhlError, match=rf"diff mentions {re.escape(stray.mangled)} outside copies 1 and 2"):
        prop._replace(diff=wrong)
