"""Model-counting proof kernel.

Symbolic model counts are uninterpreted integer functions of the parameters.
Each inference rule is one entry of ``RULES``: a payload dataclass, the parser
of its s-expression form, and a build function that returns the rule's
premises and its conclusion without sending anything. ``apply_rule`` asks
the premises through ``Kernel.send`` and admits the conclusion (a CountFact,
a quantified axiom) only when every premise is proved, so ``unknown`` never
admits a fact. A final entailment query discharges the script goal from the
admitted facts plus the defining axioms of the declared recursive count
functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

from . import backend
from .backend import DEFAULT_LOGIC, OBLIGATION_LOGIC, VALIDITY, Obligation, Session
from .sexpr import Sexpr, SexprError, atom, pairs, read_form, sections, single, to_text
from .terms import (
    BUILTIN_SIGNATURE,
    INT,
    Add,
    And,
    App,
    Cmp,
    Exists,
    Forall,
    Implies,
    IntLit,
    Ite,
    Mul,
    Not,
    Or,
    Signature,
    Sort,
    Sub,
    Term,
    TermError,
    TRUE,
    Var,
    conj,
    free_vars,
    neq,
    sort_from_sexpr,
    substitute,
    term_from_sexpr,
)


class KernelError(ValueError):
    pass


class QueryUnknown(KernelError):
    pass


class NotValid(KernelError):
    def __init__(self, message: str, model=None):
        super().__init__(message)
        self.model = model


class VarsOverlap(KernelError):
    pass


# ---------------------------------------------------------------------------
# Built-in recursive count functions

_N = Var("n", INT)

# Base and step equations plus positivity; the positivity facts are ordinary
# consequences of the recurrences but are out of reach of a non-inductive
# solver, so they ship as axioms alongside them.
BUILTIN_AXIOMS: tuple[Term, ...] = (
    Cmp("=", App("pow2", (IntLit(0),)), IntLit(1)),
    Forall(
        (("n", INT),),
        Implies(
            Cmp(">=", _N, IntLit(0)),
            Cmp("=", App("pow2", (Add((_N, IntLit(1))),)), Mul(IntLit(2), App("pow2", (_N,)))),
        ),
    ),
    Forall(
        (("n", INT),),
        Implies(Cmp(">=", _N, IntLit(0)), Cmp(">=", App("pow2", (_N,)), IntLit(1))),
    ),
    Cmp("=", App("fact", (IntLit(0),)), IntLit(1)),
    Forall(
        (("n", INT),),
        Implies(
            Cmp(">=", _N, IntLit(0)),
            Cmp(
                "=",
                App("fact", (Add((_N, IntLit(1))),)),
                Mul(Add((_N, IntLit(1))), App("fact", (_N,))),
            ),
        ),
    ),
    Forall(
        (("n", INT),),
        Implies(Cmp(">=", _N, IntLit(0)), Cmp(">=", App("fact", (_N,)), IntLit(1))),
    ),
)


# ---------------------------------------------------------------------------
# Predicates, count terms, facts


@dataclass(frozen=True)
class DeclaredPred:
    name: str
    vars: tuple[tuple[str, Sort], ...]
    counted: tuple[str, ...]
    body: Term

    def __post_init__(self) -> None:
        names = [n for n, _ in self.vars]
        if len(set(names)) != len(names):
            raise KernelError(f"predicate {self.name}: duplicate variables")
        for c in self.counted:
            if c not in names:
                raise KernelError(f"predicate {self.name}: counted var {c} undeclared")
        if not self.counted:
            raise KernelError(f"predicate {self.name}: no counted variables")

    @property
    def params(self) -> tuple[tuple[str, Sort], ...]:
        return tuple((n, s) for n, s in self.vars if n not in self.counted)


# A reference to a countable formula inside a script:
#   "V" | ("and", ref, ref) | ("at", "V", (term, ...))
PredRef = Union[str, tuple]


@dataclass(frozen=True)
class CountTerm:
    formula: Term
    counted: tuple[Var, ...]
    params: tuple[Var, ...]
    symbol: str
    args: tuple[Term, ...]

    def app(self) -> Term:
        return App(self.symbol, self.args)


@dataclass(frozen=True)
class CountFact:
    axiom: Term
    rule: str
    label: str


@dataclass(frozen=True)
class RuleApp:
    rule: str
    payload: object  # an instance of RULES[rule].payload


@dataclass(frozen=True)
class ProofStep:
    index: int
    apps: tuple[RuleApp, ...]


@dataclass(frozen=True)
class ProofScript:
    declarations: tuple[DeclaredPred, ...]
    steps: tuple[ProofStep, ...]
    goal: Optional[Term]


@dataclass(frozen=True)
class ScriptResult:
    status: str  # accepted | rejected | unknown
    rejected_at: Optional[str] = None
    reason: str = ""
    facts: tuple[CountFact, ...] = ()
    signature: Signature = BUILTIN_SIGNATURE


def _closed(params: Sequence[Var], body: Term) -> Term:
    if not params:
        return body
    bound = tuple((v.name, v.sort) for v in params)
    return Forall(bound, body)


def _ref_key(ref: PredRef) -> str:
    if isinstance(ref, str):
        return ref
    if ref[0] == "and":
        return f"{_ref_key(ref[1])}&{_ref_key(ref[2])}"
    if ref[0] == "at":
        return ref[1]
    raise KernelError(f"bad predicate reference {ref!r}")


def _ref_names(ref: PredRef) -> list[str]:
    if isinstance(ref, str):
        return [ref]
    if ref[0] == "and":
        return _ref_names(ref[1]) + _ref_names(ref[2])
    return [ref[1]]


# ---------------------------------------------------------------------------
# Premises: the queries a rule needs answered before its conclusion is admitted

# Which attempt ladder a premise climbs is the rule's choice; plain validity
# premises take ``backend.VALIDITY``. E-matching proves entailments but rarely
# finishes counterexample searches; retry with model-based instantiation
# before giving up
ENTAILMENT = (*VALIDITY, (backend.MBQI_OPTIONS, OBLIGATION_LOGIC, None))
# the default tactic handles some quantified bodies, model-based
# instantiation handles others
MODEL_SEARCH = (
    (backend.MODEL_OPTIONS, DEFAULT_LOGIC, 15_000),
    (backend.MBQI_OPTIONS, OBLIGATION_LOGIC, None),
)


@dataclass(frozen=True)
class Premise(Obligation):
    failure: str = field(kw_only=True)  # the message when it is not proved


def _valid(label: str, hyps: Sequence[Term], concl: Term, failure: str = "") -> Premise:
    """The premise that ``hyps`` imply ``concl``."""
    return Premise(label, (*hyps, Not(concl)), failure=failure or f"{label}: premise not valid")


# ---------------------------------------------------------------------------
# The kernel: fact store, reference resolution, and the premises it asks


class Kernel:
    """Declared predicates, admitted facts, and the signature of their counts."""

    def __init__(self, session: Session) -> None:
        self.session = session
        self.preds: dict[str, DeclaredPred] = {}
        self.facts: list[CountFact] = []
        self.signature: Signature = BUILTIN_SIGNATURE

    def declare_pred(self, pred: DeclaredPred) -> None:
        if pred.name in self.preds:
            raise KernelError(f"predicate {pred.name} declared twice")
        self.preds[pred.name] = pred
        # the goal may name a count that no step resolves
        self.signature = self.signature.extend(
            f"cnt.{pred.name}", tuple(s for _, s in pred.params), INT
        )

    def resolve(self, ref: PredRef) -> CountTerm:
        if isinstance(ref, str):
            pred = self.preds.get(ref)
            if pred is None:
                raise KernelError(f"unknown predicate {ref!r}")
            counted = tuple(Var(c, dict(pred.vars)[c]) for c in pred.counted)
            params = tuple(Var(n, s) for n, s in pred.params)
            return CountTerm(pred.body, counted, params, f"cnt.{ref}", tuple(params))
        if isinstance(ref, tuple) and ref and ref[0] == "and":
            a, b = self.resolve(ref[1]), self.resolve(ref[2])
            if a.counted != b.counted:
                raise KernelError("conjunction of predicates with different counted vars")
            params = tuple(sorted(set(a.params) | set(b.params), key=lambda v: v.name))
            symbol = f"cnt.{_ref_key(ref)}"
            self.signature = self.signature.extend(symbol, tuple(v.sort for v in params), INT)
            return CountTerm(conj(a.formula, b.formula), a.counted, params, symbol, tuple(params))
        if isinstance(ref, tuple) and ref and ref[0] == "at":
            base = self.resolve(ref[1])
            args = tuple(ref[2])
            if len(args) != len(base.params):
                raise KernelError(f"instantiation arity mismatch for {ref[1]}")
            formula = substitute(base.formula, dict(zip(base.params, args)))
            remaining = tuple(dict.fromkeys(v for a in args for v in free_vars(a)))
            return CountTerm(formula, base.counted, remaining, base.symbol, args)
        raise KernelError(f"bad predicate reference {ref!r}")

    def entailment(self, goal: Term, label: str, failure: str) -> Premise:
        """The premise that the admitted facts entail ``goal``."""
        assertions = (*BUILTIN_AXIOMS, *(f.axiom for f in self.facts), Not(goal))
        return Premise(label, assertions, attempts=ENTAILMENT, failure=failure)

    def entails(self, goal: Term, label: str = "entailment") -> bool:
        try:
            self.send([self.entailment(goal, label, f"{label}: not entailed")])
        except NotValid:
            return False
        return True

    def send(self, premises: Sequence[Premise]) -> None:
        """Ask the premises in order; raise at the first that is not proved."""
        for premise in premises:
            answer = self.session.ask(premise, self.signature)
            if answer.status == "unknown":
                raise QueryUnknown(f"{premise.label}: solver returned unknown")
            if answer.status == "failed":
                raise NotValid(premise.failure, answer.model)


# ---------------------------------------------------------------------------
# Rule payloads and builds. A build resolves references, checks side
# conditions, and returns (premises, conclusion); it sends nothing.


@dataclass(frozen=True)
class OneRef:
    ref: PredRef


@dataclass(frozen=True)
class ConstBound:
    ref: PredRef
    c: int
    models: Optional[tuple[Mapping[str, Term], ...]] = None


@dataclass(frozen=True)
class Subset:
    f: PredRef
    g: PredRef


@dataclass(frozen=True)
class Split:
    f: PredRef
    g: PredRef
    h: PredRef


@dataclass(frozen=True)
class Product:
    h: PredRef
    f: PredRef
    g: PredRef


@dataclass(frozen=True)
class Injection:
    f: PredRef
    g: PredRef
    witness: Mapping[str, Term]


@dataclass(frozen=True)
class IndGeq:
    f: PredRef
    g: PredRef
    n: str
    witness: Mapping[str, Term]
    guard: Term = TRUE


@dataclass(frozen=True)
class IndLeq:
    f: PredRef
    g: PredRef
    n: str
    hx: Mapping[str, Term]
    hy: Mapping[str, Term]
    guard: Term = TRUE


@dataclass(frozen=True)
class Close:
    ref: PredRef
    n: str
    n0: Term
    base: Term
    factor: Term
    closed_form: Term
    rel: str


def _conclude(rule: str, label: str, concl: Term, *cts: CountTerm, guard: Term = TRUE):
    params = tuple(dict.fromkeys(v for ct in cts for v in ct.params))
    body = concl if guard == TRUE else Implies(guard, concl)
    return CountFact(_closed(params, body), rule, label)


def _copies(counted: Sequence[Var], count: int) -> list[dict[Var, Var]]:
    return [{v: Var(f"{v.name}.{i}", v.sort) for v in counted} for i in range(1, count + 1)]


def _differ(ma: Mapping[Var, Term], mb: Mapping[Var, Term]) -> Term:
    return Or(tuple(neq(ma[v], mb[v]) for v in ma))


def _pairwise(maps: Sequence[Mapping[Var, Term]]) -> list[Term]:
    return [_differ(a, b) for i, a in enumerate(maps) for b in maps[i + 1:]]


def _witness_map(
    label: str, section: str, counted: Sequence[Var], binding: Mapping[str, Term]
) -> dict[Var, Term]:
    """The term ``binding`` gives each counted variable, by name."""
    for v in counted:
        if v.name not in binding:
            raise KernelError(f"{label}: {section} missing {v.name}")
    return {v: binding[v.name] for v in counted}


def _injective(
    label: str, hyps: tuple, body: Term, counted: Sequence[Var], wmap: Mapping[Var, Term]
) -> Premise:
    """The premise that ``wmap`` maps distinct models of ``body`` apart."""
    m1, m2 = _copies(counted, 2)
    images = [{v: substitute(t, m) for v, t in wmap.items()} for m in (m1, m2)]
    models = (substitute(body, m1), substitute(body, m2), _differ(m1, m2))
    return _valid(label, (*hyps, *models), _differ(*images))


def _build_range(kernel: Kernel, p: OneRef):
    ct = kernel.resolve(p.ref)
    if len(ct.counted) != 1:
        raise KernelError("range rule needs exactly one counted variable")
    v = ct.counted[0]
    body = ct.formula
    shape_error = KernelError(
        "range rule needs a body of the shape (and (<= lower v) (< v upper))"
    )
    if not (isinstance(body, And) and len(body.args) == 2):
        raise shape_error
    lo_c, hi_c = body.args
    if not (
        isinstance(lo_c, Cmp)
        and lo_c.op == "<="
        and lo_c.right == v
        and isinstance(hi_c, Cmp)
        and hi_c.op == "<"
        and hi_c.left == v
    ):
        raise shape_error
    lower, upper = lo_c.left, hi_c.right
    if any(fv == v for t in (lower, upper) for fv in free_vars(t)):
        raise shape_error
    width = Sub(upper, lower)
    concl = Cmp("=", ct.app(), Ite(Cmp(">=", width, IntLit(0)), width, IntLit(0)))
    return (), _conclude("range", f"range({_ref_key(p.ref)})", concl, ct)


def _build_positive(kernel: Kernel, p: OneRef):
    ct = kernel.resolve(p.ref)
    concl = Cmp(">=", ct.app(), IntLit(0))
    return (), _conclude("positive", f"positive({_ref_key(p.ref)})", concl, ct)


def _distinct_models(kernel: Kernel, p: ConstBound, direction: str):
    if p.c < 1:
        raise KernelError("constant bound needs c >= 1")
    ct = kernel.resolve(p.ref)
    copies = _copies(ct.counted, p.c)
    bodies = [substitute(ct.formula, m) for m in copies]
    label = f"const-{direction}({_ref_key(p.ref)},{p.c})"
    return ct, copies, (*bodies, *_pairwise(copies)), label


def _build_const_ub(kernel: Kernel, p: ConstBound):
    ct, _, distinct, label = _distinct_models(kernel, p, "ub")
    premise = Premise(label, distinct, failure=f"{label}: {p.c} distinct models exist")
    concl = Cmp("<=", ct.app(), IntLit(p.c - 1))
    return (premise,), _conclude("const-ub", label, concl, ct)


def _build_const_lb(kernel: Kernel, p: ConstBound):
    ct, copies, distinct, label = _distinct_models(kernel, p, "lb")
    if p.models is not None:
        # explicit witness models: substitute them into the body and check
        # the resulting (near-)ground formula is valid
        if len(p.models) != p.c:
            raise KernelError(f"{label}: needs exactly {p.c} (model ...) sections")
        wmaps = [_witness_map(label, "model", ct.counted, m) for m in p.models]
        wbodies = [substitute(ct.formula, w) for w in wmaps]
        premise = _valid(label, (), conj(*wbodies, *_pairwise(wmaps)))
    elif not ct.params:
        # no parameters: a satisfying assignment of c distinct models is
        # direct evidence for the lower bound
        premise = Premise(
            label,
            distinct,
            needs="sat",
            attempts=MODEL_SEARCH,
            failure=f"{label}: no {p.c} distinct models exist",
        )
    else:
        # with free parameters the conclusion is universally quantified, so
        # the witness models must exist for every parameter value
        bound = tuple((m[v].name, v.sort) for m in copies for v in ct.counted)
        premise = _valid(
            label,
            (),
            Exists(bound, conj(*distinct)),
            f"{label}: fewer than {p.c} models for some parameters",
        )
    concl = Cmp(">=", ct.app(), IntLit(p.c))
    return (premise,), _conclude("const-lb", label, concl, ct)


def _build_ub(kernel: Kernel, p: Subset):
    f, g = kernel.resolve(p.f), kernel.resolve(p.g)
    if f.counted != g.counted:
        raise KernelError("ub rule needs identical counted variables")
    label = f"ub({_ref_key(p.f)},{_ref_key(p.g)})"
    premise = _valid(label, (f.formula,), g.formula)
    return (premise,), _conclude("ub", label, Cmp("<=", f.app(), g.app()), f, g)


def _build_or(kernel: Kernel, p: Split):
    f, g, h = kernel.resolve(p.f), kernel.resolve(p.g), kernel.resolve(p.h)
    if not (f.counted == g.counted == h.counted):
        raise KernelError("or rule needs identical counted variables")
    overlap = kernel.resolve(("and", p.g, p.h))
    label = f"or({_ref_key(p.f)},{_ref_key(p.g)},{_ref_key(p.h)})"
    premise = _valid(label, (), Cmp("=", f.formula, Or((g.formula, h.formula))))
    concl = Cmp("=", f.app(), Sub(Add((g.app(), h.app())), overlap.app()))
    return (premise,), _conclude("or", label, concl, f, g, h)


def _product(rule: str, rel: str, disjoint: bool) -> Callable:
    def build(kernel: Kernel, p: Product):
        h, f, g = kernel.resolve(p.h), kernel.resolve(p.f), kernel.resolve(p.g)
        f_set, g_set = set(f.counted), set(g.counted)
        if disjoint and f_set & g_set:
            raise VarsOverlap("disjoint rule needs disjoint counted variables")
        if set(h.counted) != f_set | g_set:
            raise KernelError("product rule: counted vars of h must be those of f and g")
        label = f"{rule}({_ref_key(p.h)},{_ref_key(p.f)},{_ref_key(p.g)})"
        premise = _valid(label, (), Cmp("=", h.formula, conj(f.formula, g.formula)))
        concl = Cmp(rel, h.app(), Mul(f.app(), g.app()))
        return (premise,), _conclude(rule, label, concl, h, f, g)

    return build


def _build_injective(kernel: Kernel, p: Injection):
    f, g = kernel.resolve(p.f), kernel.resolve(p.g)
    label = f"injective({_ref_key(p.f)},{_ref_key(p.g)})"
    wmap = _witness_map(label, "witness", g.counted, p.witness)
    premises = (
        # f(X) implies g(F(X))
        _valid(f"{label}/into", (f.formula,), substitute(g.formula, wmap)),
        _injective(f"{label}/inj", (), f.formula, f.counted, wmap),
    )
    return premises, _conclude("injectivity", label, Cmp("<=", f.app(), g.app()), f, g)


def _induction(kernel: Kernel, p, direction: str):
    """The count terms, f at n+1 and its count, and the label of an ind rule."""
    f, g = kernel.resolve(p.f), kernel.resolve(p.g)
    if set(v.name for v in f.counted) & set(v.name for v in g.counted):
        raise KernelError("ind rule: counted variables of f and g must not share names")
    nvars = [v for v in f.params if v.name == p.n]
    if not nvars:
        raise KernelError(f"ind rule: {p.n} is not a parameter of f")
    n = nvars[0]
    n_succ = Add((n, IntLit(1)))
    f_at_succ = substitute(f.formula, {n: n_succ})
    app_f_succ = App(f.symbol, tuple(n_succ if a == n else a for a in f.args))
    label = f"ind-{direction}({_ref_key(p.f)},{_ref_key(p.g)})"
    return f, g, f_at_succ, app_f_succ, label


def _build_ind_geq(kernel: Kernel, p: IndGeq):
    f, g, f_at_succ, app_f_succ, label = _induction(kernel, p, "geq")
    wmap = _witness_map(label, "witness", f.counted, p.witness)
    joint = conj(f.formula, g.formula)
    premises = (
        _valid(f"{label}/lift", (p.guard, f.formula, g.formula), substitute(f_at_succ, wmap)),
        _injective(f"{label}/inj", (p.guard,), joint, (*f.counted, *g.counted), wmap),
    )
    concl = Cmp(">=", app_f_succ, Mul(f.app(), g.app()))
    return premises, _conclude("ind-geq", label, concl, f, g, guard=p.guard)


def _build_ind_leq(kernel: Kernel, p: IndLeq):
    f, g, f_at_succ, app_f_succ, label = _induction(kernel, p, "leq")
    xmap = _witness_map(label, "hx", f.counted, p.hx)
    ymap = _witness_map(label, "hy", g.counted, p.hy)
    lowered = conj(substitute(f.formula, xmap), substitute(g.formula, ymap))
    premises = (
        _valid(f"{label}/lower", (p.guard, f_at_succ), lowered),
        _injective(f"{label}/inj", (p.guard,), f_at_succ, f.counted, {**xmap, **ymap}),
    )
    concl = Cmp("<=", app_f_succ, Mul(f.app(), g.app()))
    return premises, _conclude("ind-leq", label, concl, f, g, guard=p.guard)


def _build_close(kernel: Kernel, p: Close):
    if p.rel not in ("=", "<=", ">="):
        raise KernelError("close_recurrence relation must be =, <=, or >=")
    ct = kernel.resolve(p.ref)
    if len(ct.params) != 1 or ct.params[0].name != p.n:
        raise KernelError(f"close_recurrence needs a count with the single parameter {p.n}")
    n = ct.params[0]
    label = f"close({_ref_key(p.ref)})"
    n_succ = Add((n, IntLit(1)))
    guard = Cmp(">=", n, p.n0)

    def cnt(arg: Term) -> Term:
        return App(ct.symbol, (arg,))

    def closed_at(arg: Term) -> Term:
        return substitute(p.closed_form, {n: arg})

    def from_n0(body: Term) -> Term:
        return Forall(((n.name, INT),), Implies(guard, body))

    # the admitted recurrence facts must entail the base and step equations;
    # the closed form must satisfy the same base and step (in the direction
    # that makes the induction go through), with a non-negative step factor
    flipped = {"=": "=", "<=": ">=", ">=": "<="}[p.rel]
    facts = (
        ("base", Cmp(p.rel, cnt(p.n0), p.base)),
        ("step", from_n0(Cmp(p.rel, cnt(n_succ), Mul(p.factor, cnt(n))))),
    )
    closed = (
        ("closed-base", Cmp(flipped, closed_at(p.n0), p.base)),
        ("closed-step", from_n0(Cmp(flipped, closed_at(n_succ), Mul(p.factor, closed_at(n))))),
        ("factor-nonneg", from_n0(Cmp(">=", p.factor, IntLit(0)))),
        ("closed-nonneg", from_n0(Cmp(">=", p.closed_form, IntLit(0)))),
    )
    premises = tuple(
        kernel.entailment(goal, f"{label}/{tag}", f"{label}: {tag} {failed}")
        for checks, failed in ((facts, "fact not entailed"), (closed, "check failed"))
        for tag, goal in checks
    )
    concl = from_n0(Cmp(p.rel, cnt(n), p.closed_form))
    return premises, CountFact(concl, "close-recurrence", label)


# ---------------------------------------------------------------------------
# Rule parsers: each checks the arity and the atom types of its form and
# raises SexprError on a malformed one.


class _Scope:
    """What a rule's parser sees: the predicates declared so far and the
    signature their count symbols extend."""

    def __init__(self) -> None:
        self.preds: dict[str, DeclaredPred] = {}
        self.sig = BUILTIN_SIGNATURE

    def term(self, expr: Sexpr, env: Mapping[str, Sort]) -> Term:
        return term_from_sexpr(expr, env, self.sig)

    def ref(self, expr: Sexpr) -> PredRef:
        if isinstance(expr, str) and expr in self.preds:
            return expr
        if isinstance(expr, list) and len(expr) == 3 and expr[0] == "and":
            return ("and", self.ref(expr[1]), self.ref(expr[2]))
        if isinstance(expr, list) and len(expr) >= 2 and expr[0] == "at":
            if not (isinstance(expr[1], str) and expr[1] in self.preds):
                raise SexprError(f"unknown predicate {expr[1]!r} in at-reference")
            return ("at", expr[1], tuple(self.term(a, {}) for a in expr[2:]))
        raise SexprError(f"bad or undeclared predicate reference {to_text(expr)}")

    def env(self, *refs: PredRef) -> dict[str, Sort]:
        names = [name for ref in refs for name in _ref_names(ref)]
        return {vn: vs for name in names for vn, vs in self.preds[name].vars}

    def bindings(self, entries: Sequence[Sexpr], env: Mapping[str, Sort]) -> dict[str, Term]:
        return {name: self.term(e, env) for name, e in pairs("binding", entries).items()}


def _arity(form: list, count: int, sections: bool = False) -> None:
    """``form`` has ``count`` arguments, or at least that many if sections follow."""
    given = len(form) - 1
    if given < count or (given > count and not sections):
        raise SexprError(f"{form[0]} takes {count} arguments, got {given}: {to_text(form)}")


def _parse_refs(payload: type, count: int) -> Callable:
    def parse(form: list, scope: _Scope):
        _arity(form, count)
        return payload(*(scope.ref(e) for e in form[1:]))

    return parse


def _parse_const(with_models: bool) -> Callable:
    def parse(form: list, scope: _Scope) -> ConstBound:
        _arity(form, 2, sections=with_models)
        ref = scope.ref(form[1])
        c = atom(form[2], int, "an integer count")
        if len(form) == 3:
            return ConstBound(ref, c)
        env = scope.env(ref)
        models = []
        for item in form[3:]:
            if not (isinstance(item, list) and item and item[0] == "model"):
                raise SexprError(f"{form[0]}: expected (model ...), got {to_text(item)}")
            models.append(scope.bindings(item[1:], env))
        return ConstBound(ref, c, tuple(models))

    return parse


def _parse_injective(form: list, scope: _Scope) -> Injection:
    _arity(form, 2, sections=True)
    f, g = scope.ref(form[1]), scope.ref(form[2])
    found = sections("injective", form[3:], ("witness",))
    return Injection(f, g, scope.bindings(found["witness"], scope.env(f, g)))


def _parse_ind(payload: type, names: tuple[str, ...]) -> Callable:
    """The parser of an ind rule whose witness maps are the sections ``names``."""

    def parse(form: list, scope: _Scope):
        _arity(form, 3, sections=True)
        f, g = scope.ref(form[1]), scope.ref(form[2])
        n = atom(form[3], str, "a parameter name")
        env = scope.env(f, g)
        found = sections(form[0], form[4:], names, ("guard",))
        guard = scope.term(single(found, "guard", default="true"), env)
        return payload(f, g, n, *(scope.bindings(found[name], env) for name in names), guard)

    return parse


def _parse_close(form: list, scope: _Scope) -> Close:
    _arity(form, 7)
    ref = scope.ref(form[1])
    n = atom(form[2], str, "a parameter name")
    env = {vn: vs for vn, vs in scope.env(ref).items() if vn == n}
    if not env:
        raise SexprError(f"close: {n} not a variable of {_ref_names(ref)}")
    return Close(
        ref,
        n,
        scope.term(form[3], {}),
        scope.term(form[4], {}),
        scope.term(form[5], env),
        scope.term(form[6], env),
        atom(form[7], str, "a relation symbol"),
    )


# ---------------------------------------------------------------------------
# The rule table


@dataclass(frozen=True)
class Rule:
    payload: type
    parse: Callable  # (form, scope) -> payload
    build: Callable  # (kernel, payload) -> (premises, CountFact)


RULES: dict[str, Rule] = {
    "range": Rule(OneRef, _parse_refs(OneRef, 1), _build_range),
    "positive": Rule(OneRef, _parse_refs(OneRef, 1), _build_positive),
    "const-lb": Rule(ConstBound, _parse_const(with_models=True), _build_const_lb),
    "const-ub": Rule(ConstBound, _parse_const(with_models=False), _build_const_ub),
    "ub": Rule(Subset, _parse_refs(Subset, 2), _build_ub),
    "or": Rule(Split, _parse_refs(Split, 3), _build_or),
    "and-ub": Rule(Product, _parse_refs(Product, 3), _product("and-ub", "<=", disjoint=False)),
    "disjoint": Rule(Product, _parse_refs(Product, 3), _product("disjoint", "=", disjoint=True)),
    "injective": Rule(Injection, _parse_injective, _build_injective),
    "ind-geq": Rule(IndGeq, _parse_ind(IndGeq, ("witness",)), _build_ind_geq),
    "ind-leq": Rule(IndLeq, _parse_ind(IndLeq, ("hx", "hy")), _build_ind_leq),
    "close": Rule(Close, _parse_close, _build_close),
}


# ---------------------------------------------------------------------------
# Script checking


def apply_rule(kernel: Kernel, app: RuleApp) -> CountFact:
    rule = RULES.get(app.rule)
    if rule is None:
        raise KernelError(f"unknown rule {app.rule!r}")
    premises, fact = rule.build(kernel, app.payload)
    kernel.send(premises)
    kernel.facts.append(fact)
    return fact


def check_script(script: ProofScript, session: Session) -> ScriptResult:
    kernel = Kernel(session)
    for pred in script.declarations:
        kernel.declare_pred(pred)
    at = "goal"
    try:
        for step in script.steps:
            at = f"step {step.index}"
            for app in step.apps:
                apply_rule(kernel, app)
        at = "goal"
        if script.goal is None:
            raise KernelError("script has no goal")
        kernel.send([kernel.entailment(script.goal, "goal", "goal not entailed by admitted facts")])
    except KernelError as exc:
        status = "unknown" if isinstance(exc, QueryUnknown) else "rejected"
        return ScriptResult(status, at, str(exc), tuple(kernel.facts), kernel.signature)
    return ScriptResult("accepted", facts=tuple(kernel.facts), signature=kernel.signature)


# ---------------------------------------------------------------------------
# Script parsing


def parse_proof(text: str) -> ProofScript:
    items = read_form(text, "proof")
    scope = _Scope()
    steps: list[ProofStep] = []
    goal: Optional[Term] = None
    try:
        for item in items:
            head = item[0] if isinstance(item, list) and item else None
            if head == "declare-pred":
                _declare(item, scope)
            elif head == "step":
                _arity(item, 1, sections=True)
                index = atom(item[1], int, "an integer step index")
                steps.append(ProofStep(index, tuple(_parse_app(a, scope) for a in item[2:])))
            elif head == "goal" and goal is None:
                _arity(item, 1)
                goal = scope.term(item[1], {})
            else:
                raise SexprError(f"proof: unexpected {to_text(item)}")
    except (TermError, KernelError) as exc:
        raise SexprError(str(exc)) from exc
    return ProofScript(tuple(scope.preds.values()), tuple(steps), goal)


def _declare(item: list, scope: _Scope) -> None:
    _arity(item, 4)
    name = atom(item[1], str, "a predicate name")
    if name in scope.preds:
        raise SexprError(f"predicate {name} declared twice")
    if not isinstance(item[2], list) or not all(
        isinstance(b, list) and len(b) == 2 and isinstance(b[0], str) for b in item[2]
    ):
        raise SexprError(f"declare-pred {name}: expected ((var sort) ...)")
    variables = tuple((b[0], sort_from_sexpr(b[1])) for b in item[2])
    counted = item[3]
    if not (isinstance(counted, list) and counted and counted[0] == "counted"):
        raise SexprError("declare-pred needs a (counted ...) section")
    body = scope.term(item[4], dict(variables))
    pred = DeclaredPred(name, variables, tuple(counted[1:]), body)
    scope.preds[name] = pred
    scope.sig = scope.sig.extend(f"cnt.{name}", tuple(s for _, s in pred.params), INT)


def _parse_app(form: Sexpr, scope: _Scope) -> RuleApp:
    if not isinstance(form, list) or not form or not isinstance(form[0], str):
        raise SexprError(f"bad rule application {form!r}")
    rule = RULES.get(form[0])
    if rule is None:
        raise SexprError(f"unknown rule {form[0]!r}")
    return RuleApp(form[0], rule.parse(form, scope))
