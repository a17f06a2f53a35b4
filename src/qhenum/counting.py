"""Model-counting proof kernel.

Symbolic model counts are uninterpreted integer functions of the parameters;
each inference rule discharges its premises through the SMT backend and, on
success, admits its conclusion as a quantified axiom (a CountFact).  A final
entailment query discharges the script goal from the admitted facts plus the
defining axioms of the declared recursive count functions.  ``unknown`` never
admits a fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from . import backend
from .backend import DEFAULT_LOGIC, Session
from .sexpr import Sexpr, SexprError, parse_one
from .terms import (
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
    PLAIN,
    Signature,
    Sort,
    Sub,
    Term,
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


class BaseMismatch(KernelError):
    pass


class StepMismatch(KernelError):
    pass


# ---------------------------------------------------------------------------
# Built-in recursive count functions

_N = Var("n", INT)

BUILTIN_SIGNATURE = Signature().extend("pow2", (INT,), INT).extend("fact", (INT,), INT)

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

    def sort_of(self, name: str) -> Sort:
        for n, s in self.vars:
            if n == name:
                return s
        raise KernelError(f"predicate {self.name}: unknown var {name}")


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
    payload: tuple


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
    accepted: bool
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


class Kernel:
    """Fact store plus one checker per counting rule."""

    def __init__(self, session: Session) -> None:
        self.session = session
        self.preds: dict[str, DeclaredPred] = {}
        self.facts: list[CountFact] = []
        self.signature: Signature = BUILTIN_SIGNATURE

    # -- declarations ------------------------------------------------------

    def declare_pred(self, pred: DeclaredPred) -> None:
        if pred.name in self.preds:
            raise KernelError(f"predicate {pred.name} declared twice")
        self.preds[pred.name] = pred

    # -- reference resolution ----------------------------------------------

    def resolve(self, ref: PredRef) -> CountTerm:
        if isinstance(ref, str):
            pred = self.preds.get(ref)
            if pred is None:
                raise KernelError(f"unknown predicate {ref!r}")
            counted = tuple(Var(c, pred.sort_of(c)) for c in pred.counted)
            params = tuple(Var(n, s) for n, s in pred.params)
            symbol = f"cnt.{ref}"
            ct = CountTerm(pred.body, counted, params, symbol, tuple(params))
            self._register(symbol, ct)
            return ct
        if isinstance(ref, tuple) and ref and ref[0] == "and":
            a, b = self.resolve(ref[1]), self.resolve(ref[2])
            if a.counted != b.counted:
                raise KernelError("conjunction of predicates with different counted vars")
            params = tuple(sorted(set(a.params) | set(b.params), key=lambda v: v.name))
            symbol = f"cnt.{_ref_key(ref)}"
            ct = CountTerm(conj(a.formula, b.formula), a.counted, params, symbol, tuple(params))
            self._register(symbol, ct)
            return ct
        if isinstance(ref, tuple) and ref and ref[0] == "at":
            base = self.resolve(ref[1])
            args = tuple(ref[2])
            if len(args) != len(base.params):
                raise KernelError(f"instantiation arity mismatch for {ref[1]}")
            binding = dict(zip(base.params, args))
            formula = substitute(base.formula, binding)
            remaining = tuple(
                v for fv in args for v in free_vars(fv) if isinstance(v, Var)
            )
            return CountTerm(formula, base.counted, tuple(dict.fromkeys(remaining)), base.symbol, args)
        raise KernelError(f"bad predicate reference {ref!r}")

    def _register(self, symbol: str, ct: CountTerm) -> None:
        self.signature = self.signature.extend(
            symbol, tuple(v.sort for v in ct.params), INT
        )

    # -- solver plumbing -----------------------------------------------------

    def _require_valid(self, hyps: Sequence[Term], concl: Term, label: str) -> None:
        verdict = self.session.check([*hyps, Not(concl)], label, self.signature)
        if verdict.status == "unsat":
            return
        if verdict.status == "sat":
            raise NotValid(f"{label}: premise not valid", verdict.model)
        raise QueryUnknown(f"{label}: solver returned unknown")

    def _admit(self, axiom: Term, rule: str, label: str) -> CountFact:
        fact = CountFact(axiom, rule, label)
        self.facts.append(fact)
        return fact

    def _axioms(self) -> list[Term]:
        return [*BUILTIN_AXIOMS, *(f.axiom for f in self.facts)]

    def entails(self, goal: Term, label: str = "entailment") -> bool:
        assertions = [*self._axioms(), Not(goal)]
        verdict = self.session.check(assertions, label, self.signature)
        if verdict.status == "unknown":
            # E-matching proves entailments but rarely finishes counterexample
            # searches; retry with model-based instantiation before giving up
            verdict = self.session.check(
                assertions, label, self.signature, backend.MBQI_OPTIONS
            )
        if verdict.status == "unsat":
            return True
        if verdict.status == "unknown":
            raise QueryUnknown(f"{label}: solver returned unknown")
        return False

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _copies(ct: CountTerm, count: int) -> list[dict[Var, Var]]:
        return [
            {v: Var(f"{v.name}.{i}", v.sort) for v in ct.counted}
            for i in range(1, count + 1)
        ]

    @staticmethod
    def _assignments_differ(ma: Mapping[Var, Term], mb: Mapping[Var, Term]) -> Term:
        return Or(tuple(neq(ma[v], mb[v]) for v in ma))

    # -- rules ---------------------------------------------------------------

    def rule_range(self, ref: PredRef) -> CountFact:
        ct = self.resolve(ref)
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
        concl = Cmp(
            "=", ct.app(), Ite(Cmp(">=", width, IntLit(0)), width, IntLit(0))
        )
        return self._admit(_closed(ct.params, concl), "range", f"range({_ref_key(ref)})")

    def rule_positive(self, ref: PredRef) -> CountFact:
        ct = self.resolve(ref)
        concl = Cmp(">=", ct.app(), IntLit(0))
        return self._admit(
            _closed(ct.params, concl), "positive", f"positive({_ref_key(ref)})"
        )

    def rule_const_bound(
        self,
        ref: PredRef,
        c: int,
        direction: str,
        models: Optional[Sequence[Mapping[str, Term]]] = None,
    ) -> CountFact:
        if c < 1:
            raise KernelError("constant bound needs c >= 1")
        if direction not in ("lb", "ub"):
            raise KernelError("direction must be lb or ub")
        ct = self.resolve(ref)
        copies = self._copies(ct, c)
        bodies = [substitute(ct.formula, m) for m in copies]
        pairwise = [
            self._assignments_differ(copies[i], copies[j])
            for i in range(c)
            for j in range(i + 1, c)
        ]
        label = f"const-{direction}({_ref_key(ref)},{c})"
        if direction == "ub":
            verdict = self.session.check([*bodies, *pairwise], label, self.signature)
            if verdict.status == "sat":
                raise NotValid(f"{label}: {c} distinct models exist", verdict.model)
            if verdict.status == "unknown":
                raise QueryUnknown(f"{label}: solver returned unknown")
            concl = Cmp("<=", ct.app(), IntLit(c - 1))
        elif models is not None:
            # explicit witness models: substitute them into the body and
            # check the resulting (near-)ground formula is valid
            if len(models) != c:
                raise KernelError(f"{label}: needs exactly {c} (model ...) sections")
            wmaps: list[dict[Var, Term]] = []
            for m in models:
                wmap: dict[Var, Term] = {}
                for v in ct.counted:
                    if v.name not in m:
                        raise KernelError(f"{label}: witness model missing {v.name}")
                    wmap[v] = m[v.name]
                wmaps.append(wmap)
            wbodies = [substitute(ct.formula, w) for w in wmaps]
            wpairs = [
                self._assignments_differ(wmaps[i], wmaps[j])
                for i in range(c)
                for j in range(i + 1, c)
            ]
            self._require_valid([], conj(*wbodies, *wpairs), label)
            concl = Cmp(">=", ct.app(), IntLit(c))
        elif not ct.params:
            # no parameters: a satisfying assignment of c distinct models is
            # direct evidence for the lower bound
            # two model-search attempts: the default tactic handles some
            # quantified bodies, model-based instantiation handles others
            verdict = self.session.check(
                [*bodies, *pairwise],
                label,
                self.signature,
                backend.MODEL_OPTIONS,
                DEFAULT_LOGIC,
                timeout_ms=min(self.session.timeout_ms, 15_000),
            )
            if verdict.status == "unknown":
                verdict = self.session.check(
                    [*bodies, *pairwise], label, self.signature, backend.MBQI_OPTIONS
                )
            if verdict.status == "unsat":
                raise NotValid(f"{label}: no {c} distinct models exist")
            if verdict.status == "unknown":
                raise QueryUnknown(f"{label}: solver returned unknown")
            concl = Cmp(">=", ct.app(), IntLit(c))
        else:
            # with free parameters the conclusion is universally quantified,
            # so the witness models must exist for every parameter value
            bound = tuple(
                (m[v].name, v.sort) for m in copies for v in ct.counted
            )
            witness = Exists(bound, conj(*bodies, *pairwise))
            verdict = self.session.check([Not(witness)], label, self.signature)
            if verdict.status == "sat":
                raise NotValid(f"{label}: fewer than {c} models for some parameters", verdict.model)
            if verdict.status == "unknown":
                raise QueryUnknown(f"{label}: solver returned unknown")
            concl = Cmp(">=", ct.app(), IntLit(c))
        return self._admit(_closed(ct.params, concl), f"const-{direction}", label)

    def rule_ub(self, f_ref: PredRef, g_ref: PredRef) -> CountFact:
        f, g = self.resolve(f_ref), self.resolve(g_ref)
        if f.counted != g.counted:
            raise KernelError("ub rule needs identical counted variables")
        label = f"ub({_ref_key(f_ref)},{_ref_key(g_ref)})"
        self._require_valid([f.formula], g.formula, label)
        params = tuple(dict.fromkeys((*f.params, *g.params)))
        concl = Cmp("<=", f.app(), g.app())
        return self._admit(_closed(params, concl), "ub", label)

    def rule_or(self, f_ref: PredRef, g_ref: PredRef, h_ref: PredRef) -> CountFact:
        f, g, h = self.resolve(f_ref), self.resolve(g_ref), self.resolve(h_ref)
        if not (f.counted == g.counted == h.counted):
            raise KernelError("or rule needs identical counted variables")
        overlap = self.resolve(("and", g_ref, h_ref))
        label = f"or({_ref_key(f_ref)},{_ref_key(g_ref)},{_ref_key(h_ref)})"
        self._require_valid(
            [], Cmp("=", f.formula, Or((g.formula, h.formula))), label
        )
        params = tuple(dict.fromkeys((*f.params, *g.params, *h.params)))
        concl = Cmp(
            "=", f.app(), Sub(Add((g.app(), h.app())), overlap.app())
        )
        return self._admit(_closed(params, concl), "or", label)

    def _product_rule(
        self, h_ref: PredRef, f_ref: PredRef, g_ref: PredRef, rel: str, rule: str
    ) -> CountFact:
        h, f, g = self.resolve(h_ref), self.resolve(f_ref), self.resolve(g_ref)
        f_set, g_set = set(f.counted), set(g.counted)
        if rule == "disjoint" and f_set & g_set:
            raise VarsOverlap("disjoint rule needs disjoint counted variables")
        if set(h.counted) != f_set | g_set:
            raise KernelError("product rule: counted vars of h must be those of f and g")
        label = f"{rule}({_ref_key(h_ref)},{_ref_key(f_ref)},{_ref_key(g_ref)})"
        self._require_valid(
            [], Cmp("=", h.formula, conj(f.formula, g.formula)), label
        )
        params = tuple(dict.fromkeys((*h.params, *f.params, *g.params)))
        concl = Cmp(rel, h.app(), Mul(f.app(), g.app()))
        return self._admit(_closed(params, concl), rule, label)

    def rule_and_ub(self, h_ref: PredRef, f_ref: PredRef, g_ref: PredRef) -> CountFact:
        return self._product_rule(h_ref, f_ref, g_ref, "<=", "and-ub")

    def rule_disjoint(self, h_ref: PredRef, f_ref: PredRef, g_ref: PredRef) -> CountFact:
        return self._product_rule(h_ref, f_ref, g_ref, "=", "disjoint")

    def rule_injectivity(
        self, f_ref: PredRef, g_ref: PredRef, witness: Mapping[str, Term]
    ) -> CountFact:
        f, g = self.resolve(f_ref), self.resolve(g_ref)
        wmap: dict[Var, Term] = {}
        for v in g.counted:
            if v.name not in witness:
                raise KernelError(f"injectivity witness missing {v.name}")
            wmap[v] = witness[v.name]
        label = f"injective({_ref_key(f_ref)},{_ref_key(g_ref)})"
        # premise 1: f(X) implies g(F(X))
        self._require_valid([f.formula], substitute(g.formula, wmap), f"{label}/into")
        # premise 2: distinct models of f map to distinct images
        m1, m2 = self._copies(f, 2)
        w1 = {v: substitute(t, m1) for v, t in wmap.items()}
        w2 = {v: substitute(t, m2) for v, t in wmap.items()}
        self._require_valid(
            [
                substitute(f.formula, m1),
                substitute(f.formula, m2),
                self._assignments_differ(m1, m2),
            ],
            self._assignments_differ(w1, w2),
            f"{label}/inj",
        )
        params = tuple(dict.fromkeys((*f.params, *g.params)))
        concl = Cmp("<=", f.app(), g.app())
        return self._admit(_closed(params, concl), "injectivity", label)

    def rule_ind(
        self,
        direction: str,
        f_ref: PredRef,
        g_ref: PredRef,
        nparam: str,
        witnesses: Mapping[str, Mapping[str, Term]],
        guard: Term = TRUE,
    ) -> CountFact:
        if direction not in ("geq", "leq"):
            raise KernelError("ind direction must be geq or leq")
        f, g = self.resolve(f_ref), self.resolve(g_ref)
        if set(v.name for v in f.counted) & set(v.name for v in g.counted):
            raise KernelError("ind rule: counted variables of f and g must not share names")
        nvars = [v for v in f.params if v.name == nparam]
        if not nvars:
            raise KernelError(f"ind rule: {nparam} is not a parameter of f")
        n = nvars[0]
        n_succ = Add((n, IntLit(1)))
        f_at_succ = substitute(f.formula, {n: n_succ})
        app_f_succ = App(f.symbol, tuple(n_succ if a == n else a for a in f.args))
        label = f"ind-{direction}({_ref_key(f_ref)},{_ref_key(g_ref)})"
        if direction == "geq":
            lift = witnesses.get("g")
            if lift is None:
                raise KernelError("ind-geq needs a lift witness 'g'")
            wmap = {v: lift[v.name] for v in f.counted}
            self._require_valid(
                [guard, f.formula, g.formula],
                substitute(f_at_succ, wmap),
                f"{label}/lift",
            )
            joint = CountTerm(
                conj(f.formula, g.formula),
                (*f.counted, *g.counted),
                (),
                "_joint",
                (),
            )
            m1, m2 = self._copies(joint, 2)
            w1 = {v: substitute(t, m1) for v, t in wmap.items()}
            w2 = {v: substitute(t, m2) for v, t in wmap.items()}
            self._require_valid(
                [
                    guard,
                    substitute(joint.formula, m1),
                    substitute(joint.formula, m2),
                    self._assignments_differ(m1, m2),
                ],
                self._assignments_differ(w1, w2),
                f"{label}/inj",
            )
            concl = Cmp(">=", app_f_succ, Mul(f.app(), g.app()))
        else:
            hx, hy = witnesses.get("hx"), witnesses.get("hy")
            if hx is None or hy is None:
                raise KernelError("ind-leq needs lowering witnesses 'hx' and 'hy'")
            xmap = {v: hx[v.name] for v in f.counted}
            ymap = {v: hy[v.name] for v in g.counted}
            self._require_valid(
                [guard, f_at_succ],
                conj(substitute(f.formula, xmap), substitute(g.formula, ymap)),
                f"{label}/lower",
            )
            m1, m2 = self._copies(f, 2)
            pair1 = {v: substitute(t, m1) for v, t in {**xmap, **ymap}.items()}
            pair2 = {v: substitute(t, m2) for v, t in {**xmap, **ymap}.items()}
            self._require_valid(
                [
                    guard,
                    substitute(f_at_succ, m1),
                    substitute(f_at_succ, m2),
                    self._assignments_differ(m1, m2),
                ],
                self._assignments_differ(pair1, pair2),
                f"{label}/inj",
            )
            concl = Cmp("<=", app_f_succ, Mul(f.app(), g.app()))
        params = tuple(dict.fromkeys((*f.params, *g.params)))
        body = concl if guard == TRUE else Implies(guard, concl)
        return self._admit(_closed(params, body), f"ind-{direction}", label)

    def close_recurrence(
        self,
        ref: PredRef,
        nparam: str,
        n0: Term,
        base_value: Term,
        factor: Term,
        closed_form: Term,
        rel: str,
    ) -> CountFact:
        if rel not in ("=", "<=", ">="):
            raise KernelError("close_recurrence relation must be =, <=, or >=")
        ct = self.resolve(ref)
        if len(ct.params) != 1 or ct.params[0].name != nparam:
            raise KernelError("close_recurrence needs a count with the single parameter "
                              f"{nparam}")
        n = ct.params[0]
        key = _ref_key(ref)

        def cnt(arg: Term) -> Term:
            return App(ct.symbol, (arg,))

        n_succ = Add((n, IntLit(1)))
        guard = Cmp(">=", n, n0)
        # the admitted recurrence facts must entail the base and step equations
        base_goal = Cmp(rel, cnt(n0), base_value)
        if not self.entails(base_goal, f"close({key})/base"):
            raise BaseMismatch(f"close({key}): base fact not entailed")
        step_goal = Forall(
            ((n.name, INT),),
            Implies(guard, Cmp(rel, cnt(n_succ), Mul(factor, cnt(n)))),
        )
        if not self.entails(step_goal, f"close({key})/step"):
            raise StepMismatch(f"close({key}): step fact not entailed")
        # the closed form must satisfy the same base and step (in the
        # direction that makes the induction go through), with a
        # non-negative step factor
        flipped = {"=": "=", "<=": ">=", ">=": "<="}[rel]
        closed_at = lambda arg: substitute(closed_form, {n: arg})
        checks = [
            (Cmp(flipped, closed_at(n0), base_value), "closed-base"),
            (
                Forall(
                    ((n.name, INT),),
                    Implies(
                        guard,
                        Cmp(flipped, closed_at(n_succ), Mul(factor, closed_at(n))),
                    ),
                ),
                "closed-step",
            ),
            (
                Forall(
                    ((n.name, INT),),
                    Implies(guard, Cmp(">=", factor, IntLit(0))),
                ),
                "factor-nonneg",
            ),
            (
                Forall(
                    ((n.name, INT),),
                    Implies(guard, Cmp(">=", closed_form, IntLit(0))),
                ),
                "closed-nonneg",
            ),
        ]
        for goal, tag in checks:
            if not self.entails(goal, f"close({key})/{tag}"):
                exc = BaseMismatch if tag == "closed-base" else StepMismatch
                raise exc(f"close({key}): {tag} check failed")
        concl = Forall(
            ((n.name, INT),), Implies(guard, Cmp(rel, cnt(n), closed_form))
        )
        return self._admit(concl, "close-recurrence", f"close({key})")


# ---------------------------------------------------------------------------
# Script checking


def apply_rule(kernel: Kernel, app: RuleApp) -> CountFact:
    r = app.rule
    p = app.payload
    if r == "range":
        return kernel.rule_range(p[0])
    if r == "positive":
        return kernel.rule_positive(p[0])
    if r == "const-lb":
        return kernel.rule_const_bound(p[0], p[1], "lb", p[2] if len(p) > 2 else None)
    if r == "const-ub":
        return kernel.rule_const_bound(p[0], p[1], "ub")
    if r == "ub":
        return kernel.rule_ub(p[0], p[1])
    if r == "or":
        return kernel.rule_or(p[0], p[1], p[2])
    if r == "and-ub":
        return kernel.rule_and_ub(p[0], p[1], p[2])
    if r == "disjoint":
        return kernel.rule_disjoint(p[0], p[1], p[2])
    if r == "injective":
        return kernel.rule_injectivity(p[0], p[1], p[2])
    if r == "ind-geq":
        return kernel.rule_ind("geq", p[0], p[1], p[2], {"g": p[3]}, p[4])
    if r == "ind-leq":
        return kernel.rule_ind("leq", p[0], p[1], p[2], {"hx": p[3], "hy": p[4]}, p[5])
    if r == "close":
        return kernel.close_recurrence(*p)
    raise KernelError(f"unknown rule {r!r}")


def check_script(script: ProofScript, session: Session) -> ScriptResult:
    kernel = Kernel(session)
    for pred in script.declarations:
        kernel.declare_pred(pred)
    for step in script.steps:
        for app in step.apps:
            try:
                apply_rule(kernel, app)
            except KernelError as exc:
                return ScriptResult(
                    False,
                    f"step {step.index}",
                    str(exc),
                    tuple(kernel.facts),
                    kernel.signature,
                )
    if script.goal is None:
        return ScriptResult(
            False, "goal", "script has no goal", tuple(kernel.facts), kernel.signature
        )
    try:
        ok = kernel.entails(script.goal, "goal")
    except QueryUnknown as exc:
        return ScriptResult(
            False, "goal", str(exc), tuple(kernel.facts), kernel.signature
        )
    if not ok:
        return ScriptResult(
            False,
            "goal",
            "goal not entailed by admitted facts",
            tuple(kernel.facts),
            kernel.signature,
        )
    return ScriptResult(True, facts=tuple(kernel.facts), signature=kernel.signature)


# ---------------------------------------------------------------------------
# Script parsing


def _parse_ref(expr: Sexpr, kernel_preds: Mapping[str, DeclaredPred], env_terms) -> PredRef:
    if isinstance(expr, str):
        return expr
    if isinstance(expr, list) and expr and expr[0] == "and":
        return ("and", _parse_ref(expr[1], kernel_preds, env_terms), _parse_ref(expr[2], kernel_preds, env_terms))
    if isinstance(expr, list) and expr and expr[0] == "at":
        name = expr[1]
        pred = kernel_preds.get(name)
        if pred is None:
            raise SexprError(f"unknown predicate {name!r} in at-reference")
        args = tuple(env_terms(a, {}) for a in expr[2:])
        return ("at", name, args)
    raise SexprError(f"bad predicate reference {expr!r}")


def parse_proof(text: str, signature: Signature = Signature()) -> ProofScript:
    form = parse_one(text)
    if not isinstance(form, list) or not form or form[0] != "proof":
        raise SexprError("expected (proof ...)")
    preds: dict[str, DeclaredPred] = {}
    steps: list[ProofStep] = []
    goal: Optional[Term] = None
    sig = BUILTIN_SIGNATURE
    for fname, fargs, fres in signature.functions:
        sig = sig.extend(fname, fargs, fres)

    def parse_term_in(expr: Sexpr, env: Mapping[str, Sort]) -> Term:
        return term_from_sexpr(expr, env, sig)

    def pred_env(names: Sequence[str]) -> dict[str, Sort]:
        env: dict[str, Sort] = {}
        for pname in names:
            for vn, vs in preds[pname].vars:
                env[vn] = vs
        return env

    for item in form[1:]:
        if not isinstance(item, list) or not item:
            raise SexprError(f"bad proof section {item!r}")
        head = item[0]
        if head == "declare-pred":
            name = item[1]
            variables = tuple((b[0], sort_from_sexpr(b[1])) for b in item[2])
            counted_section = item[3]
            if not (isinstance(counted_section, list) and counted_section and counted_section[0] == "counted"):
                raise SexprError("declare-pred needs a (counted ...) section")
            counted = tuple(counted_section[1:])
            env = {n: s for n, s in variables}
            body = parse_term_in(item[4], env)
            pred = DeclaredPred(name, variables, counted, body)
            preds[name] = pred
            sig = sig.extend(
                f"cnt.{name}", tuple(s for n, s in pred.params), INT
            )
        elif head == "step":
            index = item[1]
            apps: list[RuleApp] = []
            for app_form in item[2:]:
                apps.append(_parse_rule_app(app_form, preds, parse_term_in, pred_env))
            steps.append(ProofStep(index, tuple(apps)))
        elif head == "goal":
            goal = parse_term_in(item[1], {})
        else:
            raise SexprError(f"unknown proof section {head!r}")
    return ProofScript(tuple(preds.values()), tuple(steps), goal)


def _collect_kw(items: Sequence[Sexpr]) -> dict[str, Sexpr]:
    out: dict[str, Sexpr] = {}
    for entry in items:
        if isinstance(entry, list) and entry and isinstance(entry[0], str):
            out[entry[0]] = entry
    return out


def _parse_rule_app(form: Sexpr, preds, parse_term_in, pred_env) -> RuleApp:
    if not isinstance(form, list) or not form or not isinstance(form[0], str):
        raise SexprError(f"bad rule application {form!r}")
    rule = form[0]

    def ref(expr: Sexpr) -> PredRef:
        return _parse_ref(expr, preds, lambda e, env: parse_term_in(e, env))

    def ref_names(r: PredRef) -> list[str]:
        if isinstance(r, str):
            return [r]
        if r[0] == "and":
            return ref_names(r[1]) + ref_names(r[2])
        return [r[1]]

    if rule in ("range", "positive"):
        return RuleApp(rule, (ref(form[1]),))
    if rule == "const-ub":
        return RuleApp(rule, (ref(form[1]), form[2]))
    if rule == "const-lb":
        r = ref(form[1])
        models = None
        model_forms = [
            e for e in form[3:] if isinstance(e, list) and e and e[0] == "model"
        ]
        if model_forms:
            env = pred_env(ref_names(r))
            models = tuple(
                {e[0]: parse_term_in(e[1], env) for e in mf[1:]}
                for mf in model_forms
            )
        return RuleApp(rule, (r, form[2], models))
    if rule == "ub":
        return RuleApp(rule, (ref(form[1]), ref(form[2])))
    if rule in ("or", "and-ub", "disjoint"):
        return RuleApp(rule, (ref(form[1]), ref(form[2]), ref(form[3])))
    if rule == "injective":
        f_ref, g_ref = ref(form[1]), ref(form[2])
        env = pred_env(ref_names(f_ref) + ref_names(g_ref))
        kw = _collect_kw(form[3:])
        if "witness" not in kw:
            raise SexprError("injective needs a (witness ...) section")
        witness = {
            entry[0]: parse_term_in(entry[1], env) for entry in kw["witness"][1:]
        }
        return RuleApp(rule, (f_ref, g_ref, witness))
    if rule in ("ind-geq", "ind-leq"):
        f_ref, g_ref, nparam = ref(form[1]), ref(form[2]), form[3]
        env = pred_env(ref_names(f_ref) + ref_names(g_ref))
        kw = _collect_kw(form[4:])
        guard = (
            parse_term_in(kw["guard"][1], env) if "guard" in kw else TRUE
        )
        if rule == "ind-geq":
            if "witness" not in kw:
                raise SexprError("ind-geq needs a (witness ...) section")
            lift = {e[0]: parse_term_in(e[1], env) for e in kw["witness"][1:]}
            return RuleApp(rule, (f_ref, g_ref, nparam, lift, guard))
        if "hx" not in kw or "hy" not in kw:
            raise SexprError("ind-leq needs (hx ...) and (hy ...) sections")
        hx = {e[0]: parse_term_in(e[1], env) for e in kw["hx"][1:]}
        hy = {e[0]: parse_term_in(e[1], env) for e in kw["hy"][1:]}
        return RuleApp(rule, (f_ref, g_ref, nparam, hx, hy, guard))
    if rule == "close":
        r = ref(form[1])
        nparam = form[2]
        names = ref_names(r)
        nsort = None
        for pname in names:
            for vn, vs in preds[pname].vars:
                if vn == nparam:
                    nsort = vs
        if nsort is None:
            raise SexprError(f"close: {nparam} not a variable of {names}")
        env = {nparam: nsort}
        n0 = parse_term_in(form[3], {})
        base_value = parse_term_in(form[4], {})
        factor = parse_term_in(form[5], env)
        closed_form = parse_term_in(form[6], env)
        rel = form[7]
        return RuleApp(rule, (r, nparam, n0, base_value, factor, closed_form, rel))
    raise SexprError(f"unknown rule {rule!r}")
