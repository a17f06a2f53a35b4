"""Model-counting proof checking.

Symbolic model counts are uninterpreted integer functions of the parameters.
``parse_proof`` resolves and checks a script once: every predicate reference
becomes the ``CountTerm`` the builds read, and the script's signature is
fixed at load. Each inference rule is one entry of ``RULES``: the parser of
its s-expression form, which checks the rule's side conditions and returns
its arguments, and a build, a pure function of the facts admitted so far and
those arguments that returns the rule's premises and its conclusion.
``apply_rule`` runs a build and sends nothing. ``check_script`` is the one
loop that asks a script's questions: it asks each rule's premises in order
through ``Session.ask`` and admits the conclusion (a CountFact, a quantified
axiom) only when every premise is proved, so a step is refused only on a
solver's answer and ``unknown`` never admits a fact. A final entailment
query discharges the script goal from the admitted facts plus the defining
axioms of the declared recursive count functions.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence

from . import backend
from .backend import VALIDITY, Answer, Obligation, Session
from .sexpr import Sexpr, SexprError, atom, pairs, read_form, sections, single, to_text
from .terms import (
    BOOL,
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
    Record,
    Signature,
    Sort,
    Sub,
    Term,
    TRUE,
    Var,
    conj,
    expect_sort,
    free_vars,
    neq,
    sort_from_sexpr,
    substitute,
    term_from_sexpr,
)


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
# Count terms, facts


class CountTerm(Record):
    """A resolved predicate reference: ``symbol`` applied to ``args`` counts
    the models over ``counted`` of ``formula``, whose free parameters are
    ``params``. ``name`` is the symbol without ``cnt.``, as rule labels show
    it; an ``(at P t…)`` reference keeps P's name, and so its symbol."""

    name: str
    body: Term
    counted: tuple[Var, ...]
    params: tuple[Var, ...]
    args: tuple[Term, ...]
    bindings: tuple[tuple[Var, Term], ...] = ()  # what (at P t…) gives P's parameters

    @property
    def symbol(self) -> str:
        return "cnt." + self.name

    @cached_property
    def formula(self) -> Term:
        """``body`` with the bindings substituted, on first use."""
        return substitute(self.body, dict(self.bindings)) if self.bindings else self.body

    def app(self) -> Term:
        return App(self.symbol, self.args)


class CountFact(Record):
    axiom: Term
    rule: str
    label: str


class RuleApp(Record):
    rule: str
    args: tuple  # what RULES[rule].parse returned, in the order its build takes them


class ProofStep(Record):
    index: int
    apps: tuple[RuleApp, ...]


class ProofScript(Record):
    counts: dict[str, CountTerm]  # each declared predicate's count, by name
    steps: tuple[ProofStep, ...]
    goal: Optional[Term]
    signature: Signature  # the built-ins and every count symbol the script names


class ScriptResult(Record):
    """A proof script's verdict, in the words of a ``verify`` stage."""

    status: str  # passed | failed | unknown
    rejected_at: Optional[str] = None  # "step i" or "goal", where a failed or unknown one stopped
    reason: str = ""
    facts: tuple[CountFact, ...] = ()  # those admitted before it stopped
    model: Optional[tuple[tuple[str, str], ...]] = None  # a failed premise's countermodel


# ---------------------------------------------------------------------------
# Premises: the queries a rule needs answered before its conclusion is admitted

# Which attempt ladder a premise climbs is the rule's choice; plain validity
# premises take ``backend.VALIDITY``. E-matching proves entailments but rarely
# finishes counterexample searches; retry with model-based instantiation
# before giving up
ENTAILMENT = (*VALIDITY, backend.MBQI_OPTIONS)


def _valid(
    label: str, hyps: Sequence[Term], concl: Term, failure: str = "", attempts=VALIDITY
) -> Obligation:
    """The premise that ``hyps`` imply ``concl``."""
    failure = failure or f"{label}: premise not valid"
    return Obligation(label, (*hyps, Not(concl)), attempts, failure=failure)


def entailment(
    hyps: Sequence[Term], goal: Term, label: str, failure: str = "", attempts=ENTAILMENT
) -> Obligation:
    """The premise that ``hyps`` and the built-in axioms entail ``goal``."""
    return Obligation(
        label,
        (*BUILTIN_AXIOMS, *hyps, Not(goal)),
        attempts=attempts,
        failure=failure or f"{label}: not entailed",
    )


# ---------------------------------------------------------------------------
# Rule builds. A build takes the facts admitted so far and the arguments its
# rule's parser returned, whose side conditions the parser checked, and
# returns (premises, conclusion); it neither raises nor sends anything.


def _conclude(rule: str, label: str, concl: Term, *cts: CountTerm, guard: Term = TRUE):
    bound = tuple(dict.fromkeys((v.name, v.sort) for ct in cts for v in ct.params))
    body = concl if guard == TRUE else Implies(guard, concl)
    return CountFact(Forall(bound, body) if bound else body, rule, label)


def _copies(counted: Sequence[Var], count: int) -> list[dict[Var, Var]]:
    return [{v: Var(f"{v.name}.{i}", v.sort) for v in counted} for i in range(1, count + 1)]


def _differ(ma: Mapping[Var, Term], mb: Mapping[Var, Term]) -> Term:
    return Or(tuple(neq(ma[v], mb[v]) for v in ma))


def _pairwise(maps: Sequence[Mapping[Var, Term]]) -> list[Term]:
    return [_differ(a, b) for i, a in enumerate(maps) for b in maps[i + 1:]]


def _injective(
    label: str, hyps: tuple, body: Term, counted: Sequence[Var], wmap: Mapping[Var, Term]
) -> Obligation:
    """The premise that ``wmap`` maps distinct models of ``body`` apart."""
    m1, m2 = _copies(counted, 2)
    images = [{v: substitute(t, m) for v, t in wmap.items()} for m in (m1, m2)]
    models = (substitute(body, m1), substitute(body, m2), _differ(m1, m2))
    return _valid(label, (*hyps, *models), _differ(*images))


def _build_range(facts: Sequence[CountFact], ct: CountTerm, lower: Term, upper: Term):
    width = Sub(upper, lower)
    concl = Cmp("=", ct.app(), Ite(Cmp(">=", width, IntLit(0)), width, IntLit(0)))
    return (), _conclude("range", f"range({ct.name})", concl, ct)


def _build_positive(facts: Sequence[CountFact], ct: CountTerm):
    concl = Cmp(">=", ct.app(), IntLit(0))
    return (), _conclude("positive", f"positive({ct.name})", concl, ct)


def _distinct_models(ct: CountTerm, c: int, direction: str):
    copies = _copies(ct.counted, c)
    bodies = [substitute(ct.formula, m) for m in copies]
    label = f"const-{direction}({ct.name},{c})"
    return copies, (*bodies, *_pairwise(copies)), label


def _build_const_ub(facts: Sequence[CountFact], ct: CountTerm, c: int):
    _, distinct, label = _distinct_models(ct, c, "ub")
    premise = Obligation(label, distinct, failure=f"{label}: {c} distinct models exist")
    concl = Cmp("<=", ct.app(), IntLit(c - 1))
    return (premise,), _conclude("const-ub", label, concl, ct)


def _build_const_lb(
    facts: Sequence[CountFact], ct: CountTerm, c: int, wmaps: Optional[tuple] = None
):
    copies, distinct, label = _distinct_models(ct, c, "lb")
    if wmaps is not None:
        # explicit witness models: substitute them into the body and check
        # the resulting (near-)ground formula is valid
        wbodies = [substitute(ct.formula, w) for w in wmaps]
        premise = _valid(label, (), conj(*wbodies, *_pairwise(wmaps)))
    else:
        # c distinct models exist, for every parameter value when there are
        # parameters (the conclusion is then universally quantified)
        bound = tuple((m[v].name, v.sort) for m in copies for v in ct.counted)
        fewer = f"{label}: fewer than {c} models" + (" for some parameters" if ct.params else "")
        premise = _valid(label, (), Exists(bound, conj(*distinct)), fewer, ENTAILMENT)
    concl = Cmp(">=", ct.app(), IntLit(c))
    return (premise,), _conclude("const-lb", label, concl, ct)


def _build_ub(facts: Sequence[CountFact], f: CountTerm, g: CountTerm):
    label = f"ub({f.name},{g.name})"
    premise = _valid(label, (f.formula,), g.formula)
    return (premise,), _conclude("ub", label, Cmp("<=", f.app(), g.app()), f, g)


def _build_or(
    facts: Sequence[CountFact], f: CountTerm, g: CountTerm, h: CountTerm, overlap: CountTerm
):
    label = f"or({f.name},{g.name},{h.name})"
    premise = _valid(label, (), Cmp("=", f.formula, Or((g.formula, h.formula))))
    concl = Cmp("=", f.app(), Sub(Add((g.app(), h.app())), overlap.app()))
    return (premise,), _conclude("or", label, concl, f, g, h)


def _product(rule: str, rel: str) -> Callable:
    def build(facts: Sequence[CountFact], h: CountTerm, f: CountTerm, g: CountTerm):
        label = f"{rule}({h.name},{f.name},{g.name})"
        premise = _valid(label, (), Cmp("=", h.formula, conj(f.formula, g.formula)))
        concl = Cmp(rel, h.app(), Mul(f.app(), g.app()))
        return (premise,), _conclude(rule, label, concl, h, f, g)

    return build


def _build_injective(
    facts: Sequence[CountFact], f: CountTerm, g: CountTerm, wmap: Mapping[Var, Term]
):
    label = f"injective({f.name},{g.name})"
    premises = (
        # f(X) implies g(F(X))
        _valid(f"{label}/into", (f.formula,), substitute(g.formula, wmap)),
        _injective(f"{label}/inj", (), f.formula, f.counted, wmap),
    )
    return premises, _conclude("injectivity", label, Cmp("<=", f.app(), g.app()), f, g)


def _induction(f: CountTerm, g: CountTerm, n: Var, direction: str):
    """f at n+1 and its count, and the label of an ind rule."""
    n_succ = Add((n, IntLit(1)))
    f_at_succ = substitute(f.formula, {n: n_succ})
    app_f_succ = App(f.symbol, tuple(n_succ if a == n else a for a in f.args))
    return f_at_succ, app_f_succ, f"ind-{direction}({f.name},{g.name})"


def _build_ind_geq(
    facts: Sequence[CountFact], f: CountTerm, g: CountTerm, n: Var, wmap: dict, guard: Term
):
    f_at_succ, app_f_succ, label = _induction(f, g, n, "geq")
    joint = conj(f.formula, g.formula)
    premises = (
        _valid(f"{label}/lift", (guard, f.formula, g.formula), substitute(f_at_succ, wmap)),
        _injective(f"{label}/inj", (guard,), joint, (*f.counted, *g.counted), wmap),
    )
    concl = Cmp(">=", app_f_succ, Mul(f.app(), g.app()))
    return premises, _conclude("ind-geq", label, concl, f, g, guard=guard)


def _build_ind_leq(
    facts: Sequence[CountFact], f: CountTerm, g: CountTerm, n: Var, xmap: dict, ymap: dict,
    guard: Term,
):
    f_at_succ, app_f_succ, label = _induction(f, g, n, "leq")
    lowered = conj(substitute(f.formula, xmap), substitute(g.formula, ymap))
    premises = (
        _valid(f"{label}/lower", (guard, f_at_succ), lowered),
        _injective(f"{label}/inj", (guard,), f_at_succ, f.counted, {**xmap, **ymap}),
    )
    concl = Cmp("<=", app_f_succ, Mul(f.app(), g.app()))
    return premises, _conclude("ind-leq", label, concl, f, g, guard=guard)


def _build_close(
    facts: Sequence[CountFact], ct: CountTerm, n: Var, n0: Term, base: Term, factor: Term,
    closed_form: Term, rel: str,
):
    label = f"close({ct.name})"
    n_succ = Add((n, IntLit(1)))
    guard = Cmp(">=", n, n0)

    def cnt(arg: Term) -> Term:
        return App(ct.symbol, (arg,))

    def closed_at(arg: Term) -> Term:
        return substitute(closed_form, {n: arg})

    def from_n0(body: Term) -> Term:
        return Forall(((n.name, INT),), Implies(guard, body))

    # the admitted recurrence facts must entail the base and step equations;
    # the closed form must satisfy the same base and step (in the direction
    # that makes the induction go through), with a non-negative step factor
    flipped = {"=": "=", "<=": ">=", ">=": "<="}[rel]
    recurrence = (
        ("base", Cmp(rel, cnt(n0), base)),
        ("step", from_n0(Cmp(rel, cnt(n_succ), Mul(factor, cnt(n))))),
    )
    closed = (
        ("closed-base", Cmp(flipped, closed_at(n0), base)),
        ("closed-step", from_n0(Cmp(flipped, closed_at(n_succ), Mul(factor, closed_at(n))))),
        ("factor-nonneg", from_n0(Cmp(">=", factor, IntLit(0)))),
        ("closed-nonneg", from_n0(Cmp(">=", closed_form, IntLit(0)))),
    )
    axioms = [f.axiom for f in facts]
    premises = tuple(
        entailment(axioms, goal, f"{label}/{tag}", f"{label}: {tag} {failed}")
        for checks, failed in ((recurrence, "fact not entailed"), (closed, "check failed"))
        for tag, goal in checks
    )
    concl = from_n0(Cmp(rel, cnt(n), closed_form))
    return premises, CountFact(concl, "close-recurrence", label)


# ---------------------------------------------------------------------------
# Rule parsers: each checks the arity, the atom types, the sorts and the
# witness bindings of its form and the side conditions of its rule, raises
# SexprError on a malformed one, and returns its build's arguments.


class _Scope:
    """What a rule's parser sees: the counts declared so far and the
    signature their count symbols extend."""

    def __init__(self) -> None:
        self.counts: dict[str, CountTerm] = {}
        self.sig = BUILTIN_SIGNATURE
        self.variables: dict[str, Var] = {}  # one Var per name in the script

    def term(self, expr: Sexpr, env: Mapping[str, Sort], sort: Sort, what: str) -> Term:
        """``expr`` as a term of ``sort``."""
        return term_from_sexpr(expr, env, self.sig, sort, what, self.variables)

    def ref(self, expr: Sexpr) -> CountTerm:
        if isinstance(expr, str) and expr in self.counts:
            return self.counts[expr]
        if isinstance(expr, list) and len(expr) == 3 and expr[0] == "and":
            return self.conj(self.ref(expr[1]), self.ref(expr[2]))
        if isinstance(expr, list) and len(expr) >= 2 and expr[0] == "at":
            base = self.counts.get(expr[1]) if isinstance(expr[1], str) else None
            if base is None:
                raise SexprError(f"unknown predicate {expr[1]!r} in at-reference")
            if len(expr) - 2 != len(base.params):
                raise SexprError(f"instantiation arity mismatch for {base.name}")
            # the arguments are closed terms, so no parameter remains
            args = tuple(
                self.term(a, {}, p.sort, f"(at {base.name} ...) argument {p.name}")
                for a, p in zip(expr[2:], base.params)
            )
            bindings = tuple(zip(base.params, args))
            return CountTerm(base.name, base.body, base.counted, (), args, bindings)
        raise SexprError(f"bad or undeclared predicate reference {to_text(expr)}")

    def conj(self, a: CountTerm, b: CountTerm) -> CountTerm:
        """The count of ``(and a b)``, whose symbol joins the signature."""
        if a.counted != b.counted:
            raise SexprError("conjunction of predicates with different counted vars")
        if a.bindings or b.bindings:  # cnt.P&Q would drop the arguments of (at P t…)
            raise SexprError(f"conjunction of {a.name} and {b.name} instantiates one with at")
        params = tuple(sorted(set(a.params) | set(b.params), key=lambda v: v.name))
        ct = CountTerm(f"{a.name}&{b.name}", conj(a.formula, b.formula), a.counted, params, params)
        self.sig = self.sig.extend(ct.symbol, tuple(v.sort for v in params), INT)
        return ct

    def env(self, *cts: CountTerm) -> dict[str, Sort]:
        """The variables a section over ``cts`` may name: their counted
        variables and remaining parameters."""
        return {v.name: v.sort for ct in cts for v in (*ct.counted, *ct.params)}

    def bindings(
        self, entries: Sequence[Sexpr], env: Mapping[str, Sort], ct: CountTerm, section: str,
        label: str,
    ) -> dict[Var, Term]:
        """A witness section of the rule application ``label``: the term it
        gives each of ``ct``'s counted variables, of that variable's sort. It
        binds every counted variable and nothing else."""
        given = pairs("binding", entries)
        for v in ct.counted:
            if v.name not in given:
                raise SexprError(f"{label}: {section} missing {v.name}")
        names = {v.name for v in ct.counted}
        for name in given:
            if name not in names:
                raise SexprError(f"{label}: {section} binds {name}, which is not counted")
        return {
            v: self.term(given[v.name], env, v.sort, f"{section} {v.name}") for v in ct.counted
        }


def _arity(form: list, count: int, sections: bool = False) -> None:
    """``form`` has ``count`` arguments, or at least that many if sections follow."""
    given = len(form) - 1
    if given < count or (given > count and not sections):
        raise SexprError(f"{form[0]} takes {count} arguments, got {given}: {to_text(form)}")


def _parse_ref(form: list, scope: _Scope) -> tuple:
    _arity(form, 1)
    return (scope.ref(form[1]),)


def _parse_range(form: list, scope: _Scope) -> tuple:
    (ct,) = _parse_ref(form, scope)
    if len(ct.counted) != 1:
        raise SexprError("range rule needs exactly one counted variable")
    (v,) = ct.counted
    body = ct.formula
    if isinstance(body, And) and len(body.args) == 2:
        low, high = body.args
        if (
            isinstance(low, Cmp) and low.op == "<=" and low.right == v
            and isinstance(high, Cmp) and high.op == "<" and high.left == v
            and v not in free_vars(low.left) | free_vars(high.right)
        ):
            return ct, low.left, high.right
    raise SexprError("range rule needs a body of the shape (and (<= lower v) (< v upper))")


def _parse_ub(form: list, scope: _Scope) -> tuple:
    _arity(form, 2)
    f, g = scope.ref(form[1]), scope.ref(form[2])
    if f.counted != g.counted:
        raise SexprError("ub rule needs identical counted variables")
    return f, g


def _parse_or(form: list, scope: _Scope) -> tuple:
    _arity(form, 3)
    f, g, h = (scope.ref(e) for e in form[1:])
    overlap = scope.conj(g, h)  # which checks that g and h count the same variables
    if f.counted != g.counted:
        raise SexprError("or rule needs identical counted variables")
    return f, g, h, overlap


def _parse_product(form: list, scope: _Scope) -> tuple:
    _arity(form, 3)
    h, f, g = (scope.ref(e) for e in form[1:])
    f_set, g_set = set(f.counted), set(g.counted)
    if form[0] == "disjoint" and f_set & g_set:
        raise SexprError("disjoint rule needs disjoint counted variables")
    if set(h.counted) != f_set | g_set:
        raise SexprError("product rule: counted vars of h must be those of f and g")
    return h, f, g


def _parse_const(with_models: bool) -> Callable:
    def parse(form: list, scope: _Scope) -> tuple:
        _arity(form, 2, sections=with_models)
        ct = scope.ref(form[1])
        c = atom(form[2], int, "an integer count")
        if c < 1:
            raise SexprError("constant bound needs c >= 1")
        if len(form) == 3:
            return ct, c
        label = f"{form[0]}({ct.name},{c})"
        if len(form) - 3 != c:
            raise SexprError(f"{label}: needs exactly {c} (model ...) sections")
        env = scope.env(ct)
        models = []
        for item in form[3:]:
            if not (isinstance(item, list) and item and item[0] == "model"):
                raise SexprError(f"{form[0]}: expected (model ...), got {to_text(item)}")
            models.append(scope.bindings(item[1:], env, ct, "model", label))
        return ct, c, tuple(models)

    return parse


def _parse_injective(form: list, scope: _Scope) -> tuple:
    _arity(form, 2, sections=True)
    f, g = scope.ref(form[1]), scope.ref(form[2])
    found = sections("injective", form[3:], ("witness",))
    label = f"injective({f.name},{g.name})"
    return f, g, scope.bindings(found["witness"], scope.env(f, g), g, "witness", label)


def _parse_ind(*maps: str) -> Callable:
    """The parser of an ind rule whose witness maps are the sections
    ``maps``: the first binds f's counted variables, a second g's."""

    def parse(form: list, scope: _Scope) -> tuple:
        _arity(form, 3, sections=True)
        f, g = scope.ref(form[1]), scope.ref(form[2])
        name = atom(form[3], str, "a parameter name")
        if {v.name for v in f.counted} & {v.name for v in g.counted}:
            raise SexprError("ind rule: counted variables of f and g must not share names")
        n = next((v for v in f.params if v.name == name), None)
        if n is None:
            raise SexprError(f"ind rule: {name} is not a parameter of f")
        expect_sort(n.sort, INT, f"ind rule: {name}")
        env = scope.env(f, g)
        found = sections(form[0], form[4:], maps, ("guard",))
        guard = scope.term(single(found, "guard", default="true"), env, BOOL, "guard")
        label = f"{form[0]}({f.name},{g.name})"
        binds = (scope.bindings(found[m], env, ct, m, label) for m, ct in zip(maps, (f, g)))
        return (f, g, n, *binds, guard)

    return parse


def _parse_close(form: list, scope: _Scope) -> tuple:
    _arity(form, 7)
    ct = scope.ref(form[1])
    name = atom(form[2], str, "a parameter name")
    if [v.name for v in ct.params] != [name]:
        raise SexprError(f"close_recurrence needs a count with the single parameter {name}")
    rel = atom(form[7], str, "a relation symbol")
    if rel not in ("=", "<=", ">="):
        raise SexprError("close_recurrence relation must be =, <=, or >=")
    (n,) = ct.params
    env = {name: expect_sort(n.sort, INT, f"close_recurrence parameter {name}")}
    return (
        ct,
        n,
        scope.term(form[3], {}, INT, "close n0"),
        scope.term(form[4], {}, INT, "close base"),
        scope.term(form[5], env, INT, "close factor"),
        scope.term(form[6], env, INT, "close closed form"),
        rel,
    )


# ---------------------------------------------------------------------------
# The rule table


class Rule(Record):
    parse: Callable  # (form, scope) -> the build's arguments after the facts
    build: Callable  # (facts, *arguments) -> (premises, CountFact)


RULES: dict[str, Rule] = {
    "range": Rule(_parse_range, _build_range),
    "positive": Rule(_parse_ref, _build_positive),
    "const-lb": Rule(_parse_const(with_models=True), _build_const_lb),
    "const-ub": Rule(_parse_const(with_models=False), _build_const_ub),
    "ub": Rule(_parse_ub, _build_ub),
    "or": Rule(_parse_or, _build_or),
    "and-ub": Rule(_parse_product, _product("and-ub", "<=")),
    "disjoint": Rule(_parse_product, _product("disjoint", "=")),
    "injective": Rule(_parse_injective, _build_injective),
    "ind-geq": Rule(_parse_ind("witness"), _build_ind_geq),
    "ind-leq": Rule(_parse_ind("hx", "hy"), _build_ind_leq),
    "close": Rule(_parse_close, _build_close),
}


# ---------------------------------------------------------------------------
# Script checking


def apply_rule(
    facts: Sequence[CountFact], app: RuleApp
) -> tuple[tuple[Obligation, ...], CountFact]:
    """The premises of ``app`` and the fact they admit, given the ``facts``
    admitted before it; nothing is sent."""
    return RULES[app.rule].build(facts, *app.args)


def ask_in_order(
    session: Session, obligations: Sequence[Obligation], signature: Signature
) -> Optional[tuple[Obligation, Answer]]:
    """Ask ``obligations`` in order and stop at the first that is not proved:
    that obligation and its answer, or None when every one is proved."""
    for obligation in obligations:
        answer = session.ask(obligation, signature)
        if answer.status != "proved":
            return obligation, answer
    return None


def check_script(script: ProofScript, session: Session) -> ScriptResult:
    """Ask each step's premises in order, admitting a rule's fact once all of
    them are proved, then the goal; the first premise not proved ends the
    script."""
    facts: list[CountFact] = []
    for step in script.steps:
        for app in step.apps:
            premises, fact = apply_rule(facts, app)
            stop = ask_in_order(session, premises, script.signature)
            if stop:
                return _stopped(f"step {step.index}", *stop, facts)
            facts.append(fact)
    if script.goal is None:
        return ScriptResult("failed", "goal", "script has no goal", tuple(facts))
    axioms = [f.axiom for f in facts]
    goal = entailment(axioms, script.goal, "goal", "goal not entailed by admitted facts")
    stop = ask_in_order(session, (goal,), script.signature)
    if stop:
        return _stopped("goal", *stop, facts)
    return ScriptResult("passed", None, "", tuple(facts))


def _stopped(
    at: str, premise: Obligation, answer: Answer, facts: Sequence[CountFact]
) -> ScriptResult:
    """The script ended at ``at`` by ``premise``, which ``answer`` did not prove."""
    if answer.status == "unknown":
        reason = f"{premise.label}: solver returned unknown"
    else:
        reason = premise.failure
    return ScriptResult(answer.status, at, reason, tuple(facts), answer.model)


# ---------------------------------------------------------------------------
# Script parsing


def parse_proof(text: str) -> ProofScript:
    items = read_form(text, "proof")
    scope = _Scope()
    steps: list[ProofStep] = []
    goal: Optional[Term] = None
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
            goal = scope.term(item[1], {}, BOOL, "goal")
        else:
            raise SexprError(f"proof: unexpected {to_text(item)}")
    return ProofScript(scope.counts, tuple(steps), goal, scope.sig)


def _declare(item: list, scope: _Scope) -> None:
    _arity(item, 4)
    name = atom(item[1], str, "a predicate name")
    if name in scope.counts:
        raise SexprError(f"predicate {name} declared twice")
    if not isinstance(item[2], list) or not all(
        isinstance(b, list) and len(b) == 2 and isinstance(b[0], str) for b in item[2]
    ):
        raise SexprError(f"declare-pred {name}: expected ((var sort) ...)")
    variables = tuple((b[0], sort_from_sexpr(b[1])) for b in item[2])
    if not (isinstance(item[3], list) and item[3] and item[3][0] == "counted"):
        raise SexprError("declare-pred needs a (counted ...) section")
    counted = item[3][1:]
    sorts = dict(variables)
    if len(sorts) != len(variables):
        raise SexprError(f"predicate {name}: duplicate variables")
    for c in counted:
        if c not in sorts:
            raise SexprError(f"predicate {name}: counted var {c} undeclared")
    if not counted:
        raise SexprError(f"predicate {name}: no counted variables")
    body = scope.term(item[4], sorts, BOOL, f"predicate {name} body")
    params = tuple(Var(n, s) for n, s in variables if n not in counted)
    counted_vars = tuple(Var(c, sorts[c]) for c in counted)
    ct = CountTerm(name, body, counted_vars, params, params)
    scope.sig = scope.sig.extend(ct.symbol, tuple(v.sort for v in params), INT)
    scope.counts[name] = ct


def _parse_app(form: Sexpr, scope: _Scope) -> RuleApp:
    if not isinstance(form, list) or not form or not isinstance(form[0], str):
        raise SexprError(f"bad rule application {form!r}")
    rule = RULES.get(form[0])
    if rule is None:
        raise SexprError(f"unknown rule {form[0]!r}")
    return RuleApp(form[0], rule.parse(form, scope))
