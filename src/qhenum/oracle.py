"""Explicit-state brute-force engine for finite instantiations.

Enumerates bounded traces, decides a property's ``G`` body and ``F``
difference on pairs of them, counts difference-equivalence classes, and
model-counts finite-domain formulas exactly.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import partial
from types import CodeType, FunctionType
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from .qhl import HFinally, HGlobally, QhpProperty, StatePredicate
from .system import TransitionSystem
from .terms import (
    Add,
    And,
    App,
    BoolLit,
    Cmp,
    ConstArray,
    Distinct,
    Div,
    Forall,
    Implies,
    IntLit,
    Ite,
    Mod,
    Mul,
    Neg,
    Not,
    Or,
    PLAIN,
    Quant,
    Select,
    Store,
    Sub,
    Term,
    Var,
    _children,
    free_vars,
    BoolSort,
    IntSort,
)


class OracleError(ValueError):
    pass


class CapExceeded(OracleError):
    pass


DEFAULT_CAP = 10**6


# ---------------------------------------------------------------------------
# Values and domains


@dataclass(frozen=True)
class FArray:
    """Integer array with explicit window [lo, lo+len) and a default outside."""

    lo: int
    vals: tuple[int, ...]
    default: int = 0

    def get(self, i: int) -> int:
        if self.lo <= i < self.lo + len(self.vals):
            return self.vals[i - self.lo]
        return self.default

    def put(self, i: int, v: int) -> "FArray":
        if self.lo <= i < self.lo + len(self.vals):
            vals = list(self.vals)
            vals[i - self.lo] = v
            return FArray(self.lo, tuple(vals), self.default)
        if v == self.default:
            return self
        # grow the explicit window to cover i, padding with the default
        lo = min(self.lo, i)
        hi = max(self.lo + len(self.vals), i + 1)
        vals = [self.get(k) for k in range(lo, hi)]
        vals[i - lo] = v
        return FArray(lo, tuple(vals), self.default)


# the package's classes are named as strings in module-level aliases: typing
# caches every Union it builds, and a class held there keeps its module alive
# after the package is dropped from ``sys.modules`` and imported again
Value = Union[int, bool, "FArray"]


def values_equal(a: Value, b: Value) -> bool:
    # type-exact: True is not 1, also inside arrays
    if type(a) is not type(b):
        return False
    if type(a) is not FArray:
        return a == b
    lo = min(a.lo, b.lo)
    hi = max(a.lo + len(a.vals), b.lo + len(b.vals))
    # unequal defaults differ somewhere outside both windows
    return values_equal(a.default, b.default) and all(
        values_equal(a.get(i), b.get(i)) for i in range(lo, hi)
    )


@dataclass(frozen=True)
class ScalarDomain:
    values: tuple[Value, ...]

    def __iter__(self) -> Iterator[Value]:
        return iter(self.values)

    def size(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ArrayDomain:
    lo: int
    hi: int  # inclusive
    values: tuple[int, ...]
    default: int = 0

    def __iter__(self) -> Iterator[FArray]:
        width = self.hi - self.lo + 1
        for combo in itertools.product(self.values, repeat=width):
            yield FArray(self.lo, combo, self.default)

    def size(self) -> int:
        return len(self.values) ** (self.hi - self.lo + 1)


Domain = Union["ScalarDomain", "ArrayDomain"]

State = dict  # variable name -> Value


_INT = frozenset({int})


def _typed(value: Value) -> tuple:
    """A stand-in for ``value`` in a memo or state key. ``True == 1`` and
    both hash alike, so the stand-in carries each value's type name, also
    inside arrays, and stays orderable; an array of ints keeps its plain
    contents."""
    if type(value) is not FArray:
        return (type(value).__name__, value)
    if type(value.default) is int and _INT.issuperset(map(type, value.vals)):
        return ("arr", value.lo, value.vals, value.default)
    return ("typed-arr", value.lo, tuple(map(_typed, value.vals)), _typed(value.default))


def state_key(state: State) -> tuple:
    return _state_key(state, sorted(state))


def _state_key(state: State, order: Sequence[str]) -> tuple:
    out = []
    for name in order:
        v = state[name]
        if type(v) is FArray:
            out.append((name, *_typed(v)))
        else:
            # what _typed gives a scalar, inline: calling it for every scalar
            # made the keys of the oracle-traces states 26% slower (6.9 ms
            # against 5.5 ms for 2,052 keys, Python 3.11)
            out.append((name, type(v).__name__, v))
    return tuple(out)


@dataclass
class FiniteInstance:
    system: TransitionSystem
    domains: dict[str, Domain]
    params: dict[str, Value]
    depth: int
    # a checked claim: ``successors`` raises at a state with several successors
    deterministic: bool = False
    quant_lo: int = -2
    quant_hi: int = 8
    cap: int = DEFAULT_CAP
    # pins the *initial* value of a state variable without restricting how it
    # may evolve afterwards (unlike params, which freeze it for the whole run)
    init_fix: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise OracleError("depth must be >= 1")
        for name, _ in self.system.state_vars:
            if name in self.params:
                continue
            if name not in self.domains:
                raise OracleError(f"no domain for state variable {name}")


# ---------------------------------------------------------------------------
# Term evaluation
#
# A term is compiled into one generated Python function: one expression,
# each quantifier body a nested ``def`` over its bound values. Constants
# (quantifier combinations, ``funcs``, messages, non-int literals) are its
# globals, never its text. ``_CODE`` keeps each text's code object while this
# module lives, so compiling a term again builds only the function. Each
# OracleError is raised when its node is evaluated. A variable is a plain
# dict lookup; when one misses, the term is compiled with checked lookups and
# evaluated again, so that the error names the first unbound variable.

Compiled = Callable[[Mapping[str, Value]], Value]

_CODE: dict[str, CodeType] = {}


def _pow2(n: int, *_: Value) -> int:
    if n < 0:
        raise OracleError("pow2 of negative argument")
    return 2**n


def _fact(n: int, *_: Value) -> int:
    if n < 0:
        raise OracleError("fact of negative argument")
    return math.factorial(n)


def _fail(message: str, *_: Value) -> Value:
    raise OracleError(message)


def _unbound(name: str) -> Value:
    raise OracleError(f"unbound variable {name} in oracle evaluation")


def _div(a: int, b: int) -> int:
    if b <= 0:
        raise OracleError("division by non-positive divisor")
    return a // b


def _mod(a: int, b: int) -> int:
    if b <= 0:
        raise OracleError("modulus by non-positive divisor")
    return a % b


def _array(value: Value, op: str) -> FArray:
    if not isinstance(value, FArray):
        raise OracleError(f"{op} on non-array value")
    return value


def _distinct(*vals: Value) -> bool:
    return all(not values_equal(v, w) for i, v in enumerate(vals) for w in vals[i + 1 :])


_HELPERS = {
    "_pow2": _pow2, "_fact": _fact, "_fail": _fail, "_unbound": _unbound, "_div": _div,
    "_mod": _mod, "_array": _array, "_distinct": _distinct, "_eq": values_equal, "_FArray": FArray,
    "_starmap": itertools.starmap,
}
# Each node's text over its children's texts, in ``_children`` order: a
# string fills one slot per child, a pair joins all children. A connective
# gives a bool once the first argument that decides it is evaluated.
_TEXT = {
    Sub: "({} - {})", Neg: "(-{})", Mul: "({} * {})", Div: "_div({}, {})",
    Mod: "_mod({}, {})", Not: "(not {})", Implies: "((not {}) or {})",
    Ite: "({1} if {0} else {2})", Select: "_array({}, 'select').get({})",
    Store: "_array({}, 'store').put({}, {})", ConstArray: "_FArray(0, (), {})",
    Add: ("sum([{}])", ", "), Distinct: ("_distinct({})", ", "),
    And: ("(not not ({}))", " and "), Or: ("(not not ({}))", " or "),
}
_COMPARE = {"=": "_eq({}, {})", "<": "({} < {})", "<=": "({} <= {})", ">": "({} > {})"}
_NESTING = 50  # term levels in one expression; each opens at most three brackets


class _Source:
    """The text of one term's function and the globals it needs. It reads
    copy ``j`` of a variable from state ``s<j>`` when ``states`` is set, else
    each variable from ``env`` by mangled name."""

    def __init__(self, states: bool, checked: bool, quant_lo: int, quant_hi: int, funcs) -> None:
        self.states, self.checked, self.funcs = states, checked, funcs
        self.quant_lo, self.quant_hi = quant_lo, quant_hi
        self.globals: dict[str, object] = {}
        self.names = 0
        self.defs: list[str] = []
        self.indent = ""

    def fresh(self, prefix: str) -> str:
        self.names += 1
        return f"{prefix}{self.names}"

    def const(self, value: object) -> str:
        name = f"K{len(self.globals)}"
        self.globals[name] = value
        return name

    def read(self, var: Var, name: str) -> str:
        mapping, key = "env", name
        if self.states:
            if var.copy not in (1, 2) or var.primed:
                return f"_unbound({name!r})"
            mapping, key = f"s{var.copy}", var.name
        if self.checked:
            return f"({mapping}[{key!r}] if {key!r} in {mapping} else _unbound({name!r}))"
        return f"{mapping}[{key!r}]"

    def body(self, t: Term, scope: Mapping[str, str], indent: str) -> list[str]:
        """Lines that define the nested functions of ``t`` and return its value."""
        outer = self.defs, self.indent
        self.defs, self.indent = [], indent
        value = self.expr(t, scope, 0)
        lines = [*self.defs, f"{indent}return {value}"]
        self.defs, self.indent = outer
        return lines

    def define(self, params: Sequence[str], t: Term, scope: Mapping[str, str]) -> str:
        fn = self.fresh("f")
        lines = self.body(t, scope, self.indent + "    ")
        self.defs += [f"{self.indent}def {fn}({', '.join(params)}):", *lines]
        return fn

    def expr(self, t: Term, scope: Mapping[str, str], depth: int) -> str:
        kind = type(t)
        if kind is Var:
            name = t.mangled
            return scope.get(name) or self.read(t, name)
        if kind is IntLit or kind is BoolLit:
            return f"({t.value!r})" if type(t.value) is int else self.const(t.value)
        if depth > _NESTING:
            # a def starts a statement, below the 200 nested brackets that
            # Python's tokenizer allows
            return self.define((), t, scope) + "()"
        if isinstance(t, Quant):
            return self.quantifier(t, scope)
        if kind not in _TEXT and kind is not Cmp and kind is not App:
            return f"_fail({self.const(f'cannot evaluate {t!r}')})"
        args = []
        for child in _children(t):  # a loop, not a comprehension: one frame per level
            args.append(self.expr(child, scope, depth + 1))
        if kind is Cmp:
            return _COMPARE.get(t.op, "({} >= {})").format(*args)
        if kind is App:
            if self.funcs and t.func in self.funcs:
                return f"{self.const(self.funcs[t.func])}({', '.join(args)})"
            if t.func in ("pow2", "fact"):
                return f"_{t.func}({', '.join(args)})"
            args.insert(0, self.const(f"uninterpreted function {t.func} in oracle evaluation"))
            return f"_fail({', '.join(args)})"
        text = _TEXT[kind]
        if isinstance(text, str):
            return text.format(*args)
        if not args and (kind is And or kind is Or):
            return str(kind is And)
        return text[0].format(text[1].join(args))

    def quantifier(self, t: Quant, scope: Mapping[str, str]) -> str:
        ranges: list[Sequence[Value]] = []
        for _, sort in t.bound:
            if isinstance(sort, IntSort):
                ranges.append(range(self.quant_lo, self.quant_hi + 1))
            elif isinstance(sort, BoolSort):
                ranges.append((False, True))
            else:
                return f"_fail({self.const(f'cannot enumerate quantifier over {sort}')})"
        params = [self.fresh("v") for _ in t.bound]
        inner = {**scope, **{name: p for (name, _), p in zip(t.bound, params)}}
        fn = self.define(params, t.body, inner)
        combos = self.const(tuple(itertools.product(*ranges)))
        # every combination is evaluated, so that an error at any bound value
        # surfaces whatever the others decide
        return f"{'all' if isinstance(t, Forall) else 'any'}([*_starmap({fn}, {combos})])"


def _compile(
    term: Term, states: bool, quant_lo: int, quant_hi: int, funcs=None, checked: bool = False
) -> Callable[..., Value]:
    """``term`` as a function of ``env``, or of ``s1, s2`` when ``states``."""
    params = "s1, s2" if states else "env"
    source = _Source(states, checked, quant_lo, quant_hi, funcs)
    if checked:
        lines = source.body(term, {}, "    ")
    else:
        again = source.const(partial(_compile, term, states, quant_lo, quant_hi, funcs, True))
        lines = ["    try:", *source.body(term, {}, "        "),
                 "    except KeyError:", f"        return {again}()({params})"]
    text = "\n".join([f"def term({params}):", *lines])
    code = _CODE.get(text)
    if code is None:
        module = compile(text, "<oracle term>", "exec")
        code = _CODE[text] = next(c for c in module.co_consts if isinstance(c, CodeType))
    return FunctionType(code, {**_HELPERS, **source.globals})


def compile_term(
    term: Term,
    quant_lo: int = -2,
    quant_hi: int = 8,
    funcs: Optional[Mapping[str, object]] = None,
) -> Compiled:
    """Compile ``term`` into a function of an env keyed by mangled names.

    Quantifiers range over ``[quant_lo, quant_hi]`` (Int) or both booleans
    and evaluate their body at every combination.
    """
    return _compile(term, False, quant_lo, quant_hi, funcs)


def eval_term(
    term: Term,
    env: Mapping[str, Value],
    quant_lo: int = -2,
    quant_hi: int = 8,
    funcs: Optional[Mapping[str, object]] = None,
) -> Value:
    """Evaluate ``term`` in ``env`` (keyed by mangled variable names)."""
    return compile_term(term, quant_lo, quant_hi, funcs)(env)


def _memoized(compiled: Compiled, names: Sequence[str]) -> Compiled:
    """``compiled``, remembering its value for each binding of ``names``.

    ``names`` must hold every env key the evaluation may read. An env that
    lacks one of them is not looked up; an evaluation that raises is not
    stored, so it raises again on the next call.
    """
    table: dict[tuple, Value] = {}

    def memo(env: Mapping[str, Value]) -> Value:
        try:
            key = tuple([_typed(env[name]) for name in names])
        except KeyError:
            return compiled(env)
        try:
            return table[key]
        except KeyError:
            value = table[key] = compiled(env)
            return value

    return memo


def _memo_conjunction(conjuncts: Sequence[Term], quant_lo: int, quant_hi: int) -> Compiled:
    """``compile_term(And(conjuncts))``, each conjunct memoized on the values
    of its own free variables. Conjuncts are evaluated in order up to the
    first false one; the tables live as long as the returned closure."""
    # a compiled term reads the env only at its variables' mangled names, and
    # a bound variable's name is rebound by its quantifier: so ``free_vars``
    # names every key a conjunct's value can depend on
    parts = [
        _memoized(compile_term(c, quant_lo, quant_hi), sorted({v.mangled for v in free_vars(c)}))
        for c in conjuncts
    ]

    def conj(env: Mapping[str, Value]) -> bool:
        for part in parts:
            if not part(env):
                return False
        return True

    return conj


# ---------------------------------------------------------------------------
# Trace enumeration


@dataclass(frozen=True)
class BoundedTrace:
    states: tuple  # tuple of State dicts (treated as immutable)

    @property
    def depth(self) -> int:
        return len(self.states)


def _var_domains(instance: FiniteInstance, initial: bool = False) -> dict[str, Domain]:
    doms: dict[str, Domain] = {}
    for name, _ in instance.system.state_vars:
        if name in instance.params:
            doms[name] = ScalarDomain((instance.params[name],))
        elif initial and name in instance.init_fix:
            doms[name] = ScalarDomain((instance.init_fix[name],))
        else:
            doms[name] = instance.domains[name]
    return doms


def _product_states(doms: Mapping[str, Domain], cap: int) -> Iterator[State]:
    """Every state of the domain product, in product order; the cap is
    checked when this is called."""
    names = list(doms)
    total = 1
    for d in doms.values():
        total *= d.size()
        if total > cap:
            raise CapExceeded(f"state domain product exceeds cap {cap}")
    return (dict(zip(names, combo)) for combo in itertools.product(*(list(doms[n]) for n in names)))


def _value_index(values: Sequence[Value]) -> Callable[[Value], Sequence[int]]:
    """Map a value to the indices of the domain values ``values_equal`` to it."""
    if all(type(v) in (int, bool) for v in values):
        # keyed by (is it a bool, value), as values_equal tells True from 1
        table: dict[tuple[bool, Value], list[int]] = {}
        for i, v in enumerate(values):
            table.setdefault((isinstance(v, bool), v), []).append(i)
        return lambda value: table.get((isinstance(value, bool), value), ())
    return lambda value: [i for i, v in enumerate(values) if values_equal(value, v)]


def _member(dom: Domain) -> Callable[[Value], object]:
    """A test, truthy for the values ``successors`` keeps in ``dom``."""
    if isinstance(dom, ScalarDomain):
        return _value_index(dom.values)
    return lambda value: isinstance(value, FArray)


def _conjuncts(term: Term) -> list[Term]:
    return list(term.args) if isinstance(term, And) else [term]


def _definitional_order(
    conjuncts: Sequence[Term],
    target: Callable[[Term], Optional[str]],
    ready: Callable[[int, str, Term, set[str]], bool],
) -> list[tuple[int, str, Term]]:
    """The equations among ``conjuncts`` that define a variable, in an order
    in which each right-hand side can be evaluated.

    ``target(side)`` names the variable an equation side may define, or is
    None; ``ready(i, x, rhs, defined)`` says whether conjunct ``i`` may define
    ``x`` as ``rhs`` once the variables in ``defined`` are. Returns
    ``(i, x, rhs)`` triples; each conjunct and each variable is used once.
    """
    defs: list[tuple[int, str, Term]] = []
    defined: set[str] = set()
    pending = list(range(len(conjuncts)))
    changed = True
    while changed:
        changed = False
        for i in pending:
            c = conjuncts[i]
            if not (isinstance(c, Cmp) and c.op == "="):
                continue
            for lhs, rhs in ((c.left, c.right), (c.right, c.left)):
                name = target(lhs)
                if name is not None and name not in defined and ready(i, name, rhs, defined):
                    defs.append((i, name, rhs))
                    defined.add(name)
                    pending.remove(i)
                    changed = True
                    break
            if changed:
                break
    return defs


def _primed_name(side: Term) -> Optional[str]:
    if isinstance(side, Var) and side.primed and side.copy is None:
        return side.name
    return None


class TransitionPlan:
    """Everything ``successors`` derives from an instance, compiled once.

    ``enumerate_traces`` builds one per call and hands it to every
    ``successors`` call; the plan reflects the instance as it was when built.
    ``tx`` remembers each conjunct's values.
    """

    def __init__(self, instance: FiniteInstance) -> None:
        system = instance.system
        lo, hi = instance.quant_lo, instance.quant_hi
        names = [name for name, _ in system.state_vars]
        conjuncts = _conjuncts(system.tx)
        # variables whose primed copy never appears alone on one side of a
        # top-level equation are genuine choices; definitions may depend on them
        # because choices are assigned before the definitions are evaluated
        eq_defined = {
            name
            for c in conjuncts
            if isinstance(c, Cmp) and c.op == "="
            for name in (_primed_name(c.left), _primed_name(c.right))
            if name is not None
        }
        choices = set(names) - eq_defined

        def ready(i: int, name: str, rhs: Term, defined: set[str]) -> bool:
            return {v.name for v in free_vars(rhs) if v.primed} <= defined | choices

        defs = _definitional_order(conjuncts, _primed_name, ready)
        used = {i for i, _, _ in defs}
        rest = tuple(c for i, c in enumerate(conjuncts) if i not in used)
        free = sorted(set(names) - {name for _, name, _ in defs})
        doms = _var_domains(instance)
        self.names = names
        self.key_order = sorted(names)
        # the definitions hold by construction, so tx checks only the rest
        self.tx = _memo_conjunction(rest, lo, hi)
        self.defs = [(f"{name}!", compile_term(rhs, lo, hi)) for _, name, rhs in defs]
        self.free_keys = [f"{name}!" for name in free]
        self.free_values = [list(doms[name]) for name in free]
        self.next_vars = [(name, f"{name}!", _member(doms[name])) for name in names]


def successors(
    instance: FiniteInstance, state: State, plan: Optional[TransitionPlan] = None
) -> list[State]:
    """The states ``tx`` allows after ``state``, within the domains.

    Candidates come in product order of the free next-state variables' domain
    values (after solving the ``tx`` equations); a candidate is kept when
    ``tx`` holds on it, no evaluation raised and every value lies in its
    variable's domain. A candidate whose state key equals an earlier kept
    one, type-exact (``true`` is not ``1``), is dropped; no key is built
    before a second candidate passes these checks. Raises ``OracleError``
    when the instance is declared deterministic and more than one state
    remains.
    """
    if plan is None:
        plan = TransitionPlan(instance)
    base_env = {name: state[name] for name in plan.names}
    out: list[State] = []
    seen = set()
    for combo in itertools.product(*plan.free_values):
        env = dict(base_env)
        env.update(zip(plan.free_keys, combo))
        try:
            for key, rhs in plan.defs:
                env[key] = rhs(env)
            if not plan.tx(env):
                continue
        except OracleError:
            continue
        # keep successors inside the declared domains
        nxt = {}
        for name, key, member in plan.next_vars:
            value = env[key]
            if not member(value):
                break
            nxt[name] = value
        else:
            if out and not seen:
                seen.add(_state_key(out[0], plan.key_order))
            if seen:
                key = _state_key(nxt, plan.key_order)
                if key in seen:
                    continue
                seen.add(key)
            out.append(nxt)
    if instance.deterministic and len(out) > 1:
        raise OracleError("instance declared deterministic but a state has several successors")
    return out


def _initial_states(instance: FiniteInstance) -> list[State]:
    """The states of the initial domain product that ``init`` accepts.

    A conjunct ``(= x e)`` of init defines ``x`` when ``x`` has a scalar
    domain, is not free in ``e`` and is free in no earlier conjunct. Then
    ``x`` takes only the domain values equal to ``e``, and init is evaluated
    in full on each such candidate. Where ``e`` equals no domain value, init
    is evaluated on one candidate, so that an earlier conjunct that raises
    still raises. A conjunct whose only free variable is an unsolved ``x``,
    free in no earlier conjunct, is evaluated once per value of ``x`` first,
    and ``x`` keeps only the values it holds on. On any OracleError, or when
    that leaves a domain empty, the whole product goes through the plain
    filter, which raises the first failing candidate's error.
    """
    doms = _var_domains(instance, initial=True)
    product = _product_states(doms, instance.cap)
    conjuncts = _conjuncts(instance.system.init)
    frees = [{v.mangled for v in free_vars(c)} for c in conjuncts]

    def target(side: Term) -> Optional[str]:
        # a defined variable needs a first value to stand in for it
        if isinstance(side, Var) and side.tag == PLAIN:
            dom = doms.get(side.name)
            if isinstance(dom, ScalarDomain) and dom.values:
                return side.name
        return None

    def ready(i: int, name: str, rhs: Term, defined: set[str]) -> bool:
        if name in {v.mangled for v in free_vars(rhs)}:
            return False
        return not any(name in f for f in frees[:i])

    defs = _definitional_order(conjuncts, target, ready)
    lo, hi = instance.quant_lo, instance.quant_hi
    init = _memo_conjunction(conjuncts, lo, hi)
    names = list(doms)
    values = {name: list(doms[name]) for name in names}
    solved = [(x, compile_term(rhs, lo, hi), _value_index(values[x])) for _, x, rhs in defs]
    defined = {x for x, _, _ in solved}
    others = [name for name in names if name not in defined]
    # conjuncts whose one free variable is unsolved and free in no earlier
    # conjunct: such a conjunct rejects a value on every candidate, and the
    # conjuncts before it, which do not read the value, raise on a kept value
    # wherever they raise on a rejected one
    filters = []
    for i, free in enumerate(frees):
        name = next(iter(free)) if len(free) == 1 else None
        if name in others and not any(name in f for f in frees[:i]):
            filters.append((name, compile_term(conjuncts[i], lo, hi)))

    def candidate(index: Mapping[str, int]) -> State:
        # a variable not solved yet takes its first value
        return {name: values[name][index.get(name, 0)] for name in names}

    try:
        for name, holds in filters:
            values[name] = [v for v in values[name] if holds({name: v})]
        # with a domain emptied, only the plain filter tells whether an
        # earlier conjunct raises
        if all(values.values()):
            found: list[State] = []
            for combo in itertools.product(*(range(len(values[n])) for n in others)):
                partial = [dict(zip(others, combo))]
                for x, rhs, lookup in solved:
                    grown = []
                    for index in partial:
                        matches = lookup(rhs(candidate(index)))
                        if not matches:
                            # every candidate fails this equation, after the
                            # conjuncts before it, which may raise
                            init(candidate(index))
                        grown.extend({**index, x: k} for k in matches)
                    partial = grown
                found.extend(state for state in map(candidate, partial) if init(state))
            return found
    except OracleError:
        pass
    return [s for s in product if init(s)]


def _ranks(states: Sequence[State], order: Sequence[str]) -> Sequence[int]:
    """The place of each of ``states`` in their order by state key; a lone
    state gets 0 without a key."""
    if len(states) < 2:
        return (0,) * len(states)
    keys = [_state_key(s, order) for s in states]
    ranks = [0] * len(keys)
    for rank, i in enumerate(sorted(range(len(keys)), key=keys.__getitem__)):
        ranks[i] = rank
    return ranks


def enumerate_traces(instance: FiniteInstance) -> list[BoundedTrace]:
    """All depth-d trace prefixes of the instance, in canonical order.

    The canonical order is lexicographic by the traces' tuples of state keys
    (``state_key``); traces with equal tuples keep the order in which they
    were expanded: initial states in domain product order, successors in
    ``successors`` order.
    """
    plan = TransitionPlan(instance)
    # A prefix travels with its sort key: its initial state's key, then the
    # rank of each later state among its predecessor's successors. Siblings
    # are distinct, so ranks order them as their keys do, and prefixes whose
    # states agree by key so far end in the same state and so have the same
    # siblings: the order is the one of full key tuples. Initial states are
    # not ranked: equal ones, from a domain that repeats a value, have equal
    # successors, and their traces must interleave.
    level: list[tuple[tuple[State, ...], tuple]] = [
        ((s,), (_state_key(s, plan.key_order),)) for s in _initial_states(instance)
    ]
    for _ in range(instance.depth - 1):
        nxt_level: list[tuple[tuple[State, ...], tuple]] = []
        for prefix, order in level:
            states = successors(instance, prefix[-1], plan)
            for succ, rank in zip(states, _ranks(states, plan.key_order)):
                nxt_level.append((prefix + (succ,), order + (rank,)))
                if len(nxt_level) > instance.cap:
                    raise CapExceeded(f"trace count exceeds cap {instance.cap}")
        level = nxt_level
    level.sort(key=operator.itemgetter(1))
    return [BoundedTrace(states) for states, _ in level]


# ---------------------------------------------------------------------------
# Bounded evaluation


class BoundedPlan:
    """Compiled predicates and pinned tails for ``eval_bounded``.

    ``count_equivalence_classes`` builds one per call and hands it to every
    ``eval_bounded`` call, so that each predicate is compiled once and each
    last state's successors are computed once per state key on a transition
    plan built when first needed. Predicates are keyed by object identity
    and held with their key.
    """

    def __init__(self, instance: FiniteInstance) -> None:
        self.instance = instance
        self.quant_lo, self.quant_hi = instance.quant_lo, instance.quant_hi
        self._preds: dict[int, tuple[StatePredicate, Callable[[State, State], Value]]] = {}
        self._transitions: Optional[TransitionPlan] = None
        self._pinned: dict[tuple, bool] = {}

    def predicate(self, pred: StatePredicate) -> Callable[[State, State], Value]:
        """``pred`` as ``holds(state1, state2)``: copy ``j`` of a variable is
        read from ``state_j``."""
        entry = self._preds.get(id(pred))
        if entry is None:
            holds = _compile(pred.body, True, self.quant_lo, self.quant_hi)
            entry = self._preds[id(pred)] = (pred, holds)
        return entry[1]

    def pinned(self, trace: BoundedTrace) -> bool:
        """Whether the last state of ``trace`` has itself as its only
        successor, so that the trace stays in it forever."""
        plan = self._transitions
        if plan is None:
            plan = self._transitions = TransitionPlan(self.instance)
        last = trace.states[-1]
        key = _state_key(last, plan.key_order)
        pinned = self._pinned.get(key)
        if pinned is None:
            nxt = successors(self.instance, last, plan)
            pinned = self._pinned[key] = len(nxt) == 1 and _state_key(nxt[0], plan.key_order) == key
        return pinned


def eval_bounded(
    formula: Union[HFinally, HGlobally],
    first: BoundedTrace,
    second: BoundedTrace,
    instance: FiniteInstance,
    plan: Optional[BoundedPlan] = None,
) -> Optional[bool]:
    """Bounded verdict of ``G pred`` or ``F pred`` at position 0, with
    ``first`` as copy 1 and ``second`` as copy 2 of ``pred``.

    The prefix decides ``G`` false and ``F`` true. Otherwise the verdict
    depends on the infinite tail, and is given (``G`` true, ``F`` false)
    only when both traces are pinned: the last state of each has itself as
    its only successor, so the prefix's last position repeats forever.
    Pinning is asked only once the prefix has not decided; else ``None``.
    """
    if plan is None:
        plan = BoundedPlan(instance)
    if first.depth != second.depth or first.depth == 0:
        raise OracleError("traces must be non-empty and of equal depth")
    holds = plan.predicate(formula.pred)
    decided = isinstance(formula, HFinally)  # the value that decides on the prefix
    for p in range(first.depth):
        if bool(holds(first.states[p], second.states[p])) is decided:
            return decided
    if plan.pinned(first) and plan.pinned(second):
        return not decided
    return None


# ---------------------------------------------------------------------------
# Class counting and model counting


def count_equivalence_classes(
    instance: FiniteInstance,
    prop: QhpProperty,
    pivot: BoundedTrace,
    traces: Optional[Sequence[BoundedTrace]] = None,
) -> Union[int, str]:
    """Number of difference-equivalence classes among body-related traces.

    Returns ``"unknown"`` if any body or pairwise difference verdict is
    ``None`` (see ``eval_bounded``).
    """
    if traces is None:
        traces = enumerate_traces(instance)
    plan = BoundedPlan(instance)
    candidates = []
    for t in traces:
        verdict = eval_bounded(prop.body, pivot, t, instance, plan)
        if verdict is None:
            return "unknown"
        if verdict:
            candidates.append(t)
    if not candidates:
        return 0
    n = len(candidates)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            delta = eval_bounded(prop.diff, candidates[i], candidates[j], instance, plan)
            if delta is None:
                return "unknown"
            if not delta:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    return len({find(i) for i in range(n)})


def brute_count(
    formula: Term,
    counted: Mapping[str, Domain],
    params: Optional[Mapping[str, Value]] = None,
    quant_lo: int = -2,
    quant_hi: int = 8,
    cap: int = DEFAULT_CAP,
) -> int:
    """Exact model count of ``formula`` over the counted variables' domains."""
    names = list(counted)
    total = 1
    for dom in counted.values():
        total *= dom.size()
        if total > cap:
            raise CapExceeded(f"domain product exceeds cap {cap}")
    holds = compile_term(formula, quant_lo, quant_hi)
    base_env: dict[str, Value] = dict(params or {})
    count = 0
    for combo in itertools.product(*(list(counted[n]) for n in names)):
        env = dict(base_env)
        env.update(zip(names, combo))
        if holds(env):
            count += 1
    return count
