"""Explicit-state brute-force engine for finite instantiations.

Enumerates bounded traces, decides a property's ``G`` body and ``F``
difference on pairs of them, counts difference-equivalence classes, and
model-counts finite-domain formulas exactly.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from types import CodeType
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


# what an evaluation raises: an oracle error, or a TypeError where a term
# built in code is ill sorted (say, ``<`` on an array)
_ERRORS = (OracleError, TypeError)


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


def _equal_values(values: Sequence[Value]) -> Callable[[Value], Sequence[Value]]:
    """Map a value to the members of ``values`` that ``values_equal`` it, repeats included."""
    if all(type(v) in (int, bool) for v in values):
        # keyed by (is it a bool, value), as values_equal tells True from 1
        table: dict[tuple[bool, Value], list[Value]] = {}
        for v in values:
            table.setdefault((isinstance(v, bool), v), []).append(v)
        return lambda value: table.get((isinstance(value, bool), value), ())
    return lambda value: [v for v in values if values_equal(value, v)]


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


def _tested(table: dict, test: Callable[..., Value], *args: Value) -> Value:
    """``test(*args)``, remembered in ``table`` by the arguments' ``_typed`` values."""
    key = tuple(map(_typed, args))
    if key not in table:
        table[key] = test(*args)
    return table[key]


_HELPERS = {
    "_pow2": _pow2, "_fact": _fact, "_fail": _fail, "_unbound": _unbound, "_div": _div,
    "_mod": _mod, "_array": _array, "_distinct": _distinct, "_eq": values_equal, "_FArray": FArray,
    "_starmap": itertools.starmap, "_ERRORS": _ERRORS, "_tested": _tested,
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
    """The text of functions and the globals they need. A variable outside
    the scope is read, by ``reads``, from ``env`` by mangled name ("env"),
    as copy ``j`` from state ``s<j>`` ("states"), or not, unbound ("none")."""

    def __init__(self, reads: str, checked: bool, quant_lo: int, quant_hi: int, funcs) -> None:
        self.reads, self.checked, self.funcs = reads, checked, funcs
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
        if self.reads == "states" and var.copy in (1, 2) and not var.primed:
            mapping, key = f"s{var.copy}", var.name
        elif self.reads != "env":
            return f"_unbound({name!r})"
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


def _define(source: _Source, lines: Sequence[str], name: str) -> Callable:
    """The function ``name`` that ``lines`` define, with ``source``'s globals."""
    text = "\n".join(lines)
    if text not in _CODE:
        _CODE[text] = compile(text, "<oracle>", "exec")
    namespace = {**_HELPERS, **source.globals}
    exec(_CODE[text], namespace)
    return namespace[name]


def _compile(
    term: Term, states: bool, quant_lo: int, quant_hi: int, funcs=None, checked: bool = False
) -> Callable[..., Value]:
    """``term`` as a function of ``env``, or of ``s1, s2`` when ``states``."""
    params = "s1, s2" if states else "env"
    source = _Source("states" if states else "env", checked, quant_lo, quant_hi, funcs)
    if checked:
        lines = source.body(term, {}, "    ")
    else:
        again = source.const(partial(_compile, term, states, quant_lo, quant_hi, funcs, True))
        lines = ["    try:", *source.body(term, {}, "        "),
                 "    except KeyError:", f"        return {again}()({params})"]
    return _define(source, [f"def term({params}):", *lines], "term")


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


# ---------------------------------------------------------------------------
# Generated search
#
# ``init``, ``tx`` and a counted formula are each searched by one generated
# generator, which yields the loop variables' values of every candidate the
# term accepts (see README). In ``_DROP`` mode (tx) an error drops the
# candidates under its test. In ``_ABORT`` mode (init, brute_count) it
# propagates, so nothing is tested, defined or filtered ahead of an earlier
# conjunct that may raise, and ``_PLAIN`` decides which error it is.

_ABORT, _DROP, _PLAIN = "abort", "drop", "plain"

# a generated function raises an OracleError only by calling one of these
_RAISING = ("_div(", "_mod(", "_pow2(", "_fact(", "_fail(", "_array(", "_unbound(")


def _per_term(build: Callable) -> Callable:
    """``build``, called once per term object and further arguments; each
    entry holds its term, so that no other term takes its id meanwhile."""
    built: dict[tuple, tuple] = {}

    def cached(term: Term, *args):
        key = (id(term), *args)
        if key not in built:
            built[key] = (term, build(term, *args))
        return built[key][1]

    return cached


def _reads(term: Term) -> set[str]:
    return {v.mangled for v in free_vars(term)}


@_per_term
def _search(
    term: Term, loops: tuple, fixed: tuple, mode: str, quant_lo: int, quant_hi: int
) -> tuple[Callable[..., Iterator[tuple]], frozenset[str]]:
    """The generated ``search(env, values, memo)`` of ``term``, and the loop
    variables it defines. ``values[j]`` lists the values of ``loops[j]``;
    for a defined one, it maps its value to the values it takes, in
    ``_ABORT`` mode, or tests it for domain membership, in ``_DROP`` mode.
    ``memo`` maps a conjunct's index to its test's table."""
    conjuncts = list(term.args) if isinstance(term, And) else [term]
    looped = set(loops)
    slot = {name: f"V{j}" for j, name in enumerate([*loops, *fixed])}
    source = _Source("none", False, quant_lo, quant_hi, None)
    lines: list[str] = []
    defs: dict[str, tuple[int, Term]] = {}  # loop variable -> (conjunct, right-hand side)
    reads: list[set[str]] = []
    raises: list[bool] = []
    calls: list[str] = []  # each conjunct's test, or the values its definition binds
    for i, c in enumerate(conjuncts):
        # a top-level (= x e) defines the loop variable x when neither e nor
        # an earlier conjunct reads x, and no earlier conjunct may raise
        t = c
        if mode != _PLAIN and not any(raises) and isinstance(c, Cmp) and c.op == "=":
            for side, rhs in ((c.left, c.right), (c.right, c.left)):
                x = side.mangled if isinstance(side, Var) else None
                if x in looped and x not in _reads(rhs) and not any(x in r for r in reads):
                    defs[x], t = (i, rhs), rhs
                    break
        reads.append(_reads(c))
        scope = {name: slot[name] for name in sorted(_reads(t) & slot.keys(), key=list(slot).index)}
        args = ", ".join(scope.values())
        body = source.body(t, scope, "        " if mode == _DROP else "    ")
        if mode == _DROP:  # an evaluation that raises gives (): false, and no value
            body = ["    try:", *body, "    except _ERRORS:", "        return ()"]
        lines += [f"def t{i}({args}):", *body]
        raises.append(mode == _ABORT and any(h in line for line in body for h in _RAISING))
        if t is c:
            calls.append(f"_tested(memo[{i}], t{i}, {args})" if mode == _DROP else f"t{i}({args})")
        else:
            j = loops.index(x)
            bind = f"(t{i}({args}),) if values[{j}](V{j})"
            calls.append(bind if mode == _DROP else f"values[{j}](t{i}({args}))")
    defined = {i: x for x, (i, _) in defs.items()}
    # a definition binds its variable once the loop variables it reads are
    # bound; the others loop in product order
    order: list[str] = []
    while len(order) < len(loops):
        ready = [x for x in defs if x not in order and _reads(defs[x][1]) & looped <= {*order}]
        order.append(ready[0] if ready else next(x for x in loops if x not in {*order, *defs}))
    # the level of each test: -2 to filter the one variable it reads that
    # loops, else the shallowest loop that binds what it reads (-1: before
    # the loops), and no shallower than an earlier conjunct that may raise,
    # or, in _PLAIN mode, than the deepest loop
    level = {}
    floor = len(order) - 1 if mode == _PLAIN else -2
    for i, uses in enumerate(r & looped for r in reads):
        if i in defined:
            at = order.index(defined[i])
        elif len(uses) == 1 and floor == -2 and not uses <= defs.keys():
            at = level[i] = -2
        else:
            at = level[i] = max(floor, -1, *map(order.index, uses))
        if raises[i]:
            floor = max(floor, at)

    # one generator expression: Python nests at most 20 loop statements
    lines.append("def search(env, values, memo):")
    lines += [f"    {slot[name]} = env[{name!r}]" for name in fixed]
    clauses = ["for _ in (0,)"]
    for at, x in enumerate([None, *order], -1):
        j = x and loops.index(x)
        if x in defs:
            clauses.append(f"for V{j} in {calls[defs[x][0]]}")
        elif x:
            kept = "".join(f" if {calls[i]}" for i in level if level[i] == -2 and x in reads[i])
            lines.append(f"    A{j} = [V{j} for V{j} in values[{j}]{kept}]")
            clauses.append(f"for V{j} in A{j}")
        clauses += [f"if {calls[i]}" for i in level if level[i] == at]
    yielded = "".join(f"V{j}, " for j in range(len(loops)))
    lines.append(f"    return (({yielded}) {' '.join(clauses)})")
    return _define(source, lines, "search"), frozenset(defs)


def _abort_search(term: Term, doms: Mapping[str, Domain], env: Mapping[str, Value], quant_lo: int,
                  quant_hi: int, cap: int, what: str, consume: Callable[[Iterator[tuple]], object]):
    """``consume`` of the tuples of values of the product of ``doms`` that
    ``term`` accepts, ``env``'s names fixed, once ``cap`` bounds the product.
    Where filtering the product in order would raise, this raises alike."""
    sizes = (dom.size() for dom in doms.values())
    if any(total > cap for total in itertools.accumulate(sizes, operator.mul)):
        raise CapExceeded(f"{what} exceeds cap {cap}")
    values = [list(dom) for dom in doms.values()]
    search, defined = _search(term, tuple(doms), tuple(env), _ABORT, quant_lo, quant_hi)
    matches = [_equal_values(v) if x in defined else v for x, v in zip(doms, values)]
    try:
        return consume(search(env, matches, None))
    except _ERRORS:
        plain, _ = _search(term, tuple(doms), tuple(env), _PLAIN, quant_lo, quant_hi)
        return consume(plain(env, values, None))


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


class TransitionPlan:
    """Everything ``successors`` derives from an instance, made once: the
    plan reflects the instance as it was when built, and its tests' memo
    tables live as long as it. ``enumerate_traces`` builds one per call."""

    def __init__(self, instance: FiniteInstance) -> None:
        doms = _var_domains(instance)
        self.key_order = sorted(doms)
        loops = tuple(f"{name}!" for name in self.key_order)
        tx, lo, hi = instance.system.tx, instance.quant_lo, instance.quant_hi
        self.search, defined = _search(tx, loops, tuple(doms), _DROP, lo, hi)
        # a defined variable's domain is not listed, as it may be large: its
        # values are tested, each against a scalar domain's or for an array
        self.values = [
            list(dom) if f"{name}!" not in defined
            else _equal_values(dom.values) if isinstance(dom, ScalarDomain)
            else lambda value: isinstance(value, FArray)
            for name, dom in sorted(doms.items())
        ]
        self.memo: defaultdict[int, dict] = defaultdict(dict)


def successors(
    instance: FiniteInstance, state: State, plan: Optional[TransitionPlan] = None
) -> list[State]:
    """The states ``tx`` allows after ``state``, within the domains.

    Candidates come from the generated ``tx`` search, in product order of the
    next-state variables sorted by name; one that a top-level ``(= x! e)``
    defines is assigned ``e``. A candidate is kept when every conjunct of
    ``tx`` holds on it, no evaluation raised and every value lies in its
    domain, whatever the order of the conjuncts. A later candidate with the
    state key of a kept one, type-exact (``true`` is not ``1``), is dropped.
    Raises ``OracleError`` when the instance is declared deterministic and
    more than one state remains.
    """
    if plan is None:
        plan = TransitionPlan(instance)
    out: list[State] = []
    seen = set()
    for combo in plan.search(state, plan.values, plan.memo):
        nxt = dict(zip(plan.key_order, combo))
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

    Initial states come from the generated ``init`` search, successors from
    ``successors``. The canonical order is lexicographic by the traces'
    tuples of state keys (``state_key``); traces with equal tuples keep the
    order in which they were expanded.
    """
    plan = TransitionPlan(instance)
    # A prefix travels with its sort key: its initial state's key, then the
    # rank of each later state among its predecessor's successors. Siblings
    # are distinct, so ranks order them as their keys do, and prefixes whose
    # states agree by key so far end in the same state and so have the same
    # siblings: the order is the one of full key tuples. Initial states are
    # not ranked: equal ones, from a domain that repeats a value, have equal
    # successors, and their traces must interleave.
    doms = _var_domains(instance, initial=True)
    initial = _abort_search(instance.system.init, doms, {}, instance.quant_lo, instance.quant_hi,
                            instance.cap, "state domain product", list)
    level: list[tuple[tuple[State, ...], tuple]] = []
    for state in (dict(zip(doms, combo)) for combo in initial):
        level.append(((state,), (_state_key(state, plan.key_order),)))
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


_predicate = _per_term(lambda body, quant_lo, quant_hi: _compile(body, True, quant_lo, quant_hi))


class BoundedPlan:
    """Compiled predicates and pinned tails for ``eval_bounded``.

    ``count_equivalence_classes`` builds one per call and hands it to every
    ``eval_bounded`` call, so that each last state's successors are computed
    once per state key on a transition plan built when first needed. Each
    predicate is compiled once per predicate object while this module lives.
    """

    def __init__(self, instance: FiniteInstance) -> None:
        self.instance = instance
        self._transitions: Optional[TransitionPlan] = None
        self._pinned: dict[tuple, bool] = {}

    def predicate(self, pred: StatePredicate) -> Callable[[State, State], Value]:
        """``pred`` as ``holds(state1, state2)``: copy ``j`` of a variable is
        read from ``state_j``."""
        return _predicate(pred.body, self.instance.quant_lo, self.instance.quant_hi)

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
    """Exact model count of ``formula`` over the counted variables' domains,
    from its generated search with the ``params`` not counted fixed. Where
    filtering the full product in order raises, so does this, with the
    first failing candidate's error; the cap applies to the full product."""
    env = {name: value for name, value in (params or {}).items() if name not in counted}
    return _abort_search(formula, counted, env, quant_lo, quant_hi, cap, "domain product",
                         lambda found: sum(1 for _ in found))
