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
from functools import cached_property, partial
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from .qhl import QhpProperty
from .system import TransitionSystem
from .terms import (
    Add,
    And,
    App,
    ArraySort,
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
    Record,
    Select,
    Store,
    Sub,
    Term,
    PRIMED,
    Var,
    _children,
    free_vars,
    mangle,
    BoolSort,
    IntSort,
    PLAIN,
    sort_to_text,
)


class OracleError(ValueError):
    pass


class CapExceeded(OracleError):
    pass


DEFAULT_CAP = 10**6
# the range of an Int quantifier, ``(lo, hi)`` inclusive, unless given
DEFAULT_QUANT = (-2, 8)


# ---------------------------------------------------------------------------
# Values and domains


class FArray(Record):
    """Integer array with explicit window [lo, lo+len) and a default outside."""

    lo: int
    vals: tuple[int, ...]
    default: int = 0

    def get(self, i: int) -> int:
        if self.lo <= i < self.lo + len(self.vals):
            return self.vals[i - self.lo]
        return self.default

    def put(self, i: int, v: int) -> "FArray":
        # the explicit window grown to cover i, padded with the default
        pad = [self.default]
        vals = pad * (self.lo - i) + list(self.vals) + pad * (i + 1 - self.lo - len(self.vals))
        if len(vals) > len(self.vals) and values_equal(v, self.default):
            return self  # outside the window, v is stored already
        lo = min(self.lo, i)
        vals[i - lo] = v
        return FArray(lo, tuple(vals), self.default)


# the package's classes are named as strings in module-level aliases: typing
# caches every Union it builds, and a class held there keeps its module alive
# after the package is dropped from ``sys.modules`` and imported again
Value = Union[int, bool, "FArray"]


_INT = frozenset({int})


def values_equal(a: Value, b: Value) -> bool:
    # type-exact: True is not 1, also inside arrays
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if type(a) is not FArray:
        return a == b
    if (a.lo == b.lo and len(a.vals) == len(b.vals) and type(a.default) is int
            and _INT.issuperset(map(type, a.vals))):
        # a holds ints alone, so == is type-exact once b holds ints alone
        return (a.vals == b.vals and a.default == b.default and type(b.default) is int
                and _INT.issuperset(map(type, b.vals)))
    lo = min(a.lo, b.lo)
    hi = max(a.lo + len(a.vals), b.lo + len(b.vals))
    # unequal defaults differ somewhere outside both windows
    return values_equal(a.default, b.default) and all(
        values_equal(a.get(i), b.get(i)) for i in range(lo, hi)
    )


class ScalarDomain(Record):
    values: tuple[Value, ...]

    def __iter__(self) -> Iterator[Value]:
        return iter(self.values)

    def size(self) -> int:
        return len(self.values)


class ArrayDomain(Record):
    lo: int
    hi: int  # inclusive
    values: tuple[int, ...]
    default: int = 0

    def __post_init__(self) -> None:
        # hi = lo - 1 is the empty window, whose one member is the default alone
        if self.hi < self.lo - 1:
            raise OracleError(f"array domain window [{self.lo}, {self.hi}] has negative width")

    def __iter__(self) -> Iterator[FArray]:
        for combo in itertools.product(self.values, repeat=self.hi - self.lo + 1):
            yield FArray(self.lo, combo, self.default)

    def size(self) -> int:
        return len(self.values) ** (self.hi - self.lo + 1)

    def get(self, key: tuple, default: Sequence[FArray] = ()) -> Sequence[FArray]:
        """As a ``_table``'s: the member that ``values_equal`` the value of
        ``key``, alone, or ``default``."""
        if key[1] not in self:
            return default
        return (FArray(self.lo, tuple(map(key[1].get, range(self.lo, self.hi + 1))), self.default),)

    def __contains__(self, value: Value) -> bool:
        """Whether ``value`` ``values_equal`` a member: an array with its
        entries in ``[lo, hi]`` among ``values``, and the rest ``default``."""
        if type(value) is not FArray or not values_equal(value.default, self.default):
            return False
        return all(
            any(values_equal(value.get(i), v) for v in self.values) if self.lo <= i <= self.hi
            else values_equal(value.get(i), self.default)
            for i in range(min(value.lo, self.lo), max(value.lo + len(value.vals), self.hi + 1))
        )


Domain = Union["ScalarDomain", "ArrayDomain"]

State = dict  # variable name -> Value


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


def _table(values: Sequence[Value]) -> Union[dict, "_Scan"]:
    """``values`` by typed key ``(type(v), v)``: ``key in table`` tests
    membership and ``table.get(key, ())`` lists the members that
    ``values_equal`` the key's value, repeats included."""
    if not all(type(v) in (int, bool) for v in values):
        return _Scan(values)
    table: dict[tuple, list[Value]] = {}
    for v in values:
        table.setdefault((type(v), v), []).append(v)
    return table


class _Scan(list):
    """A ``_table`` of other values, scanned, as equal arrays may differ in window."""

    def get(self, key: tuple, default: Sequence[Value] = ()) -> list[Value]:
        return [v for v in self if values_equal(key[1], v)]

    def __contains__(self, key: tuple) -> bool:
        return bool(self.get(key))


def state_key(state: State) -> tuple:
    return _state_key(state, sorted(state))


def _state_key(state: State, order: Sequence[str]) -> tuple:
    """``state_key`` in ``order``."""
    return tuple((name, *_typed(state[name])) for name in order)


# ---------------------------------------------------------------------------
# Term evaluation
#
# A term is compiled into one generated Python function: one expression,
# each quantifier body a nested ``def`` over its bound values. Constants
# (quantifier combinations, ``funcs``, non-int literals) are its globals,
# never its text. Evaluation is total on well-sorted terms: each partial
# operation has one fixed value (see README), and a term that cannot be
# evaluated (it reads a variable that cannot be bound, applies a function
# not given, quantifies over a sort other than Int and Bool, or has a node
# kind not known here) is refused with an OracleError when it is compiled,
# also where the refused part lies in a branch that is never taken.

Compiled = Callable[[Mapping[str, Value]], Value]

_MISSING = "unbound variable {} in oracle evaluation"


def _pow2(n: int) -> int:
    return 2**n if n >= 0 else 0


def _fact(n: int) -> int:
    return math.factorial(n) if n >= 0 else 1


def _div(a: int, b: int) -> int:
    # SMT-LIB's Euclidean division: the remainder lies in [0, |b|)
    return (a - a % abs(b)) // b if b else 0


def _mod(a: int, b: int) -> int:
    return a % abs(b) if b else a


def _distinct(*vals: Value) -> bool:
    return all(not values_equal(v, w) for i, v in enumerate(vals) for w in vals[i + 1 :])


def _filtered(memo: dict, keep: Callable[..., list], values: list, *args: Value) -> list:
    """``keep(values, *args)``, remembered in ``memo`` by the arguments' ``_typed`` values."""
    key = tuple(map(_typed, args))
    if key not in memo:
        memo[key] = keep(values, *args)
    return memo[key]


_HELPERS = {
    "_pow2": _pow2, "_fact": _fact, "_div": _div, "_mod": _mod, "_distinct": _distinct,
    "_eq": values_equal, "_FArray": FArray, "_starmap": itertools.starmap,
    "_filtered": _filtered, "_typed": _typed, "_OracleError": OracleError,
}
# Each node's text over its children's texts, in ``_children`` order: a
# string fills one slot per child, a pair joins all children. A connective
# gives a bool once the first argument that decides it is evaluated.
_TEXT = {
    Sub: "({} - {})", Neg: "(-{})", Mul: "({} * {})", Div: "_div({}, {})",
    Mod: "_mod({}, {})", Not: "(not {})", Implies: "((not {}) or {})",
    Ite: "({1} if {0} else {2})", Select: "{}.get({})", Store: "{}.put({}, {})",
    ConstArray: "_FArray(0, (), {})", Distinct: ("_distinct({})", ", "),
    And: ("(not not ({}))", " and "), Or: ("(not not ({}))", " or "),
}
# ``(= x y)``, type-exact as ``_eq``, by the kind of ``y`` when ``x`` is a
# name: a bool literal is a constant of its own, an int one is its text
_EQUAL = {BoolLit: "({} is {})", IntLit: "(type({0}) is int and {0} == {1})",
          Var: "({0} is {1} or _eq({0}, {1}))"}
_COMPARE = {"=": "_eq({}, {})", "<": "({} < {})", "<=": "({} <= {})", ">": "({} > {})"}
_NESTING = 50  # term levels in one expression; each opens at most three brackets


class _Source:
    """The text of functions and the globals they need. A variable is read
    by the text its mangled name has in the scope; any other is refused."""

    def __init__(self, quant_lo: int, quant_hi: int, funcs) -> None:
        self.quant_lo, self.quant_hi, self.funcs = quant_lo, quant_hi, funcs
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

    def body(self, t: Term, scope: Mapping[str, str], indent: str) -> tuple[list[str], str]:
        """Lines that define the nested functions of ``t`` and return its
        value, and the text of that value."""
        outer = self.defs, self.indent
        self.defs, self.indent = [], indent
        value = self.expr(t, scope, 0)
        lines, (self.defs, self.indent) = self.defs, outer
        return [*lines, f"{indent}return {value}"], value

    def define(self, params: Sequence[str], t: Term, scope: Mapping[str, str]) -> str:
        fn = self.fresh("f")
        lines, _ = self.body(t, scope, self.indent + "    ")
        self.defs += [f"{self.indent}def {fn}({', '.join(params)}):", *lines]
        return fn

    def expr(self, t: Term, scope: Mapping[str, str], depth: int) -> str:
        kind = type(t)
        if kind is Var:
            if t.mangled not in scope:
                raise OracleError(_MISSING.format(t.mangled))
            return scope[t.mangled]
        if kind is IntLit or kind is BoolLit:
            return f"({t.value!r})" if type(t.value) is int else self.const(t.value)
        if depth > _NESTING:
            # a def starts a statement, below the 200 nested brackets that
            # Python's tokenizer allows
            return self.define((), t, scope) + "()"
        if isinstance(t, Quant):
            return self.quantifier(t, scope)
        if kind is App:
            if self.funcs and t.func in self.funcs:
                fn = self.const(self.funcs[t.func])
            elif t.func in ("pow2", "fact"):
                fn = f"_{t.func}"
            else:
                raise OracleError(f"uninterpreted function {t.func} in oracle evaluation")
        elif kind not in _TEXT and kind is not Cmp and kind is not Add:
            raise OracleError(f"cannot evaluate {t!r}")
        args = []
        for child in _children(t):  # a loop, not a comprehension: one frame per level
            args.append(self.expr(child, scope, depth + 1))
        if kind is App:
            return f"{fn}({', '.join(args)})"
        if kind is Cmp and t.op == "=":
            # a name against a literal or a variable needs no call; the name
            # is read twice, where an expression would be evaluated twice
            for other, x, y in ((t.right, *args), (t.left, *args[::-1])):
                if type(other) in _EQUAL and x.isidentifier():
                    return _EQUAL[type(other)].format(x, y)
        if kind is Cmp:
            return _COMPARE.get(t.op, "({} >= {})").format(*args)
        if kind is Add:  # from 0, so that a sum of booleans is an int, as sum's is
            return f"({' + '.join(['0', *args])})"
        if kind is Distinct and len(args) == 2:
            return "(not _eq({}, {}))".format(*args)
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
                raise OracleError(f"cannot enumerate quantifier over {sort_to_text(sort)}")
        params = [self.fresh("v") for _ in t.bound]
        inner = {**scope, **{name: p for (name, _), p in zip(t.bound, params)}}
        fn = self.define(params, t.body, inner)
        combos = self.const(tuple(itertools.product(*ranges)))
        # all and any stop at the first combination that decides them
        return f"{'all' if isinstance(t, Forall) else 'any'}(_starmap({fn}, {combos}))"


def _define(source: _Source, lines: Sequence[str], name: str) -> Callable:
    """The function ``name`` that ``lines`` define, with ``source``'s globals."""
    namespace = {**_HELPERS, **source.globals}
    exec(compile("\n".join(lines), "<oracle>", "exec"), namespace)
    return namespace[name]


def _compile(
    term: Term, states: bool, quant_lo: int, quant_hi: int, funcs=None
) -> Callable[..., Value]:
    """``term`` as a function of ``env``, keyed by mangled names, or of
    ``s1, s2`` when ``states``: copy ``j`` of a variable, unprimed, is read
    from ``s<j>`` by its name, and any other variable is refused. The
    function reads each free variable once, on entry, in order of mangled
    name, and raises an OracleError that names the first one missing."""
    lines, scope = [f"def term({'s1, s2' if states else 'env'}):"], {}
    for name, var in sorted({v.mangled: v for v in free_vars(term)}.items()):
        if states and (var.copy not in (1, 2) or var.primed):
            continue  # refused where the term reads it
        scope[name] = f"V{len(scope)}"
        read = f"s{var.copy}[{var.name!r}]" if states else f"env[{name!r}]"
        lines += ["    try:", f"        {scope[name]} = {read}", "    except KeyError:",
                  f"        raise _OracleError({_MISSING.format(name)!r}) from None"]
    source = _Source(quant_lo, quant_hi, funcs)
    return _define(source, [*lines, *source.body(term, scope, "    ")[0]], "term")


def compile_term(
    term: Term,
    quant_lo: int = DEFAULT_QUANT[0],
    quant_hi: int = DEFAULT_QUANT[1],
    funcs: Optional[Mapping[str, object]] = None,
) -> Compiled:
    """Compile ``term`` into a function of an env keyed by mangled names.

    Quantifiers range over ``[quant_lo, quant_hi]`` (Int) or both booleans.
    """
    return _compile(term, False, quant_lo, quant_hi, funcs)


def eval_term(
    term: Term,
    env: Mapping[str, Value],
    quant_lo: int = DEFAULT_QUANT[0],
    quant_hi: int = DEFAULT_QUANT[1],
    funcs: Optional[Mapping[str, object]] = None,
) -> Value:
    """Evaluate ``term`` in ``env`` (keyed by mangled variable names)."""
    return compile_term(term, quant_lo, quant_hi, funcs)(env)


# ---------------------------------------------------------------------------
# Generated search
#
# ``init``, ``tx`` and a counted formula are each searched by one generated
# function (see README): ``search``, a generator of their loop variables'
# values, for ``init`` and a counted formula, and ``expand``, the expansion
# of a whole trace level, for ``tx``.


def _per_term(build: Callable) -> Callable:
    """``build``, called once per term object and further arguments; the
    result is kept in the term's ``memo`` and freed with the term."""

    def cached(term: Term, *args):
        key = (build, *args)
        if key not in term.memo:
            term.memo[key] = build(term, *args)
        return term.memo[key]

    return cached


def _reads(term: Term) -> set[str]:
    return {v.mangled for v in free_vars(term)}


@_per_term
def _search(
    term: Term, loops: tuple, fixed: tuple, expand: bool, quant_lo: int, quant_hi: int,
    arrays: frozenset, keys: Optional[tuple],
) -> tuple[Callable, frozenset[str]]:
    """The generated function of ``term``, and the loop variables it
    defines. Without ``keys``, ``search(env, values, memo)`` is a generator
    of the loop variables' values of every candidate; with ``keys``, it is
    the initial level, a list of ``((state,), (key,))``, each state mapping
    ``keys`` (the loop variables and fixed names) to their values and keyed
    as ``_state_key`` keys it. When ``expand``,
    ``expand(level, values, memo, branch)`` is the level after ``level``,
    its fixed names read from the last state of each ``(prefix, order)``: a
    lone candidate extends the prefix, with no rank, as the state that maps
    ``keys[j]`` to the value of ``loops[j]``, and several go to
    ``branch(out, prefix, order, states)``. ``values[j]`` lists the values
    of ``loops[j]``, or, for a defined one, holds its domain's members by
    typed key (see ``_table``), or is an ``ArrayDomain`` when ``expand`` and
    ``loops[j]`` is in ``arrays``. ``memo[j]`` keeps the values of an
    undefined ``loops[j]`` that pass the tests of its loop. A variable other
    than the loop variables and the fixed names is refused when generated.
    A conjunct's test or value that is one expression is written where it
    is used; one with nested functions becomes a function ``t<i>``."""
    conjuncts = list(term.args) if isinstance(term, And) else [term]
    looped = set(loops)
    slot = {name: f"V{j}" for j, name in enumerate([*loops, *fixed])}
    source = _Source(quant_lo, quant_hi, None)
    lines: list[str] = []
    defs: dict[str, tuple[int, Term]] = {}  # loop variable -> (conjunct, right-hand side)
    # in expand, the defined arrays that loop over the members of their domain
    # that values_equal their value, as search does: a value such as a
    # constant array holds the same entries in another window
    listed: set[str] = set()
    reads: list[set[str]] = []
    calls: list[str] = []  # each conjunct's test, or the value of its definition
    for i, c in enumerate(conjuncts):
        # a top-level (= x e) defines the loop variable x when neither e nor
        # an earlier conjunct reads x
        t = c
        if isinstance(c, Cmp) and c.op == "=":
            for side, rhs in ((c.left, c.right), (c.right, c.left)):
                x = side.mangled if isinstance(side, Var) else None
                if x in looped and x not in _reads(rhs) and not any(x in r for r in reads):
                    defs[x], t = (i, rhs), rhs
                    frame = type(rhs) is Var and rhs.tag == PLAIN and mangle(rhs.name, PRIMED) == x
                    if expand and isinstance(side.sort, ArraySort) and not frame:
                        listed.add(x)
                    break
        reads.append(_reads(c))
        used = _reads(t)
        scope = {name: v for name, v in slot.items() if name in used}
        text, value = source.body(t, scope, "    ")
        if len(text) > 1:  # nested functions need a def of their own
            args = ", ".join(scope.values())
            lines += [f"def t{i}({args}):", *text]
            value = f"t{i}({args})"
        calls.append(value)  # else the one expression is written where it is used
    # a definition binds its variable once the loop variables it reads are
    # bound; the others loop in product order
    order: list[str] = []
    while len(order) < len(loops):
        ready = [x for x in defs if x not in order and _reads(defs[x][1]) & looped <= {*order}]
        order.append(ready[0] if ready else next(x for x in loops if x not in {*order, *defs}))
    # each test runs in the shallowest loop that binds what it reads, or
    # before any, at -1, when it reads no loop variable
    defined = {i for i, _ in defs.values()}
    level = {i: max(map(order.index, r & looped), default=-1)
             for i, r in enumerate(reads) if i not in defined}

    def member(x: str) -> str:
        # in expand: the defined x lies in its domain; an array frame (= x! x) is only type-checked
        j = loops.index(x)
        return f"type(V{j}) is _FArray" if x in arrays else f"(type(V{j}), V{j}) in D{j}"

    # in expand, the definitions before the first undefined or listed loop
    # variable are bound once per prefix, and a failed test of what they bind skips it
    bound = next((at for at, x in enumerate(order) if x not in defs or x in listed),
                 len(order)) if expand else 0
    pad, skip = ("        ", "continue") if expand else ("    ", "return []")
    # the initial level keys each state by parts (name, *_typed(value)) in
    # S<j>: a looped variable's come with its filtered values, the others'
    # are made as soon as the value is bound
    keyed = keys is not None and not expand
    part = "for S{0} in (({1!r}, *_typed(V{0})),)".format
    body = [f"{pad}{slot[name]} = env[{name!r}]" for name in fixed]
    # one comprehension over the rest: Python nests at most 20 loop statements
    clauses = [part(slot[x][1:], x) for x in fixed if keyed] or ["for _ in (0,)"]
    for at, x in [(-1, None), *enumerate(order)]:
        j, kept = x and loops.index(x), [i for i in level if level[i] == at]
        if at < bound:  # statements: the tests before any loop, and the per-prefix bindings
            conds = [calls[i] for i in kept]
            if x is not None:
                body.append(f"{pad}V{j} = {calls[defs[x][0]]}")
                conds.insert(0, member(x))
            if conds:
                body += [f"{pad}if not ({' and '.join(conds)}):", f"{pad}    {skip}"]
        elif x in defs:
            value = calls[defs[x][0]]
            clauses.append(f"for V{j} in ({value},) if {member(x)}" if expand and x not in listed
                           else f"for W{j} in ({value},) "
                                f"for V{j} in D{j}.get((type(W{j}), W{j}), ())")
            clauses += [part(j, x)] * keyed + [f"if {calls[i]}" for i in kept]
        else:
            # the values that pass the tests of this loop, if any, kept in
            # memo[j] by the other variables they read, and fetched before
            # the comprehension when those are all bound there
            read = [n for n in slot if n != x and any(n in reads[i] for i in kept)]
            args = "".join(f", {slot[n]}" for n in read)
            item = f"V{j}, S{j}" if keyed else f"V{j}"
            tests = " and ".join(calls[i] for i in kept) or "True"
            lines += [f"def a{j}(A{args}):",
                      f"    return [({item}) for V{j} in A if {tests} {part(j, x) * keyed}]"]
            pool = f"_filtered(memo[{j}], a{j}, D{j}{args})"
            if {*fixed, *order[:bound]}.issuperset(read):
                body.append(f"{pad}L{j} = {pool}")
                pool = f"L{j}"
            clauses.append(f"for {item} in {pool}")
    head = [f"    D{j} = values[{j}]" for j in range(len(loops))]
    if keys is not None:
        state = "{" + ", ".join(f"{key!r}: {slot[x]}"
                                for key, x in zip(keys, loops if expand else keys)) + "}"
    found = " ".join(clauses)
    if not expand:
        # the initial level, or a generator of the loop variables' values
        found = (f"[(({state},), ((" + "".join(f"S{slot[x][1:]}, " for x in keys) + f"),)) {found}]"
                 if keyed else "((" + "".join(f"V{j}, " for j in range(len(loops))) + f") {found})")
        lines += ["def search(env, values, memo):", *head, *body, f"    return {found}"]
        return _define(source, lines, "search"), frozenset(defs)
    # a lone successor adds no rank: see enumerate_traces
    lines += ["def expand(level, values, memo, branch):", *head, "    out = []",
              "    for prefix, order in level:", "        env = prefix[-1]", *body]
    if bound == len(order):
        lines.append(f"        out.append((prefix + ({state},), order))")
    else:
        lines += [f"        found = [{state} {found}]", "        if len(found) == 1:",
                  "            out.append((prefix + (found[0],), order))",
                  "        elif found:", "            branch(out, prefix, order, found)"]
    return _define(source, [*lines, "    return out"], "expand"), frozenset(defs)


def _accepted(term: Term, doms: Mapping[str, Domain], env: Mapping[str, Value], quant_lo: int,
              quant_hi: int, cap: int, what: str, keys: Optional[tuple] = None):
    """The generated search of ``term`` over the product of ``doms``,
    ``env``'s names fixed, run once ``cap`` bounds the product: the initial
    level keyed in ``keys`` order, or, without ``keys``, the tuples of values."""
    sizes = (dom.size() for dom in doms.values())
    # the product of no domains has one candidate
    if any(total > cap for total in itertools.accumulate(sizes, operator.mul, initial=1)):
        raise CapExceeded(f"{what} exceeds cap {cap}")
    search, defined = _search(term, tuple(doms), tuple(env), False, quant_lo, quant_hi,
                              frozenset(), keys)
    values = [_table(list(dom)) if x in defined else list(dom) for x, dom in doms.items()]
    return search(env, values, defaultdict(dict))


# ---------------------------------------------------------------------------
# Trace enumeration


class BoundedTrace(Record):
    states: tuple  # tuple of State dicts (treated as immutable)

    @property
    def depth(self) -> int:
        return len(self.states)


class TransitionPlan:
    """Everything the ``tx`` expansion derives from an instance, and the
    memos that live as long as it: its loops' filtered values and each last
    state's pin. It keeps no reference to the instance: no cycle."""

    def __init__(self, instance: FiniteInstance) -> None:
        doms: dict[str, Domain] = {
            name: ScalarDomain((instance.params[name],)) if name in instance.params
            else instance.domains[name]
            for name, _ in instance.system.state_vars
        }
        keys = self.key_order = tuple(sorted(doms))
        loops = tuple(mangle(name, PRIMED) for name in keys)
        arrays = frozenset(x for x, name in zip(loops, keys) if isinstance(doms[name], ArrayDomain))
        self.expand, defined = _search(instance.system.tx, loops, tuple(doms), True,
                                       instance.quant_lo, instance.quant_hi, arrays, keys)
        # a defined variable's domain is not listed, as it may be large: its
        # value is looked up in a scalar domain's table or an array domain
        self.values = [
            list(dom) if x not in defined else dom if x in arrays else _table(dom.values)
            for x, dom in zip(loops, map(doms.get, keys))
        ]
        self.memo: defaultdict[int, dict] = defaultdict(dict)
        self.pins: dict[tuple, bool] = {}  # state key -> pinned


class FiniteInstance(Record):
    """A system over finite domains, checked when built. ``deterministic``
    is a checked claim: ``successors`` raises at a state with several
    successors. ``init_fix`` pins the *initial* value of a state variable
    without restricting how it may evolve afterwards (unlike ``params``,
    which freeze it for the whole run). A changed copy, made with
    ``_replace``, builds its own ``plan``."""

    system: TransitionSystem
    domains: dict[str, Domain]
    params: dict[str, Value]
    depth: int
    deterministic: bool = False
    quant_lo: int = DEFAULT_QUANT[0]
    quant_hi: int = DEFAULT_QUANT[1]
    cap: int = DEFAULT_CAP
    init_fix: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise OracleError("depth must be >= 1")
        if self.quant_lo > self.quant_hi:
            raise OracleError(f"quantifier bounds {self.quant_lo} > {self.quant_hi}")
        for name, _ in self.system.state_vars:
            if name not in self.params and name not in self.domains:
                raise OracleError(f"no domain for state variable {name}")
        if self.init_fix is None:
            object.__setattr__(self, "init_fix", {})

    @cached_property
    def plan(self) -> TransitionPlan:
        """The instance's ``TransitionPlan``, built on first use and kept
        with it, as ``Term.memo`` is: every call on the instance shares it."""
        return TransitionPlan(self)

    def pinned(self, trace: BoundedTrace) -> bool:
        """Whether the last state of ``trace`` has itself as its only
        successor (by ``successors``), so the trace stays in it forever."""
        plan, last = self.plan, trace.states[-1]
        key = _state_key(last, plan.key_order)
        if key not in plan.pins:
            nxt = successors(self, last)
            plan.pins[key] = len(nxt) == 1 and _state_key(nxt[0], plan.key_order) == key
        return plan.pins[key]


def _siblings(key_order: Sequence[str], deterministic: bool, cap: float, out: list,
              prefix: tuple, order: tuple, found: Sequence[State]) -> None:
    """Append to ``out`` each of several next states ``found`` after
    ``prefix``, with ``order`` extended by its rank by state key among them.
    Each state is keyed once; a later one with a kept one's key is dropped."""
    kept: dict[tuple, State] = {}
    for state in found:
        kept.setdefault(_state_key(state, key_order), state)
    if deterministic and len(kept) > 1:
        raise OracleError("instance declared deterministic but a state has several successors")
    ranks = {key: rank for rank, key in enumerate(sorted(kept))}
    for key, state in kept.items():
        out.append((prefix + (state,), order + (ranks[key],)))
        if len(out) > cap:
            raise CapExceeded(f"trace count exceeds cap {cap}")


def successors(instance: FiniteInstance, state: State) -> list[State]:
    """The states ``tx`` allows after ``state``, within the domains: the
    ``tx`` expansion of the level of ``state`` alone.

    Candidates come in product order of the next-state variables sorted by
    name, but that one a top-level ``(= x! e)`` defines comes after the
    variables ``e`` reads and is assigned ``e``: a variable ``e`` as it is,
    an array each member of its domain that ``values_equal`` ``e``. A
    candidate is kept when every conjunct of ``tx`` holds on it and every
    value lies in its domain, type-exact (``true`` is not ``1``). Of an
    array that a frame ``(= x! x)`` defines, only that it is an array is
    checked: for a state that ``enumerate_traces`` produces, ``x`` lies in
    its domain. A later candidate with the state key of a kept one is
    dropped. Raises ``OracleError`` when the instance is declared
    deterministic and more than one state remains.
    """
    plan = instance.plan
    branch = partial(_siblings, plan.key_order, instance.deterministic, math.inf)
    level = plan.expand([((state,), ())], plan.values, plan.memo, branch)
    return [prefix[-1] for prefix, _ in level]


def enumerate_traces(instance: FiniteInstance) -> list[BoundedTrace]:
    """All depth-d trace prefixes of the instance, in canonical order.

    Initial states come from the generated ``init`` search, with parameters
    and ``init_fix`` values as fixed names, built and keyed there; each
    further level is one call of the ``tx`` expansion, which extends each
    prefix by the ``successors`` of its last state. The canonical order is
    lexicographic by the traces' tuples of state keys (``state_key``);
    traces with equal tuples keep the order in which they were expanded.
    """
    plan = instance.plan
    # A prefix travels with its sort key: its initial state's key, then the
    # rank of each later state that has siblings among them. Siblings are
    # distinct, so ranks order them as their keys do, and prefixes whose
    # sort keys agree so far have states that agree by key, so they branch
    # at the same steps into the same siblings: the order is the one of full
    # key tuples. Initial states are not ranked: equal ones, from a domain
    # that repeats a value, have equal successors, and their traces must
    # interleave.
    fixed = {**instance.init_fix, **instance.params}
    env = {name: fixed[name] for name in plan.key_order if name in fixed}
    doms = {name: instance.domains[name]
            for name, _ in instance.system.state_vars if name not in env}
    level = _accepted(instance.system.init, doms, env, instance.quant_lo, instance.quant_hi,
                      instance.cap, "state domain product", plan.key_order)
    branch = partial(_siblings, plan.key_order, instance.deterministic, instance.cap)
    for _ in range(instance.depth - 1):
        level = plan.expand(level, plan.values, plan.memo, branch)
        if len(level) > instance.cap:  # a lone successor is appended uncounted
            raise CapExceeded(f"trace count exceeds cap {instance.cap}")
    level.sort(key=operator.itemgetter(1))
    return [BoundedTrace(states) for states, _ in level]


# ---------------------------------------------------------------------------
# Bounded evaluation


# a predicate body as ``holds(state1, state2)``, compiled once per body object
_predicate = _per_term(lambda body, quant_lo, quant_hi: _compile(body, True, quant_lo, quant_hi))

_DEPTHS = "traces must be non-empty and of equal depth"


def _bounded(holds: Callable, first: BoundedTrace, second: BoundedTrace, eventually: bool,
             instance: FiniteInstance) -> Optional[bool]:
    """``eval_bounded`` of the compiled predicate ``holds`` on two traces of
    equal depth, walking their states together."""
    for s1, s2 in zip(first.states, second.states):
        # F is decided by a true position, G by a false one
        if (not holds(s1, s2)) is not eventually:
            return eventually
    if instance.pinned(first) and instance.pinned(second):
        return not eventually
    return None


def eval_bounded(pred: Term, first: BoundedTrace, second: BoundedTrace, instance: FiniteInstance,
                 eventually: bool = False) -> Optional[bool]:
    """Bounded verdict of ``G pred``, or of ``F pred`` when ``eventually``,
    at position 0, with ``first`` as copy 1 and ``second`` as copy 2 of
    ``pred``; the depths are checked before ``pred`` is compiled.

    The prefix decides ``G`` false at its first false position and ``F``
    true at its first true one. Otherwise the verdict depends on the
    infinite tail, and is given (``G`` true, ``F`` false) only when the
    instance finds both traces ``pinned``, asked only then; else ``None``.
    """
    if first.depth != second.depth or first.depth == 0:
        raise OracleError(_DEPTHS)
    holds = _predicate(pred, instance.quant_lo, instance.quant_hi)
    return _bounded(holds, first, second, eventually, instance)


# ---------------------------------------------------------------------------
# Class counting and model counting


def count_equivalence_classes(instance: FiniteInstance, prop: QhpProperty, pivot: BoundedTrace,
                              traces: Sequence[BoundedTrace]) -> Union[int, str]:
    """Number of difference-equivalence classes among the ``traces`` that
    the body relates to ``pivot``.

    Each pair gets its ``eval_bounded`` verdict, with each predicate read
    once per call (the body at the first trace, the difference at the first
    pair). Pins are the instance's: each last state's successors are
    computed once per state key for the life of the instance. Returns
    ``"unknown"`` at the first ``None`` verdict; a trace of another depth
    than the pivot raises when reached.
    """
    lo, hi, depth = instance.quant_lo, instance.quant_hi, len(pivot.states)
    body = None
    candidates = []
    for t in traces:
        if len(t.states) != depth or not depth:
            raise OracleError(_DEPTHS)
        if body is None:
            body = _predicate(prop.body, lo, hi)
        verdict = _bounded(body, pivot, t, False, instance)
        if verdict is None:
            return "unknown"
        if verdict:
            candidates.append(t)
    n = len(candidates)
    label = list(range(n))  # each candidate's class, named by one of its members
    diff = _predicate(prop.diff, lo, hi) if n > 1 else None
    for i in range(n):
        for j in range(i + 1, n):
            delta = _bounded(diff, candidates[i], candidates[j], True, instance)
            if delta is None:
                return "unknown"
            if not delta:  # one class: i's joins j's
                label = [label[j] if c == label[i] else c for c in label]
    return len(set(label))


def brute_count(
    formula: Term,
    counted: Mapping[str, Domain],
    params: Optional[Mapping[str, Value]] = None,
    quant_lo: int = DEFAULT_QUANT[0],
    quant_hi: int = DEFAULT_QUANT[1],
    cap: int = DEFAULT_CAP,
) -> int:
    """Exact model count of ``formula`` over the counted variables' domains,
    from its generated search with the ``params`` not counted fixed; the cap
    applies to the full product."""
    env = {name: value for name, value in (params or {}).items() if name not in counted}
    return sum(1 for _ in _accepted(formula, counted, env, quant_lo, quant_hi, cap,
                                    "domain product"))
