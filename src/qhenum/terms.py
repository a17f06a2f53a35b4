"""Sorted first-order terms and formulas.

Terms are immutable trees over booleans, linear integer arithmetic, arrays,
and the function symbols of a ``Signature``; the sorts are ``Int``, ``Bool``
and ``(Array S T)``.  A formula is a boolean-sorted term.  Every
variable carries a *tag*: a copy index (``None`` or a positive integer) and a
primed flag.  Tags render as name suffixes: ``x``, ``x!``, ``x$1``, ``x$1!``.

The grammar is written once: ``_GRAMMAR`` gives each head its node kind and
arity, and ``_SORT_RULES`` gives each node kind its sort rule.
``term_from_sexpr``, the one reader of every input file, applies a node's
rule as it builds the node, so a read term is well sorted without a second
walk; ``check_sorts`` applies the same rules to terms built in code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence

from .sexpr import Sexpr, SexprError, atom, parse_one, to_text


# ---------------------------------------------------------------------------
# Sorts


@dataclass(frozen=True)
class Sort:
    pass


@dataclass(frozen=True)
class BoolSort(Sort):
    pass


@dataclass(frozen=True)
class IntSort(Sort):
    pass


@dataclass(frozen=True)
class ArraySort(Sort):
    index: Sort
    element: Sort


BOOL = BoolSort()
INT = IntSort()


def sort_to_text(sort: Sort) -> str:
    if isinstance(sort, BoolSort):
        return "Bool"
    if isinstance(sort, IntSort):
        return "Int"
    if isinstance(sort, ArraySort):
        return f"(Array {sort_to_text(sort.index)} {sort_to_text(sort.element)})"
    raise TypeError(f"unknown sort {sort!r}")


def sort_from_sexpr(expr: Sexpr) -> Sort:
    if expr == "Bool":
        return BOOL
    if expr == "Int":
        return INT
    if isinstance(expr, list) and len(expr) == 3 and expr[0] == "Array":
        return ArraySort(sort_from_sexpr(expr[1]), sort_from_sexpr(expr[2]))
    raise SexprError(f"bad sort {to_text(expr)}")


# ---------------------------------------------------------------------------
# Signature


class TermError(SexprError):
    """A term that is not well formed or not well sorted: an input error."""


class UnknownSymbol(TermError):
    pass


class RankMismatch(TermError):
    pass


class UnboundVariable(TermError):
    pass


class SortMismatch(TermError):
    pass


class TagMismatch(TermError):
    pass


@dataclass(frozen=True)
class Signature:
    """Function symbols mapped to (argument sorts, result sort)."""

    functions: tuple[tuple[str, tuple[Sort, ...], Sort], ...] = ()

    def rank(self, name: str) -> tuple[tuple[Sort, ...], Sort]:
        for fname, args, res in self.functions:
            if fname == name:
                return args, res
        raise UnknownSymbol(f"unknown function symbol {name!r}")

    def has(self, name: str) -> bool:
        return any(fname == name for fname, _, _ in self.functions)

    def extend(self, name: str, args: tuple[Sort, ...], res: Sort) -> "Signature":
        if self.has(name):
            existing = self.rank(name)
            if existing != (args, res):
                raise RankMismatch(f"symbol {name!r} bound to two ranks")
            return self
        return Signature(self.functions + ((name, args, res),))


# The recursive count functions every term may apply; the proof kernel
# extends this with its count symbols ``cnt.*``.
BUILTIN_SIGNATURE = Signature((("pow2", (INT,), INT), ("fact", (INT,), INT)))


# ---------------------------------------------------------------------------
# Tags

Tag = tuple[Optional[int], bool]

PLAIN: Tag = (None, False)
PRIMED: Tag = (None, True)


def indexed(i: int, primed: bool = False) -> Tag:
    return (i, primed)


def mangle(name: str, tag: Tag) -> str:
    copy, primed = tag
    out = name
    if copy is not None:
        out += f"${copy}"
    if primed:
        out += "!"
    return out


_NAME_RE = re.compile(r"^(?P<base>.*?)(?:\$(?P<copy>\d+))?(?P<primed>!)?$")


def demangle(text: str) -> tuple[str, Tag]:
    m = _NAME_RE.match(text)
    assert m is not None
    copy = int(m.group("copy")) if m.group("copy") else None
    return m.group("base"), (copy, m.group("primed") is not None)


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Term:
    @cached_property
    def smt(self) -> "Rendered":
        """This term's ``render``, on first use; every query that carries
        the same term object reuses it. Threads that ask at once may each
        walk the term; they keep equal results."""
        return render(self)


@dataclass(frozen=True)
class Var(Term):
    name: str
    sort: Sort
    copy: Optional[int] = None
    primed: bool = False

    @property
    def tag(self) -> Tag:
        return (self.copy, self.primed)

    @property
    def mangled(self) -> str:
        return mangle(self.name, self.tag)

    def with_tag(self, tag: Tag) -> "Var":
        return Var(self.name, self.sort, tag[0], tag[1])


@dataclass(frozen=True)
class IntLit(Term):
    value: int


@dataclass(frozen=True)
class BoolLit(Term):
    value: bool


@dataclass(frozen=True)
class App(Term):
    func: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Add(Term):
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Sub(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Neg(Term):
    operand: Term


@dataclass(frozen=True)
class Mul(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Div(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Mod(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Cmp(Term):
    op: str  # one of = < <= > >=
    left: Term
    right: Term


@dataclass(frozen=True)
class Distinct(Term):
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Not(Term):
    operand: Term


@dataclass(frozen=True)
class And(Term):
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Or(Term):
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Implies(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Ite(Term):
    cond: Term
    then: Term
    other: Term


@dataclass(frozen=True)
class Select(Term):
    array: Term
    index: Term


@dataclass(frozen=True)
class Store(Term):
    array: Term
    index: Term
    value: Term


@dataclass(frozen=True)
class ConstArray(Term):
    """Array mapping every index to the same value."""

    value: Term
    sort: ArraySort = ArraySort(INT, INT)


@dataclass(frozen=True)
class Quant(Term):
    bound: tuple[tuple[str, Sort], ...]
    body: Term


@dataclass(frozen=True)
class Forall(Quant):
    pass


@dataclass(frozen=True)
class Exists(Quant):
    pass


TRUE = BoolLit(True)
FALSE = BoolLit(False)


def conj(*parts: Term) -> Term:
    flat: list[Term] = []
    for p in parts:
        if isinstance(p, And):
            flat.extend(p.args)
        elif p == TRUE:
            continue
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def neq(a: Term, b: Term) -> Term:
    return Not(Cmp("=", a, b))


def eq(a: Term, b: Term) -> Term:
    return Cmp("=", a, b)


# ---------------------------------------------------------------------------
# Traversal


_PAIR = attrgetter("left", "right")
_CHILDREN: dict[type, Callable[[Any], tuple[Term, ...]]] = {
    Var: lambda t: (),
    IntLit: lambda t: (),
    BoolLit: lambda t: (),
    App: attrgetter("args"),
    Add: attrgetter("args"),
    Sub: _PAIR,
    Neg: lambda t: (t.operand,),
    Mul: _PAIR,
    Div: _PAIR,
    Mod: _PAIR,
    Cmp: _PAIR,
    Distinct: attrgetter("args"),
    Not: lambda t: (t.operand,),
    And: attrgetter("args"),
    Or: attrgetter("args"),
    Implies: _PAIR,
    Ite: attrgetter("cond", "then", "other"),
    Select: attrgetter("array", "index"),
    Store: attrgetter("array", "index", "value"),
    ConstArray: lambda t: (t.value,),
    Forall: lambda t: (t.body,),
    Exists: lambda t: (t.body,),
}


def _children(term: Term) -> tuple[Term, ...]:
    try:
        children = _CHILDREN[type(term)]
    except KeyError:
        raise TypeError(f"unknown term {term!r}") from None
    return children(term)


def free_vars(term: Term, bound: frozenset[str] = frozenset()) -> frozenset[Var]:
    if isinstance(term, Var):
        if term.tag == PLAIN and term.name in bound:
            return frozenset()
        return frozenset({term})
    if isinstance(term, Quant):
        inner = bound | {name for name, _ in term.bound}
        return free_vars(term.body, inner)
    out: frozenset[Var] = frozenset()
    for child in _children(term):
        out |= free_vars(child, bound)
    return out


# ---------------------------------------------------------------------------
# Sort rules
#
# One rule per node kind: given the node and the sorts of its children, in
# ``_children`` order (a quantifier's body read in its binder's scope), the
# node's sort, or a TermError. The reader applies a node's rule as it builds
# the node, ``check_sorts`` as it walks a built term; each handles variables
# itself.


def expect_sort(actual: Sort, sort: Sort, what: str) -> Sort:
    """Return ``sort``; raise unless ``actual``, the sort of ``what``, is it."""
    if actual is not sort and actual != sort:
        raise RankMismatch(f"{what} has sort {sort_to_text(actual)}, not {sort_to_text(sort)}")
    return sort


def _all_of(sort: Sort, what: str) -> Callable[[Term, Sequence[Sort], Signature], Sort]:
    """The rule of a node of ``sort`` whose arguments are all of ``sort``."""

    def rule(t: Term, sorts: Sequence[Sort], signature: Signature) -> Sort:
        for s in sorts:
            if s is not sort:
                expect_sort(s, sort, what)
        return sort

    return rule


def _app_sort(t: App, sorts: Sequence[Sort], signature: Signature) -> Sort:
    arg_sorts, result = signature.rank(t.func)
    if len(sorts) != len(arg_sorts):
        raise RankMismatch(f"{t.func} takes {len(arg_sorts)} arguments, got {len(sorts)}")
    for s, expected in zip(sorts, arg_sorts):
        expect_sort(s, expected, f"argument of {t.func}")
    return result


def _cmp_sort(t: Cmp, sorts: Sequence[Sort], signature: Signature) -> Sort:
    left, right = sorts
    if left != right:
        raise RankMismatch(f"comparison of {sort_to_text(left)} with {sort_to_text(right)}")
    if t.op != "=":
        expect_sort(left, INT, f"operand of {t.op}")
    return BOOL


def _distinct_sort(t: Distinct, sorts: Sequence[Sort], signature: Signature) -> Sort:
    if len(set(sorts)) != 1:
        raise RankMismatch("distinct over mixed sorts")
    return BOOL


def _ite_sort(t: Ite, sorts: Sequence[Sort], signature: Signature) -> Sort:
    expect_sort(sorts[0], BOOL, "ite condition")
    return expect_sort(sorts[2], sorts[1], "ite else branch")


def _array_sort(t: Term, sorts: Sequence[Sort], signature: Signature) -> Sort:
    """The rule of ``select`` and ``store``, by the sort of their array."""
    op = "select" if len(sorts) == 2 else "store"
    arr = sorts[0]
    if not isinstance(arr, ArraySort):
        raise RankMismatch(f"{op} on {sort_to_text(arr)}")
    expect_sort(sorts[1], arr.index, f"{op} index")
    if len(sorts) == 2:
        return arr.element
    expect_sort(sorts[2], arr.element, "store value")
    return arr


def _const_sort(t: ConstArray, sorts: Sequence[Sort], signature: Signature) -> Sort:
    expect_sort(sorts[0], t.sort.element, "constant array value")
    return t.sort


def _quant_sort(t: Quant, sorts: Sequence[Sort], signature: Signature) -> Sort:
    names = [name for name, _ in t.bound]
    if len(set(names)) != len(names):
        raise RankMismatch("duplicate bound variable names in one binder")
    return expect_sort(sorts[0], BOOL, "quantifier body")


_SORT_RULES: dict[type, Callable[[Any, Sequence[Sort], Signature], Sort]] = {
    IntLit: lambda t, sorts, signature: INT, BoolLit: lambda t, sorts, signature: BOOL,
    App: _app_sort, Cmp: _cmp_sort, Distinct: _distinct_sort, Ite: _ite_sort,
    Select: _array_sort, Store: _array_sort, ConstArray: _const_sort,
    Forall: _quant_sort, Exists: _quant_sort,
    **dict.fromkeys((Add, Sub, Neg, Mul, Div, Mod), _all_of(INT, "arithmetic argument")),
    **dict.fromkeys((Not, And, Or, Implies), _all_of(BOOL, "connective argument")),
}


def check_sorts(
    term: Term,
    signature: Signature = BUILTIN_SIGNATURE,
    environment: Optional[Mapping[str, Sort]] = None,
) -> Sort:
    """Return the sort of a term built in code; raise on ill-sorted trees.

    A bound variable must carry its binder's sort. ``environment`` maps
    mangled variable names to sorts; when given, every free variable must
    appear in it at its inline sort.
    """
    env = None if environment is None else dict(environment)

    def go(t: Term, bound: dict[str, Sort]) -> Sort:
        kind = type(t)
        if kind is Var:
            if t.tag == PLAIN and t.name in bound:
                expect_sort(t.sort, bound[t.name], f"bound variable {t.name}")
            elif env is not None:
                declared = env.get(t.mangled)
                if declared is None:
                    raise UnboundVariable(f"free variable {t.mangled} not in environment")
                expect_sort(t.sort, declared, f"variable {t.mangled}")
            return t.sort
        if kind is Forall or kind is Exists:
            sorts: Sequence[Sort] = (go(t.body, {**bound, **dict(t.bound)}),)
        else:
            sorts = [go(c, bound) for c in _children(t)]
        return _SORT_RULES[kind](t, sorts, signature)

    return go(term, {})


# ---------------------------------------------------------------------------
# Substitution


def _rebuild(term: Term, children: tuple[Term, ...]) -> Term:
    kind = type(term)
    if kind is App:
        return App(term.func, children)
    if kind is Cmp:
        return Cmp(term.op, *children)
    if kind is ConstArray:
        return ConstArray(children[0], term.sort)
    if kind is Forall or kind is Exists:
        return kind(term.bound, children[0])
    if kind in (Add, Distinct, And, Or):
        return kind(children)
    return kind(*children)


def substitute(term: Term, bindings: Mapping[Var, Term]) -> Term:
    """Capture-avoiding substitution of free variables."""
    for var, repl in bindings.items():
        if not isinstance(var, Var):
            raise SortMismatch("binding keys must be variables")

    def go(t: Term, binds: Mapping[Var, Term]) -> Term:
        if isinstance(t, Var):
            return binds.get(t, t)
        if isinstance(t, Quant):
            live = {
                v: r
                for v, r in binds.items()
                if not (v.tag == PLAIN and any(v.name == name for name, _ in t.bound))
            }
            if not live:
                return t
            captured = {
                fv.name
                for r in live.values()
                for fv in free_vars(r)
                if fv.tag == PLAIN
            }
            bound = t.bound
            body = t.body
            renames: dict[Var, Term] = {}
            new_bound: list[tuple[str, Sort]] = []
            taken = captured | {fv.name for fv in free_vars(body) if fv.tag == PLAIN}
            for name, sort in bound:
                if name in captured:
                    k = 1
                    while f"{name}~{k}" in taken:
                        k += 1
                    fresh = f"{name}~{k}"
                    taken.add(fresh)
                    renames[Var(name, sort)] = Var(fresh, sort)
                    new_bound.append((fresh, sort))
                else:
                    new_bound.append((name, sort))
            if renames:
                body = go(body, renames)
            body = go(body, live)
            cls = Forall if isinstance(t, Forall) else Exists
            return cls(tuple(new_bound), body)
        children = _children(t)
        if not children:
            return t
        new_children = tuple(go(c, binds) for c in children)
        if new_children == children:
            return t
        return _rebuild(t, new_children)

    return go(term, dict(bindings))


def retag(term: Term, frm: Tag, to: Tag) -> Term:
    """Move every free variable from tag ``frm`` to tag ``to``; every free
    variable must carry ``frm``."""
    for v in free_vars(term):
        if v.tag != frm:
            raise TagMismatch(f"variable {v.mangled} does not carry tag {frm}")
    return retag_free(term, {frm: to})


def retag_free(term: Term, mapping: Mapping[Tag, Tag]) -> Term:
    """Retag free variables per ``mapping``; tags outside it are left alone.

    Only a variable retagged to ``PLAIN`` can be captured by a binder, so
    that case goes through ``substitute``, which renames the binder.
    """
    if PLAIN in mapping.values():
        return substitute(
            term, {v: v.with_tag(mapping[v.tag]) for v in free_vars(term) if v.tag in mapping}
        )

    def go(t: Term, bound: frozenset[str]) -> Term:
        if isinstance(t, Var):
            if t.tag == PLAIN and t.name in bound:
                return t
            if t.tag in mapping:
                return t.with_tag(mapping[t.tag])
            return t
        if isinstance(t, Quant):
            inner = bound | {name for name, _ in t.bound}
            cls = Forall if isinstance(t, Forall) else Exists
            return cls(t.bound, go(t.body, inner))
        children = _children(t)
        if not children:
            return t
        return _rebuild(t, tuple(go(c, bound) for c in children))

    return go(term, frozenset())


# ---------------------------------------------------------------------------
# Text syntax (SMT-LIB2 style)


class TermWriter:
    """Writes SMT-LIB text of terms, one walk per term.

    The walk also records each free constant (``consts``: mangled name to
    sort; ``clash``: the first name seen at two sorts) and each applied
    function symbol (``funcs``, parents before arguments). Bound means what
    it means in ``free_vars``. A writer records across all terms it writes.
    """

    __slots__ = ("consts", "funcs", "clash")

    def __init__(self) -> None:
        self.consts: dict[str, Sort] = {}
        self.funcs: dict[str, None] = {}
        self.clash: Optional[str] = None

    def text(self, term: Term, bound: frozenset[str] = frozenset()) -> str:
        kind = type(term)
        if kind is Var:
            if term.name in bound and term.tag == PLAIN:
                return term.name
            name = term.mangled
            prev = self.consts.setdefault(name, term.sort)
            if prev is not term.sort and prev != term.sort and self.clash is None:
                self.clash = name
            return name
        if kind is IntLit:
            return str(term.value) if term.value >= 0 else f"(- {-term.value})"
        if kind is BoolLit:
            return "true" if term.value else "false"
        if kind is Forall or kind is Exists:
            binder = " ".join([f"({name} {sort_to_text(sort)})" for name, sort in term.bound])
            inner = bound | {name for name, _ in term.bound}
            return f"({_HEADS[kind]} ({binder}) {self.text(term.body, inner)})"
        children = _children(term)
        if kind is App:
            self.funcs[term.func] = None
            if not children:
                return term.func
            head = term.func
        elif kind is Cmp:
            head = term.op
        elif kind is ConstArray:
            head = f"(as const {sort_to_text(term.sort)})"
        else:
            head = _HEADS[kind]
        return "(" + " ".join([head, *[self.text(c, bound) for c in children]]) + ")"


# The grammar: each head's node kind and arity (None: any number). "-" of
# one argument is Neg; a head outside the table applies a function symbol of
# the signature.
_GRAMMAR: dict[str, tuple[type, Optional[int]]] = {
    "+": (Add, None), "-": (Sub, 2), "*": (Mul, 2), "div": (Div, 2), "mod": (Mod, 2),
    "=": (Cmp, 2), "<": (Cmp, 2), "<=": (Cmp, 2), ">": (Cmp, 2), ">=": (Cmp, 2),
    "distinct": (Distinct, None), "not": (Not, 1), "and": (And, None), "or": (Or, None),
    "=>": (Implies, 2), "ite": (Ite, 3), "select": (Select, 2), "store": (Store, 3),
    "const-arr": (ConstArray, 1), "forall": (Forall, 2), "exists": (Exists, 2),
}
# The head each kind is written with (Cmp writes its op, ConstArray its sort).
_HEADS = {kind: head for head, (kind, _) in _GRAMMAR.items()} | {Neg: "-"}


class Rendered(NamedTuple):
    """What one ``TermWriter`` walk of a term found."""

    text: str
    consts: tuple[tuple[str, Sort], ...]  # free constants, first seen first
    funcs: tuple[str, ...]  # applied symbols, parents before arguments
    clash: Optional[str]  # the first constant seen at two sorts


def render(term: Term) -> Rendered:
    writer = TermWriter()
    text = writer.text(term)
    return Rendered(text, tuple(writer.consts.items()), tuple(writer.funcs), writer.clash)


def term_to_text(term: Term) -> str:
    return TermWriter().text(term)


def term_to_sexpr(term: Term) -> Sexpr:
    return parse_one(term_to_text(term))


def term_from_sexpr(
    expr: Sexpr,
    env: Mapping[str, Sort],
    signature: Signature = BUILTIN_SIGNATURE,
    sort: Optional[Sort] = None,
    what: str = "term",
    variables: Optional[dict[str, Var]] = None,
) -> Term:
    """Build a well-sorted term from s-expression syntax, in one walk.

    ``env`` maps mangled variable names to sorts; quantifier binders extend
    it locally. Each node's sort rule runs as the node is built, and the
    term must have ``sort`` unless that is None (``what`` names it in the
    error). ``variables`` holds the ``Var`` of each name, at its latest sort,
    for all calls that share it, such as the terms of one file. A malformed
    form raises a ``SexprError``, an ill-sorted one a ``TermError``.
    """
    if variables is None:
        variables = {}

    def go(e: Sexpr, scope: Mapping[str, Sort]) -> tuple[Term, Sort]:
        if isinstance(e, int):
            return IntLit(e), INT
        if isinstance(e, str):
            if e == "true":
                return TRUE, BOOL
            if e == "false":
                return FALSE, BOOL
            s = scope.get(e)
            if s is not None:
                var = variables.get(e)
                if var is None or (var.sort is not s and var.sort != s):
                    base, (copy, primed) = demangle(e)
                    var = variables[e] = Var(base, s, copy, primed)
                return var, s
            if signature.has(e):
                arg_sorts, result = signature.rank(e)
                if arg_sorts == ():
                    return App(e, ()), result
            raise UnboundVariable(f"unknown atom {e!r}")
        if not isinstance(e, list) or not e:
            raise SexprError(f"bad term {e!r}")
        head, n = e[0], len(e) - 1
        if head == "=>" and n > 2:  # (=> a b c) is (=> a (=> b c))
            return go(["=>", e[1], ["=>", *e[2:]]], scope)
        if isinstance(head, str):
            kind, arity = _GRAMMAR.get(head, (App, None))
        elif isinstance(head, list) and head[:2] == ["as", "const"] and len(head) == 3:
            kind, arity = ConstArray, 1
        else:
            raise SexprError(f"bad term head {to_text(head)}")
        if arity is not None and n != arity:
            if kind is not Sub:
                raise SexprError(f"{to_text(head)} takes {arity} arguments, got {n}")
            if n != 1:
                raise SexprError(f"- takes 1 or 2 arguments, got {n}")
            kind = Neg
        if kind is Forall or kind is Exists:
            binders = atom(e[1], list, "a binder list")
            for b in binders:
                if not (isinstance(b, list) and len(b) == 2 and isinstance(b[0], str)):
                    raise SexprError(f"bad binder {to_text(b)}, expected (name sort)")
            bound = tuple((name, sort_from_sexpr(s)) for name, s in binders)
            body, body_sort = go(e[2], {**scope, **dict(bound)})
            node = kind(bound, body)
            return node, _SORT_RULES[kind](node, (body_sort,), signature)
        args, sorts = [], []
        for a in e[1:]:
            t, s = go(a, scope)
            args.append(t)
            sorts.append(s)
        if kind is Neg and isinstance(args[0], IntLit):
            return IntLit(-args[0].value), INT
        if kind is App:
            node = App(head, tuple(args))
        elif kind is Cmp:
            node = Cmp(head, *args)
        elif isinstance(head, list):
            array = sort_from_sexpr(head[2])
            if not isinstance(array, ArraySort):
                raise SexprError("(as const <sort>) needs an array sort")
            node = ConstArray(args[0], array)
        else:
            node = kind(tuple(args)) if arity is None else kind(*args)
        return node, _SORT_RULES[kind](node, sorts, signature)

    term, actual = go(expr, env)
    if sort is not None:
        expect_sort(actual, sort, what)
    return term


def term_from_text(
    text: str, env: Mapping[str, Sort], signature: Signature = BUILTIN_SIGNATURE
) -> Term:
    return term_from_sexpr(parse_one(text), env, signature)
