"""Sorted first-order terms and formulas.

Terms are immutable trees over booleans, linear integer arithmetic, arrays,
and the function symbols of a ``Signature``; the sorts are ``Int``, ``Bool``
and ``(Array S T)``.  A formula is a boolean-sorted term.  Every
variable carries a *tag*: a copy index (``None`` or a positive integer) and a
primed flag.  Tags render as name suffixes: ``x``, ``x!``, ``x$1``, ``x$1!``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Any, Callable, Mapping, NamedTuple, Optional

from .sexpr import Sexpr, SexprError, atom, pairs, parse_one, to_text


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


class TermError(ValueError):
    pass


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
# Sort checking


def check_sorts(
    term: Term,
    signature: Signature = BUILTIN_SIGNATURE,
    environment: Optional[Mapping[str, Sort]] = None,
) -> Sort:
    """Return the sort of ``term``; raise on ill-sorted trees.

    ``environment`` maps mangled variable names to sorts; every free variable
    must appear in it and agree with its inline sort annotation.
    """
    env = dict(environment) if environment else None

    def go(t: Term, bound: dict[str, Sort]) -> Sort:
        if isinstance(t, Var):
            if t.tag == PLAIN and t.name in bound:
                if bound[t.name] != t.sort:
                    raise SortMismatch(f"bound variable {t.name} sort mismatch")
                return t.sort
            if env is not None:
                declared = env.get(t.mangled)
                if declared is None:
                    raise UnboundVariable(f"free variable {t.mangled} not in environment")
                if declared != t.sort:
                    raise RankMismatch(
                        f"variable {t.mangled}: annotated {t.sort}, declared {declared}"
                    )
            return t.sort
        if isinstance(t, IntLit):
            return INT
        if isinstance(t, BoolLit):
            return BOOL
        if isinstance(t, App):
            arg_sorts, result = signature.rank(t.func)
            actual = tuple(go(a, bound) for a in t.args)
            if actual != arg_sorts:
                raise RankMismatch(f"application of {t.func}: expected {arg_sorts}, got {actual}")
            return result
        if isinstance(t, (Add,)):
            for a in t.args:
                if go(a, bound) != INT:
                    raise RankMismatch("arithmetic over non-integer")
            return INT
        if isinstance(t, (Sub, Mul, Div, Mod)):
            if go(t.left, bound) != INT or go(t.right, bound) != INT:
                raise RankMismatch("arithmetic over non-integer")
            return INT
        if isinstance(t, Neg):
            if go(t.operand, bound) != INT:
                raise RankMismatch("negation of non-integer")
            return INT
        if isinstance(t, Cmp):
            ls, rs = go(t.left, bound), go(t.right, bound)
            if ls != rs:
                raise RankMismatch(f"comparison of {ls} with {rs}")
            if t.op != "=" and ls != INT:
                raise RankMismatch(f"ordered comparison over {ls}")
            return BOOL
        if isinstance(t, Distinct):
            sorts = {go(a, bound) for a in t.args}
            if len(sorts) != 1:
                raise RankMismatch("distinct over mixed sorts")
            return BOOL
        if isinstance(t, Not):
            if go(t.operand, bound) != BOOL:
                raise RankMismatch("negation of non-boolean")
            return BOOL
        if isinstance(t, (And, Or)):
            for a in t.args:
                if go(a, bound) != BOOL:
                    raise RankMismatch("connective over non-boolean")
            return BOOL
        if isinstance(t, Implies):
            if go(t.left, bound) != BOOL or go(t.right, bound) != BOOL:
                raise RankMismatch("implication over non-boolean")
            return BOOL
        if isinstance(t, Ite):
            if go(t.cond, bound) != BOOL:
                raise RankMismatch("ite condition not boolean")
            ts, es = go(t.then, bound), go(t.other, bound)
            if ts != es:
                raise RankMismatch("ite branches of different sorts")
            return ts
        if isinstance(t, Select):
            arr = go(t.array, bound)
            if not isinstance(arr, ArraySort):
                raise RankMismatch("select on non-array")
            if go(t.index, bound) != arr.index:
                raise RankMismatch("select index sort mismatch")
            return arr.element
        if isinstance(t, Store):
            arr = go(t.array, bound)
            if not isinstance(arr, ArraySort):
                raise RankMismatch("store on non-array")
            if go(t.index, bound) != arr.index:
                raise RankMismatch("store index sort mismatch")
            if go(t.value, bound) != arr.element:
                raise RankMismatch("store value sort mismatch")
            return arr
        if isinstance(t, ConstArray):
            if go(t.value, bound) != t.sort.element:
                raise RankMismatch("constant array value sort mismatch")
            return t.sort
        if isinstance(t, Quant):
            names = [name for name, _ in t.bound]
            if len(set(names)) != len(names):
                raise RankMismatch("duplicate bound variable names in one binder")
            inner = dict(bound)
            for name, sort in t.bound:
                inner[name] = sort
            if go(t.body, inner) != BOOL:
                raise RankMismatch("quantifier body not boolean")
            return BOOL
        raise TypeError(f"unknown term {t!r}")

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
    """Move every free variable from tag ``frm`` to tag ``to``."""
    if frm == to:
        return term

    def go(t: Term, bound: frozenset[str]) -> Term:
        if isinstance(t, Var):
            if t.tag == PLAIN and t.name in bound:
                return t
            if t.tag != frm:
                raise TagMismatch(f"variable {t.mangled} does not carry tag {frm}")
            return t.with_tag(to)
        if isinstance(t, Quant):
            inner = bound | {name for name, _ in t.bound}
            body = go(t.body, inner)
            cls = Forall if isinstance(t, Forall) else Exists
            return cls(t.bound, body)
        children = _children(t)
        if not children:
            return t
        return _rebuild(t, tuple(go(c, bound) for c in children))

    return go(term, frozenset())


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


_HEADS = {
    Add: "+", Sub: "-", Neg: "-", Mul: "*", Div: "div", Mod: "mod", Distinct: "distinct",
    Not: "not", And: "and", Or: "or", Implies: "=>", Ite: "ite", Select: "select",
    Store: "store", Forall: "forall", Exists: "exists",
}


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


# operators of fixed arity
_ARITY = {
    "*": 2, "div": 2, "mod": 2, "=": 2, "<": 2, "<=": 2, ">": 2, ">=": 2,
    "not": 1, "ite": 3, "select": 2, "store": 3, "const-arr": 1,
}


def term_from_sexpr(
    expr: Sexpr,
    env: Mapping[str, Sort],
    signature: Signature = BUILTIN_SIGNATURE,
) -> Term:
    """Build a term from s-expression syntax.

    ``env`` maps mangled variable names to sorts; quantifier binders extend
    it locally. A symbol applied outside ``signature``, or to the wrong
    number of arguments, raises a ``TermError``.
    """

    def go(e: Sexpr, scope: Mapping[str, Sort]) -> Term:
        if isinstance(e, int):
            return IntLit(e)
        if isinstance(e, str):
            if e == "true":
                return TRUE
            if e == "false":
                return FALSE
            if e in scope:
                base, tag = demangle(e)
                return Var(base, scope[e], tag[0], tag[1])
            if signature.has(e):
                arg_sorts, _ = signature.rank(e)
                if arg_sorts == ():
                    return App(e, ())
            raise UnboundVariable(f"unknown atom {e!r}")
        if not isinstance(e, list) or not e:
            raise SexprError(f"bad term {e!r}")
        head = e[0]
        if head in ("forall", "exists"):
            if len(e) != 3:
                raise SexprError("quantifier needs binder and body")
            binders = pairs("binder", atom(e[1], list, "a binder list"))
            bound = tuple((name, sort_from_sexpr(sort)) for name, sort in binders.items())
            inner = dict(scope)
            for name, sort in bound:
                inner[name] = sort
            body = go(e[2], inner)
            return (Forall if head == "forall" else Exists)(bound, body)
        args = [go(a, scope) for a in e[1:]]
        if isinstance(head, str) and _ARITY.get(head, len(args)) != len(args):
            raise SexprError(f"{head} takes {_ARITY[head]} arguments, got {len(args)}")
        if head == "+":
            return Add(tuple(args))
        if head == "-":
            if len(args) == 1:
                if isinstance(args[0], IntLit):
                    return IntLit(-args[0].value)
                return Neg(args[0])
            if len(args) == 2:
                return Sub(args[0], args[1])
            raise SexprError("subtraction takes one or two arguments")
        if head == "*":
            return Mul(args[0], args[1])
        if head == "div":
            return Div(args[0], args[1])
        if head == "mod":
            return Mod(args[0], args[1])
        if head in ("=", "<", "<=", ">", ">="):
            return Cmp(head, args[0], args[1])
        if head == "distinct":
            return Distinct(tuple(args))
        if head == "not":
            return Not(args[0])
        if head == "and":
            return And(tuple(args))
        if head == "or":
            return Or(tuple(args))
        if head == "=>":
            if not args:
                raise SexprError("=> takes at least one argument")
            out = args[-1]
            for a in reversed(args[:-1]):
                out = Implies(a, out)
            return out
        if head == "ite":
            return Ite(args[0], args[1], args[2])
        if head == "select":
            return Select(args[0], args[1])
        if head == "store":
            return Store(args[0], args[1], args[2])
        if head == "const-arr":
            return ConstArray(args[0])
        if isinstance(head, list) and head[:2] == ["as", "const"]:
            if len(head) != 3 or len(args) != 1:
                raise SexprError("(as const <sort>) takes a sort and one argument")
            sort = sort_from_sexpr(head[2])
            if not isinstance(sort, ArraySort):
                raise SexprError("(as const <sort>) needs an array sort")
            return ConstArray(args[0], sort)
        if isinstance(head, str):
            arg_sorts, _ = signature.rank(head)
            if len(arg_sorts) != len(args):
                raise RankMismatch(f"{head} takes {len(arg_sorts)} arguments, got {len(args)}")
            return App(head, tuple(args))
        raise SexprError(f"bad term head {head!r}")

    return go(expr, env)


def term_from_text(
    text: str, env: Mapping[str, Sort], signature: Signature = BUILTIN_SIGNATURE
) -> Term:
    return term_from_sexpr(parse_one(text), env, signature)
