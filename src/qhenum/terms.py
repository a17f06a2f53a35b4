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

``retag_free`` and ``substitute`` return every subterm they do not change
as the same object, so a term they build shares those parts with its
input; terms are immutable, and what ``Term.smt`` and ``Term.memo`` keep
depends on the object alone. Rebuilding walks go through ``_MAP``, which
maps a node's children and keeps the node when none of them changed.
Every recursive walk is a module function, not a closure that calls
itself: such a closure is a reference cycle, which keeps what it holds
until the cyclic collector runs.

Sorts, terms and every other immutable record of the package derive from
``Record``, which gives a class the behaviour of a frozen dataclass without
generating code for it.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import attrgetter, is_not
from typing import Any, Callable, Mapping, Optional, Sequence

from .sexpr import Sexpr, SexprError, atom, parse_one, to_text


# ---------------------------------------------------------------------------
# Records


_REQUIRED = object()


def _init(names: tuple[str, ...], defaults: tuple) -> Callable[..., None]:
    """An ``__init__`` that sets its arguments as the fields ``names``, the
    last of them defaulting to ``defaults``.

    Each field is set with ``object.__setattr__``: the values stay inline in
    the instance, where attribute reads are fastest (writing to ``__dict__``
    instead makes attribute reads three times slower, Python 3.11). Up to
    four fields, one closure per arity sets them from positional arguments,
    as term nodes are built by the thousand: a loop over the names took
    1.1 us per ``Var`` against 0.6 us. More fields are also taken by name;
    an unknown, repeated or missing one raises ``TypeError``."""
    n = len(names)
    put = object.__setattr__
    if n == 1:
        (a,) = names

        def __init__(self, v0):
            put(self, a, v0)

    elif n == 2:
        a, b = names

        def __init__(self, v0, v1):
            put(self, a, v0)
            put(self, b, v1)

    elif n == 3:
        a, b, c = names

        def __init__(self, v0, v1, v2):
            put(self, a, v0)
            put(self, b, v1)
            put(self, c, v2)

    elif n == 4:
        a, b, c, e = names

        def __init__(self, v0, v1, v2, v3):
            put(self, a, v0)
            put(self, b, v1)
            put(self, c, v2)
            put(self, e, v3)

    else:
        # a required field holds _REQUIRED until its argument is given
        required = n - len(defaults)
        template = (_REQUIRED,) * required + defaults
        index = {name: i for i, name in enumerate(names)}

        def __init__(self, *values, **named):
            given = len(values)
            if given > n:
                raise TypeError(
                    f"{type(self).__qualname__}() takes {n} arguments ({required} required), "
                    f"got {given}"
                )
            values = [*values, *template[given:]]
            for name, value in named.items():
                i = index.get(name, n)
                if i == n:
                    raise TypeError(f"{type(self).__qualname__}() has no field {name!r}")
                if i < given:
                    raise TypeError(f"{type(self).__qualname__}() got field {name!r} twice")
                values[i] = value
            for name, value in zip(names, values):
                if value is _REQUIRED:
                    raise TypeError(f"{type(self).__qualname__}() missing field {name!r}")
                put(self, name, value)

        return __init__
    __init__.__defaults__ = defaults
    return __init__


def _key(names: tuple[str, ...]) -> Callable[[Any], tuple]:
    """The function from a record to the tuple of its fields ``names``."""
    if len(names) > 1:
        return attrgetter(*names)
    get = attrgetter(names[0])
    return lambda record: (get(record),)


class Record:
    """An immutable record with the behaviour of a frozen dataclass.

    A subclass's fields are its parent's, then its own annotated names; a
    class attribute of a field's name is its default. A record of up to four
    fields is built positionally (see ``_init``). Records are equal when
    their classes are the same and their fields equal, and hash as the
    tuple of their fields. A class's ``__post_init__`` runs on each new
    record, to check it. The methods are closures made once per class in
    ``__init_subclass__``; no code is generated.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        own = [name for name in cls.__dict__.get("__annotations__", {}) if name not in cls._fields]
        names = cls._fields = (*cls._fields, *own)
        defaults = []
        for name in names:
            if hasattr(cls, name):
                defaults.append(getattr(cls, name))
            elif defaults:
                raise TypeError(f"{cls.__qualname__}: {name!r} follows a field with a default")
        if names:
            key = _key(names)

            def __eq__(self, other):
                if other.__class__ is self.__class__:
                    return key(self) == key(other)
                return NotImplemented

            def __hash__(self):
                return hash(key(self))

        else:  # a sort such as INT, compared and hashed inside every variable
            empty = hash(())

            def __eq__(self, other):
                return other.__class__ is self.__class__ or NotImplemented

            def __hash__(self):
                return empty

        __init__ = init = _init(names, tuple(defaults))
        check = getattr(cls, "__post_init__", None)
        if check is not None:

            def __init__(self, *values, **named):
                init(self, *values, **named)
                check(self)

        for method in (__init__, __eq__, __hash__):
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes: Any) -> Record:
        """A copy of this record with each field that ``changes`` names set
        to its value; a name that is no field raises ``TypeError``."""
        return type(self)(*[changes.pop(name, getattr(self, name)) for name in self._fields], **changes)

    def __reduce__(self) -> tuple:
        # a copy or a pickle carries the fields, not cached values such as a
        # term's ``memo``, which may hold generated functions
        return type(self), tuple([getattr(self, name) for name in self._fields])


# ---------------------------------------------------------------------------
# Sorts


class Sort(Record):
    pass


class BoolSort(Sort):
    pass


class IntSort(Sort):
    pass


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


class Signature(Record):
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


class Term(Record):
    @cached_property
    def smt(self) -> tuple:
        """This term's ``render``, on first use; every query that carries
        the same term object reuses it. Threads that ask at once may each
        walk the term; they keep equal results."""
        return render(self)

    @cached_property
    def memo(self) -> dict:
        """What the oracle builds from this term object, such as its
        generated functions, kept as long as the term."""
        return {}


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


class IntLit(Term):
    value: int


class BoolLit(Term):
    value: bool


class App(Term):
    func: str
    args: tuple[Term, ...]


class Add(Term):
    args: tuple[Term, ...]


class Sub(Term):
    left: Term
    right: Term


class Neg(Term):
    operand: Term


class Mul(Term):
    left: Term
    right: Term


class Div(Term):
    left: Term
    right: Term


class Mod(Term):
    left: Term
    right: Term


class Cmp(Term):
    op: str  # one of = < <= > >=
    left: Term
    right: Term


class Distinct(Term):
    args: tuple[Term, ...]


class Not(Term):
    operand: Term


class And(Term):
    args: tuple[Term, ...]


class Or(Term):
    args: tuple[Term, ...]


class Implies(Term):
    left: Term
    right: Term


class Ite(Term):
    cond: Term
    then: Term
    other: Term


class Select(Term):
    array: Term
    index: Term


class Store(Term):
    array: Term
    index: Term
    value: Term


class ConstArray(Term):
    """Array mapping every index to the same value."""

    value: Term
    sort: ArraySort = ArraySort(INT, INT)


class Quant(Term):
    bound: tuple[tuple[str, Sort], ...]
    body: Term


class Forall(Quant):
    pass


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
    """The variables of ``term`` that no binder binds: a plain variable whose
    name is in ``bound`` or bound by an enclosing quantifier is bound."""
    out: set[Var] = set()
    _add_free(term, bound, out.add)
    return frozenset(out)


def _add_free(t: Term, bound: frozenset[str], add: Callable[[Var], None]) -> None:
    kind = type(t)
    if kind is Var:
        if t.copy is not None or t.primed or t.name not in bound:
            add(t)
    elif kind is Forall or kind is Exists:
        _add_free(t.body, bound | {name for name, _ in t.bound}, add)
    else:
        for child in _children(t):
            _add_free(child, bound, add)


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
    return _check(term, {}, signature, env)


def _check(
    t: Term, bound: dict[str, Sort], signature: Signature, env: Optional[dict[str, Sort]]
) -> Sort:
    """The sort of ``t`` under the binders ``bound``; see ``check_sorts``."""
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
        sorts: Sequence[Sort] = (_check(t.body, {**bound, **dict(t.bound)}, signature, env),)
    else:
        sorts = [_check(c, bound, signature, env) for c in _children(t)]
    return _SORT_RULES[kind](t, sorts, signature)


# ---------------------------------------------------------------------------
# Substitution


# A walk that rebuilds terms, such as ``substitute``, handles variables and
# quantifiers itself and every other node through ``_MAP[type(t)](t, go,
# context)``: ``t`` with each child ``c`` replaced by ``go(c, context)``, or
# ``t`` itself when every child comes back as the same object.


def _map_args(t: Any, go: Callable[[Term, Any], Term], context: Any) -> Term:
    args = t.args
    mapped = [go(a, context) for a in args]
    if not any(map(is_not, mapped, args)):
        return t
    return App(t.func, tuple(mapped)) if type(t) is App else type(t)(tuple(mapped))


def _map_pair(t: Any, go: Callable[[Term, Any], Term], context: Any) -> Term:
    left, right = t.left, t.right
    new_left, new_right = go(left, context), go(right, context)
    if new_left is left and new_right is right:
        return t
    return Cmp(t.op, new_left, new_right) if type(t) is Cmp else type(t)(new_left, new_right)


def _map_one(t: Any, go: Callable[[Term, Any], Term], context: Any) -> Term:
    operand = t.operand
    new = go(operand, context)
    return t if new is operand else type(t)(new)


def _map_fields(t: Any, go: Callable[[Term, Any], Term], context: Any) -> Term:
    children = _children(t)
    mapped = [go(c, context) for c in children]
    if not any(map(is_not, mapped, children)):
        return t
    return ConstArray(mapped[0], t.sort) if type(t) is ConstArray else type(t)(*mapped)


class _ByKind(dict):
    """A table keyed by node kind; a kind outside it is a TypeError."""

    def __missing__(self, kind: type) -> Any:
        raise TypeError(f"unknown term kind {kind.__qualname__}")


_MAP: dict[type, Callable[[Any, Callable[[Term, Any], Term], Any], Term]] = _ByKind({
    **dict.fromkeys((App, Add, Distinct, And, Or), _map_args),
    **dict.fromkeys((Sub, Mul, Div, Mod, Cmp, Implies), _map_pair),
    **dict.fromkeys((Neg, Not), _map_one),
    **dict.fromkeys((Ite, Select, Store, ConstArray), _map_fields),
    **dict.fromkeys((IntLit, BoolLit), lambda t, go, context: t),
})


def _plain_names(term: Term) -> frozenset[str]:
    """The names of the plain free variables of ``term``: those a binder
    of the same name would capture."""
    return frozenset([v.name for v in free_vars(term) if v.copy is None and not v.primed])


def substitute(term: Term, bindings: Mapping[Var, Term]) -> Term:
    """Capture-avoiding substitution of free variables.

    A binder that binds a plain name free in a replacement still live under
    it is renamed ``name~k``, with the least ``k >= 1`` whose name is free
    in neither those replacements nor the body, whether or not a replaced
    variable occurs in the body. A subterm the substitution does not change
    comes back as the same object.
    """
    binds: dict[Var, tuple[Term, frozenset[str]]] = {}
    for var, repl in bindings.items():
        if not isinstance(var, Var):
            raise SortMismatch("binding keys must be variables")
        binds[var] = (repl, _plain_names(repl))
    return _substitute(term, binds)


def _substitute(t: Term, binds: dict[Var, tuple[Term, frozenset[str]]]) -> Term:
    """``t`` with each variable in ``binds`` replaced by the first of its
    pair, whose second is the plain names free in the replacement."""
    kind = type(t)
    if kind is Var:
        hit = binds.get(t)
        return t if hit is None else hit[0]
    if kind is Forall or kind is Exists:
        names = {name for name, _ in t.bound}
        live = {
            v: b for v, b in binds.items() if v.name not in names or v.copy is not None or v.primed
        }
        if not live:
            return t
        captured = set().union(*[capture for _, capture in live.values()])
        if captured.isdisjoint(names):
            body = _substitute(t.body, live)
            return t if body is t.body else kind(t.bound, body)
        taken = captured | _plain_names(t.body)
        renames: dict[Var, tuple[Term, frozenset[str]]] = {}
        new_bound: list[tuple[str, Sort]] = []
        for name, sort in t.bound:
            if name in captured:
                k = 1
                while f"{name}~{k}" in taken:
                    k += 1
                fresh = f"{name}~{k}"
                taken.add(fresh)
                renames[Var(name, sort)] = (Var(fresh, sort), frozenset([fresh]))
                name = fresh
            new_bound.append((name, sort))
        return kind(tuple(new_bound), _substitute(_substitute(t.body, renames), live))
    return _MAP[kind](t, _substitute, binds)


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
    that case goes through ``substitute``, which renames the binder. Each
    variable object is retagged once per call, and a subterm with no
    variable to retag comes back as the same object.
    """
    mapping = {frm: to for frm, to in mapping.items() if frm != to}
    if not mapping:
        return term
    if PLAIN in mapping.values():
        return substitute(
            term, {v: v.with_tag(mapping[v.tag]) for v in free_vars(term) if v.tag in mapping}
        )
    return _retag(term, (frozenset(), mapping, {}))


def _retag(t: Term, context: tuple[frozenset[str], Mapping[Tag, Tag], dict[int, Term]]) -> Term:
    """``t`` retagged; ``context`` holds the names bound around ``t``, the
    mapping of tags and, by ``id``, each free variable already retagged."""
    kind = type(t)
    if kind is Var:
        bound, mapping, retagged = context
        if t.copy is None and not t.primed and t.name in bound:
            return t
        new = retagged.get(id(t))
        if new is None:
            to = mapping.get((t.copy, t.primed))
            new = retagged[id(t)] = t if to is None else t.with_tag(to)
        return new
    if kind is Forall or kind is Exists:
        bound, mapping, retagged = context
        body = _retag(t.body, (bound | {name for name, _ in t.bound}, mapping, retagged))
        return t if body is t.body else kind(t.bound, body)
    return _MAP[kind](t, _retag, context)


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
            # ``term.mangled``, spelled out: this runs once per occurrence
            name, copy = term.name, term.copy
            if copy is not None:
                name = f"{name}${copy}!" if term.primed else f"{name}${copy}"
            elif term.primed:
                name += "!"
            elif name in bound:
                return name
            sort = term.sort
            prev = self.consts.setdefault(name, sort)
            if prev is not sort and prev != sort and self.clash is None:
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
        if not children:
            return f"({head})"
        text = self.text
        return f"({head} {' '.join([text(c, bound) for c in children])})"


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


def render(term: Term) -> tuple[str, tuple[tuple[str, Sort], ...], tuple[str, ...], Optional[str]]:
    """What one ``TermWriter`` walk of ``term`` finds: its text, its free
    constants with their sorts, first seen first, the symbols it applies,
    parents before arguments, and the first constant seen at two sorts."""
    writer = TermWriter()
    text = writer.text(term)
    return text, tuple(writer.consts.items()), tuple(writer.funcs), writer.clash


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
    term, actual = _read(expr, env, signature, {} if variables is None else variables)
    if sort is not None:
        expect_sort(actual, sort, what)
    return term


def _read(
    e: Sexpr, scope: Mapping[str, Sort], signature: Signature, variables: dict[str, Var]
) -> tuple[Term, Sort]:
    """The term ``e`` and its sort; see ``term_from_sexpr``."""
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
        return _read(["=>", e[1], ["=>", *e[2:]]], scope, signature, variables)
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
        body, body_sort = _read(e[2], {**scope, **dict(bound)}, signature, variables)
        node = kind(bound, body)
        return node, _SORT_RULES[kind](node, (body_sort,), signature)
    args, sorts = [], []
    for a in e[1:]:
        t, s = _read(a, scope, signature, variables)
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


def term_from_text(
    text: str, env: Mapping[str, Sort], signature: Signature = BUILTIN_SIGNATURE
) -> Term:
    return term_from_sexpr(parse_one(text), env, signature)
