"""Quantitative HyperLTL properties of the one shape trace enumeration
proves, ``forall t0. # t1 : F(diff). G(body) <| N(Z)``, where ``diff`` and
``body`` are binary state predicates (see ``QhpProperty``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from .sexpr import SexprError, atom, read_form, sections, single, to_text
from .system import TransitionSystem
from .terms import (
    BOOL,
    INT,
    And,
    Cmp,
    Distinct,
    IntLit,
    Not,
    PLAIN,
    Tag,
    Term,
    TRUE,
    Var,
    free_vars,
    indexed,
    retag_free,
    term_from_sexpr,
)


class QhlError(ValueError):
    pass


class MissingAssignment(QhlError):
    pass


@dataclass(frozen=True)
class StatePredicate:
    """A k-ary predicate over states: body uses variable copies 1..k."""

    arity: int
    body: Term

    def __post_init__(self) -> None:
        for v in free_vars(self.body):
            if v.primed or v.copy is None or not (1 <= v.copy <= self.arity):
                raise QhlError(f"predicate body mentions {v.mangled} outside copies 1..{self.arity}")


@dataclass(frozen=True)
class HFinally:
    """``F pred``: ``pred`` holds at some position."""

    pred: StatePredicate


@dataclass(frozen=True)
class HGlobally:
    """``G pred``: ``pred`` holds at every position."""

    pred: StatePredicate


@dataclass(frozen=True)
class QhpProperty:
    """``forall pivot. # counted : diff. body <| bound``.

    Copy 1 of ``body`` is the pivot and copy 2 the counted trace; copies 1
    and 2 of ``diff`` are two counted traces, which must eventually differ
    to count apart.
    """

    diff: HFinally
    body: HGlobally
    cmp: str  # leq | eq | geq
    bound: Term
    assuming: Term = TRUE


def predicate_to_formula(pred: StatePredicate, assignment: Sequence[Tag]) -> Term:
    """Instantiate copies 1..k of ``pred`` at the given tags."""
    if len(assignment) != pred.arity:
        raise MissingAssignment(
            f"predicate of arity {pred.arity} given {len(assignment)} tags"
        )
    mapping = {indexed(i + 1): tag for i, tag in enumerate(assignment)}
    return retag_free(pred.body, mapping)


@dataclass(frozen=True)
class WellDefinedResult:
    ok: bool
    reason: str = ""


def _difference_pattern(pred: StatePredicate) -> Optional[Term]:
    """If pred(s1, s2) has shape f(s1) != f(s2), return f over copy 1."""
    body = pred.body
    if isinstance(body, Not) and isinstance(body.operand, Cmp) and body.operand.op == "=":
        left, right = body.operand.left, body.operand.right
    elif isinstance(body, Distinct) and len(body.args) == 2:
        left, right = body.args
    else:
        return None
    if any(v.copy != 1 or v.primed for v in free_vars(left)):
        return None
    if retag_free(left, {indexed(1): indexed(2)}) == right:
        return left
    return None


def difference_term(prop: QhpProperty) -> Term:
    """The observation term f with diff = F(f(s1) != f(s2)), over copy 1."""
    f = _difference_pattern(prop.diff.pred)
    if f is None:
        raise QhlError("difference formula is not of the shape f(s1) != f(s2)")
    return f


def check_well_defined(prop: QhpProperty, system: TransitionSystem) -> WellDefinedResult:
    """Syntactic well-definedness: diff is a difference pattern and the
    conjunction of body forces equality of every parameter."""
    if _difference_pattern(prop.diff.pred) is None:
        return WellDefinedResult(False, "diff predicate is not a difference pattern f(s1) != f(s2)")
    body = prop.body.pred.body
    conjuncts = list(body.args) if isinstance(body, And) else [body]
    for z in system.params:
        z1 = Var(z, system.sort_of(z), 1, False)
        z2 = Var(z, system.sort_of(z), 2, False)
        found = any(
            isinstance(c, Cmp)
            and c.op == "="
            and ((c.left, c.right) == (z1, z2) or (c.left, c.right) == (z2, z1))
            for c in conjuncts
        )
        if not found:
            return WellDefinedResult(False, f"body does not force equality of parameter {z}")
    for v in free_vars(prop.bound):
        if v.tag != PLAIN or v.name not in system.params:
            return WellDefinedResult(False, f"bound mentions non-parameter {v.mangled}")
    return WellDefinedResult(True)


def parse_property(text: str, system: TransitionSystem) -> QhpProperty:
    """Read a ``(qhp (forall t0) (count t1 :diff ... :body ... :cmp ... :bound ...))`` file.

    The trace names are labels only: copies 1 and 2 of each predicate carry
    the roles.
    """
    found = sections("qhp", read_form(text, "qhp"), ("forall", "count"))
    single(found, "forall", str)
    if not found["count"]:
        raise SexprError("(count ...) needs a trace variable")
    atom(found["count"][0], str, "a trace variable")
    rest = found["count"][1:]
    keywords = []
    for i in range(0, len(rest), 2):
        if not (isinstance(rest[i], str) and rest[i].startswith(":")) or i + 1 == len(rest):
            raise SexprError(f"count: expected :keyword value, got {to_text(rest[i:i + 2])}")
        keywords.append(rest[i : i + 2])
    kw = sections("count", keywords, (":diff", ":body", ":cmp", ":bound"), (":assuming",))

    env2 = {}
    for vname, sort in system.state_vars:
        env2[f"{vname}$1"] = sort
        env2[f"{vname}$2"] = sort

    read = partial(term_from_sexpr, variables={})  # one Var per name in this file

    def temporal(key: str, head: str, shape: str) -> StatePredicate:
        expr = single(kw, key)
        if not (isinstance(expr, list) and len(expr) == 2 and expr[0] == head):
            raise SexprError(f"{key[1:]} is not of the form {shape}(predicate)")
        return StatePredicate(2, read(expr[1], env2, sort=BOOL, what=key[1:]))

    diff = HFinally(temporal(":diff", "finally", "F"))
    body = HGlobally(temporal(":body", "globally", "G"))
    env_z = {z: system.sort_of(z) for z in system.params}
    bound = read(single(kw, ":bound"), env_z, sort=INT, what="bound")
    assuming = read(single(kw, ":assuming", default="true"), env_z, sort=BOOL, what="assuming")
    cmp = single(kw, ":cmp")
    if cmp in ("lt", "gt"):
        if not isinstance(bound, IntLit):
            raise QhlError("strict comparators require a literal bound")
        bound = IntLit(bound.value - 1 if cmp == "lt" else bound.value + 1)
        cmp = "leq" if cmp == "lt" else "geq"
    if cmp not in ("leq", "eq", "geq"):
        raise SexprError(f"bad comparator {cmp!r}")
    return QhpProperty(diff, body, cmp, bound, assuming)
