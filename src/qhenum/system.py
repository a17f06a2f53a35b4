"""Symbolic transition systems, self-composition, and 1-induction checking."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .backend import MODEL_OPTIONS, Session, Verdict
from .sexpr import Sexpr, SexprError, parse_one
from .terms import (
    PLAIN,
    PRIMED,
    Exists,
    Signature,
    Sort,
    Tag,
    Term,
    TermError,
    Var,
    conj,
    free_vars,
    indexed,
    retag_free,
    sort_from_sexpr,
    substitute,
    term_from_sexpr,
    Not,
)


class SystemError_(ValueError):
    pass


@dataclass(frozen=True)
class TransitionSystem:
    name: str
    state_vars: tuple[tuple[str, Sort], ...]
    params: tuple[str, ...]
    init: Term
    tx: Term

    def sort_of(self, name: str) -> Sort:
        for vname, sort in self.state_vars:
            if vname == name:
                return sort
        raise SystemError_(f"unknown state variable {name!r}")

    def var(self, name: str, tag: Tag = PLAIN) -> Var:
        return Var(name, self.sort_of(name), tag[0], tag[1])

    def vars(self, tag: Tag = PLAIN) -> tuple[Var, ...]:
        return tuple(Var(n, s, tag[0], tag[1]) for n, s in self.state_vars)


def make_system(
    name: str,
    state_vars: Sequence[tuple[str, Sort]],
    params: Sequence[str],
    init: Term,
    tx: Term,
) -> TransitionSystem:
    names = {n for n, _ in state_vars}
    if len(names) != len(state_vars):
        raise SystemError_("duplicate state variable names")
    for p in params:
        if p not in names:
            raise SystemError_(f"parameter {p!r} is not a state variable")
    for v in free_vars(init):
        if v.name not in names or v.tag != PLAIN:
            raise SystemError_(f"init mentions {v.mangled} outside X")
    for v in free_vars(tx):
        if v.name not in names or v.tag not in (PLAIN, PRIMED):
            raise SystemError_(f"tx mentions {v.mangled} outside X and X'")
    return TransitionSystem(name, tuple(state_vars), tuple(params), init, tx)


@dataclass(frozen=True)
class ComposedSystem:
    base: TransitionSystem
    copies: int
    system: TransitionSystem


def self_compose(system: TransitionSystem, k: int) -> ComposedSystem:
    """Product of ``k`` index-tagged copies of ``system``."""
    if k < 1:
        raise SystemError_("self-composition needs k >= 1")
    state_vars: list[tuple[str, Sort]] = []
    inits: list[Term] = []
    txs: list[Term] = []
    for i in range(1, k + 1):
        for vname, sort in system.state_vars:
            state_vars.append((f"{vname}${i}", sort))
        inits.append(retag_free(system.init, {PLAIN: indexed(i)}))
        txs.append(retag_free(system.tx, {PLAIN: indexed(i), PRIMED: indexed(i, True)}))
    # composed variables keep base names and carry index tags 1..k
    composed = TransitionSystem(
        name=f"{system.name}^{k}",
        state_vars=tuple(system.state_vars),
        params=system.params,
        init=conj(*inits),
        tx=conj(*txs),
    )
    return ComposedSystem(system, k, composed)


@dataclass(frozen=True)
class InductiveObligation:
    system: TransitionSystem
    invariant: Term
    auxiliaries: tuple[Term, ...] = ()
    copies: int = 1  # > 1 when the system field came from self-composition


@dataclass(frozen=True)
class InductionResult:
    status: str  # proved | base_fails | step_fails | unknown
    model: Optional[tuple[tuple[str, str], ...]] = None
    base: Optional[Verdict] = None
    step: Optional[Verdict] = None


def _primed(formula: Term, copies: int) -> Term:
    if copies == 1:
        return retag_free(formula, {PLAIN: PRIMED})
    mapping = {indexed(i): indexed(i, True) for i in range(1, copies + 1)}
    return retag_free(formula, mapping)


def check_inductive(
    obligation: InductiveObligation, session: Session, signature: Signature = Signature()
) -> InductionResult:
    """1-induction: base ``Init => Phi`` and step ``Phi /\\ Tx => Phi'``."""
    system = obligation.system
    phi = conj(obligation.invariant, *obligation.auxiliaries)
    base_v = session.check([system.init, Not(phi)], "inductive/base", signature)
    if base_v.status == "sat":
        return InductionResult("base_fails", base_v.model, base=base_v)
    if base_v.status == "unknown":
        return InductionResult("unknown", base=base_v)
    phi_next = _primed(phi, obligation.copies)
    step_v = session.check([phi, system.tx, Not(phi_next)], "inductive/step", signature)
    if step_v.status == "sat":
        return InductionResult("step_fails", step_v.model, base=base_v, step=step_v)
    if step_v.status == "unknown":
        return InductionResult("unknown", base=base_v, step=step_v)
    return InductionResult("proved", base=base_v, step=step_v)


@dataclass(frozen=True)
class TotalityResult:
    status: str  # total | not_total | unknown
    model: Optional[tuple[tuple[str, str], ...]] = None


def check_totality(
    system: TransitionSystem, session: Session, signature: Signature = Signature()
) -> TotalityResult:
    """Check ``forall X exists X'. Tx(X, X')`` with X as fresh constants."""
    bound: list[tuple[str, Sort]] = []
    bindings: dict[Var, Term] = {}
    for vname, sort in system.state_vars:
        fresh = f"{vname}.next"
        bound.append((fresh, sort))
        bindings[Var(vname, sort, None, True)] = Var(fresh, sort)
    body = substitute(system.tx, bindings)
    verdict = session.check(
        [Not(Exists(tuple(bound), body))], "totality", signature, MODEL_OPTIONS
    )
    if verdict.status == "unsat":
        return TotalityResult("total")
    if verdict.status == "sat":
        return TotalityResult("not_total", verdict.model)
    return TotalityResult("unknown")


def parse_system(text: str, signature: Signature = Signature()) -> TransitionSystem:
    """Read a ``(system (vars ...) (params ...) (init ...) (tx ...))`` file."""
    form = parse_one(text)
    if not isinstance(form, list) or not form or form[0] != "system":
        raise SexprError("expected (system ...)")
    sections: dict[str, Sexpr] = {}
    name = "system"
    for item in form[1:]:
        if isinstance(item, str):
            name = item
            continue
        if not isinstance(item, list) or not item or not isinstance(item[0], str):
            raise SexprError(f"bad system section {item!r}")
        sections[item[0]] = item
    if "vars" not in sections or "init" not in sections or "tx" not in sections:
        raise SexprError("system needs vars, init, and tx sections")
    state_vars = tuple(
        (entry[0], sort_from_sexpr(entry[1])) for entry in sections["vars"][1:]
    )
    params = tuple(sections.get("params", ["params"])[1:])
    env_plain = {n: s for n, s in state_vars}
    env_tx = dict(env_plain)
    for n, s in state_vars:
        env_tx[f"{n}!"] = s
    try:
        init = term_from_sexpr(sections["init"][1], env_plain, signature)
        tx = term_from_sexpr(sections["tx"][1], env_tx, signature)
    except TermError as exc:
        raise SexprError(str(exc)) from exc
    return make_system(name, state_vars, params, init, tx)
