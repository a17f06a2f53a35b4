"""Symbolic transition systems and their file format."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .sexpr import atom, pairs, read_form, sections, single
from .terms import (
    BOOL,
    PLAIN,
    PRIMED,
    Sort,
    Tag,
    Term,
    Var,
    free_vars,
    sort_from_sexpr,
    term_from_sexpr,
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


def parse_system(text: str) -> TransitionSystem:
    """Read a ``(system [name] (vars ...) (params ...) (init ...) (tx ...))`` file."""
    items = read_form(text, "system")
    name = "system"
    if items and isinstance(items[0], str):
        name, items = items[0], items[1:]
    found = sections("system", items, ("vars", "init", "tx"), ("params",))
    state_vars = tuple((n, sort_from_sexpr(s)) for n, s in pairs("vars", found["vars"]).items())
    params = tuple(atom(p, str, "a parameter name") for p in found.get("params", ()))
    env_plain = dict(state_vars)
    env_tx = {**env_plain, **{f"{n}!": s for n, s in state_vars}}
    read = partial(term_from_sexpr, sort=BOOL, variables={})  # one Var per name in this file
    init = read(single(found, "init"), env_plain, what="init")
    tx = read(single(found, "tx"), env_tx, what="tx")
    return make_system(name, state_vars, params, init, tx)
