"""Trace-enumeration witnesses and the injective/surjective verification
conditions that reduce trace counting to model counting.

A witness supplies, for a system ``M`` and counting property over traces:

* enumeration variables ``Y`` with a validity predicate ``Valid(Y, Z)``,
* a stepwise relation ``trel(Y, X1, X2)`` tying a counted trace (copy 2) to
  the pivot trace (copy 1) one state at a time,
* Skolem terms pinning the initial state and the next state of the counted
  trace, which turn the existential obligations into quantifier-free ones,
* optional copy-local strengthening invariants, proved inductive once and
  then assumed on every copy.

The injective bundle shows that distinct valid assignments enumerate
distinct counted traces (a lower bound on the trace count); the surjective
bundle shows that every counted trace is covered by some valid assignment
and that same-assignment traces are observationally equal (an upper bound).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Mapping, Optional, Sequence, Union

from .backend import Answer, Obligation, Session
from .qhl import QhpProperty, difference_term
from .sexpr import Sexpr, SexprError, atom, pairs, read_form, sections, single, to_text
from .system import TransitionSystem
from .terms import (
    BOOL,
    Add,
    ArraySort,
    Cmp,
    IntLit,
    Forall,
    INT,
    Not,
    Or,
    PLAIN,
    PRIMED,
    Record,
    Select,
    Sort,
    Term,
    Var,
    conj,
    indexed,
    mangle,
    neq,
    retag_free,
    sort_from_sexpr,
    sort_to_text,
    substitute,
    term_from_sexpr,
)


class EnumerationError(ValueError):
    pass


class MissingWitness(EnumerationError):
    pass


class Pointwise(Record):
    """An array-valued witness given entrywise: target[index] = body."""

    index: str
    body: Term


# classes named as strings, so that typing's Union cache holds none of them
SkolemEntry = Union["Term", "Pointwise"]


class AtIndex(Record):
    """Counted traces differ in the observation once a designated counter
    variable (kept in lockstep by trel) reaches a target value."""

    counter: str
    target: Term  # over X copy 1


class EnumerationWitness(Record):
    enum_vars: tuple[tuple[str, Sort], ...]
    valid: Term  # over Y and X copy 1
    trel: Term  # over Y, X copy 1, X copy 2
    skolem_init: tuple[tuple[str, SkolemEntry], ...]  # per copy-2 state var
    skolem_step: tuple[tuple[str, SkolemEntry], ...]  # per copy-2 next-state var
    strengthening: tuple[Term, ...] = ()  # copy-local, over plain X
    cover: tuple[tuple[str, SkolemEntry], ...] = ()  # per enum var, over X1, X2
    # None: counted traces already differ in the observation at the initial state
    diff_mode: Optional[AtIndex] = None


class VcBundle(Record):
    kind: str  # injective | surjective
    obligations: tuple[Obligation, ...]


class DischargeReport(Record):
    kind: str
    results: tuple[Answer, ...]
    established: bool
    wall_ms: int


# ---------------------------------------------------------------------------
# Helpers


def _entry_equation(target: Var, entry: SkolemEntry) -> Term:
    if isinstance(entry, Pointwise):
        j = Var(entry.index, INT)
        return Forall(
            ((entry.index, INT),),
            Cmp("=", Select(target, j), entry.body),
        )
    return Cmp("=", target, entry)


def _skolem_equations(
    system: TransitionSystem,
    entries: Sequence[tuple[str, SkolemEntry]],
    copy: int,
    primed: bool,
    what: str,
) -> list[Term]:
    given = dict(entries)
    missing = [n for n, _ in system.state_vars if n not in given]
    if missing:
        raise MissingWitness(f"{what} lacks terms for {', '.join(missing)}")
    eqs = []
    for vname, sort in system.state_vars:
        eqs.append(_entry_equation(Var(vname, sort, copy, primed), given[vname]))
    return eqs


def _enum_copy(witness: EnumerationWitness, term: Term, suffix: str) -> Term:
    """Rename the (plain) enumeration variables to a per-copy namespace."""
    mapping = {
        Var(n, s): Var(f"{n}.{suffix}", s) for n, s in witness.enum_vars
    }
    return substitute(term, mapping)


def _enum_vars_differ(witness: EnumerationWitness, a: str, b: str) -> Term:
    disjuncts = tuple(
        neq(Var(f"{n}.{a}", s), Var(f"{n}.{b}", s)) for n, s in witness.enum_vars
    )
    return disjuncts[0] if len(disjuncts) == 1 else Or(disjuncts)


def _strengthen_at(witness: EnumerationWitness, copy: int) -> list[Term]:
    return [
        retag_free(s, {PLAIN: indexed(copy)}) for s in witness.strengthening
    ]


def _psi(prop: QhpProperty, first: int, second: int, primed: bool = False) -> Term:
    mapping = {indexed(1): indexed(first, primed), indexed(2): indexed(second, primed)}
    return retag_free(prop.body, mapping)


def _obs(observed: Term, copy: int) -> Term:
    """The observation term ``observed`` (over copy 1) at ``copy``."""
    return retag_free(observed, {indexed(1): indexed(copy)})


def _prerequisites(
    system: TransitionSystem, inv: Optional[Term], base_label: str, step_label: str
) -> list[Obligation]:
    """That the strengthening ``inv`` (None: there is none) is inductive."""
    if inv is None:
        return []
    inv_next = retag_free(inv, {PLAIN: PRIMED})
    return [
        Obligation(f"{base_label}/inv-init", (system.init, Not(inv))),
        Obligation(f"{step_label}/inv-preservation", (inv, system.tx, Not(inv_next))),
    ]


def _tx_at(system: TransitionSystem, copy: int) -> Term:
    return retag_free(
        system.tx, {PLAIN: indexed(copy), PRIMED: indexed(copy, True)}
    )


def _init_at(system: TransitionSystem, copy: int) -> Term:
    return retag_free(system.init, {PLAIN: indexed(copy)})


def _strengthening(witness: EnumerationWitness) -> Optional[Term]:
    return conj(*witness.strengthening) if witness.strengthening else None


# ---------------------------------------------------------------------------
# Bundle generation
#
# Each generator builds every per-copy term once and hands the same object to
# each obligation that carries it, so each is rendered once per bundle.


def gen_injective_vcs(
    system: TransitionSystem,
    prop: QhpProperty,
    witness: EnumerationWitness,
) -> VcBundle:
    ski = _skolem_equations(system, witness.skolem_init, 2, False, "skolem-init")
    sks = _skolem_equations(system, witness.skolem_step, 2, True, "skolem-step")
    inv = _strengthening(witness)
    inv1, inv2, inv3 = (_strengthen_at(witness, copy) for copy in (1, 2, 3))
    init1 = _init_at(system, 1)
    trel_next = retag_free(
        witness.trel,
        {indexed(1): indexed(1, True), indexed(2): indexed(2, True)},
    )
    base_hyps = (init1, witness.valid, *ski)
    step_hyps = (witness.valid, witness.trel, *inv1, *inv2, _tx_at(system, 1), *sks)
    obligations = [
        Obligation("totality-of-witness", (), syntactic=True),
        *_prerequisites(system, inv, "existence-base", "existence-step"),
        Obligation("existence-base/init", (*base_hyps, Not(_init_at(system, 2)))),
        Obligation("existence-base/rel", (*base_hyps, Not(witness.trel))),
        Obligation("existence-step/tx", (*step_hyps, Not(_tx_at(system, 2)))),
        Obligation("existence-step/rel", (*step_hyps, Not(trel_next))),
        Obligation(
            "existence-step/psi",
            (witness.valid, witness.trel, *inv1, *inv2, Not(_psi(prop, 1, 2))),
        ),
        *_distinctness(
            system, difference_term(prop), witness, init1, inv, (*inv1, *inv2, *inv3)
        ),
    ]
    return VcBundle("injective", tuple(obligations))


def _distinctness(
    system: TransitionSystem,
    observed: Term,
    witness: EnumerationWitness,
    init1: Term,
    inv: Optional[Term],
    inv_copies: tuple[Term, ...],
) -> list[Obligation]:
    """The distinctness obligations, given the observation term over copy 1
    (``observed``), ``init`` at copy 1 and the strengthening, whole
    (``inv``) and at copies 1 to 3 (``inv_copies``)."""
    valid_a = _enum_copy(witness, witness.valid, "a")
    valid_b = _enum_copy(witness, witness.valid, "b")
    trel_a = _enum_copy(witness, witness.trel, "a")
    trel_b = _enum_copy(
        witness,
        retag_free(witness.trel, {indexed(2): indexed(3)}),
        "b",
    )
    differ = _enum_vars_differ(witness, "a", "b")
    observed_diff = neq(_obs(observed, 2), _obs(observed, 3))
    mode = witness.diff_mode
    if mode is None:
        return [
            Obligation(
                "distinctness",
                (
                    init1,
                    valid_a,
                    valid_b,
                    differ,
                    trel_a,
                    trel_b,
                    *inv_copies,
                    Not(observed_diff),
                ),
            )
        ]
    counter1 = system.var(mode.counter, indexed(1))
    counter2 = system.var(mode.counter, indexed(2))
    counter3 = system.var(mode.counter, indexed(3))
    counter = system.var(mode.counter)
    counter_next = system.var(mode.counter, PRIMED)
    target_plain = retag_free(mode.target, {indexed(1): PLAIN})
    progress_hyps = ([inv] if inv is not None else []) + [system.tx]
    return [
        Obligation(
            "distinctness/lockstep",
            (witness.valid, witness.trel, Not(Cmp("=", counter2, counter1))),
        ),
        Obligation(
            "distinctness/progress",
            (
                *progress_hyps,
                Not(
                    Or(
                        (
                            Cmp("=", counter_next, Add((counter, IntLit(1)))),
                            Cmp(">=", counter, target_plain),
                        )
                    )
                ),
            ),
        ),
        Obligation(
            "distinctness/arrival",
            (
                valid_a,
                valid_b,
                differ,
                trel_a,
                trel_b,
                *inv_copies,
                Cmp("=", counter2, mode.target),
                Cmp("=", counter3, mode.target),
                Not(observed_diff),
            ),
        ),
    ]


def gen_surjective_vcs(
    system: TransitionSystem,
    prop: QhpProperty,
    witness: EnumerationWitness,
) -> VcBundle:
    given = dict(witness.cover)
    missing = [n for n, _ in witness.enum_vars if n not in given]
    if missing:
        raise MissingWitness(f"cover lacks terms for {', '.join(missing)}")
    cover_eqs = [
        _entry_equation(Var(n, s), given[n]) for n, s in witness.enum_vars
    ]
    inv1, inv2, inv3 = (_strengthen_at(witness, copy) for copy in (1, 2, 3))
    init1, init2, init3 = (_init_at(system, copy) for copy in (1, 2, 3))
    tx1, tx2, tx3 = (_tx_at(system, copy) for copy in (1, 2, 3))
    trel_next = retag_free(
        witness.trel,
        {indexed(1): indexed(1, True), indexed(2): indexed(2, True)},
    )
    trel_13 = retag_free(witness.trel, {indexed(2): indexed(3)})
    observed = difference_term(prop)
    obs2, obs3 = _obs(observed, 2), _obs(observed, 3)
    psi_12n = _psi(prop, 1, 2, primed=True)
    psi_13n = _psi(prop, 1, 3, primed=True)
    obligations = [
        Obligation("totality-of-witness", (), syntactic=True),
        *_prerequisites(system, _strengthening(witness), "surj-cover-base", "surj-cover-step"),
        Obligation(
            "surj-cover-base",
            (
                init1,
                init2,
                _psi(prop, 1, 2),
                *cover_eqs,
                Not(conj(witness.valid, witness.trel)),
            ),
        ),
        Obligation(
            "surj-cover-step",
            (witness.valid, witness.trel, *inv1, *inv2, tx1, tx2, psi_12n, Not(trel_next)),
        ),
        Obligation(
            "surj-distinct/base",
            (
                witness.valid,
                init1,
                init2,
                init3,
                witness.trel,
                trel_13,
                Not(Cmp("=", obs2, obs3)),
            ),
        ),
        Obligation(
            "surj-distinct/step",
            (
                witness.valid,
                witness.trel,
                trel_13,
                *inv1,
                *inv2,
                *inv3,
                Cmp("=", obs2, obs3),
                tx1,
                tx2,
                tx3,
                psi_12n,
                psi_13n,
                Not(
                    Cmp(
                        "=",
                        retag_free(obs2, {indexed(2): indexed(2, True)}),
                        retag_free(obs3, {indexed(3): indexed(3, True)}),
                    )
                ),
            ),
        ),
    ]
    return VcBundle("surjective", tuple(obligations))


# ---------------------------------------------------------------------------
# Discharge

# Obligations are independent, so up to this many solver processes run at once.
DISCHARGE_WORKERS = 8


def discharge(bundle: VcBundle, session: Session) -> DischargeReport:
    """Ask every obligation, one solver process each."""
    start = time.monotonic()
    workers = max(1, min(DISCHARGE_WORKERS, len(bundle.obligations)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = tuple(pool.map(session.ask, bundle.obligations))
    established = all(r.status == "proved" for r in results)
    return DischargeReport(
        bundle.kind, results, established, int((time.monotonic() - start) * 1000)
    )


# ---------------------------------------------------------------------------
# Witness file parsing


def parse_enumeration(text: str, system: TransitionSystem) -> EnumerationWitness:
    """Read an ``(enumeration (enum-vars ...) (valid ...) (trel ...) ...)`` file."""
    found = sections(
        "enumeration",
        read_form(text, "enumeration"),
        ("enum-vars", "valid", "trel"),
        ("skolem-init", "skolem-step", "cover", "diff-at-index"),
        ("strengthen",),
    )
    enum_vars = tuple(
        (n, sort_from_sexpr(s)) for n, s in pairs("enum-vars", found["enum-vars"]).items()
    )
    env_y = dict(enum_vars)
    env_x1 = {mangle(n, indexed(1)): s for n, s in system.state_vars}
    env_x2 = {mangle(n, indexed(2)): s for n, s in system.state_vars}
    env_x1p = {mangle(n, indexed(1, True)): s for n, s in system.state_vars}
    env_plain = dict(system.state_vars)
    read = partial(term_from_sexpr, variables={})  # one Var per name in this file

    def parse_entries(
        section: str, targets: Mapping[str, Sort], what: str, env: Mapping[str, Sort]
    ) -> tuple[tuple[str, SkolemEntry], ...]:
        """Each entry's term, of its target's sort; a ``(pointwise (j) body)``
        entry gives an array target entrywise, by a body of the element sort."""
        out = []
        for name, expr in pairs(section, found.get(section, ())).items():
            sort = targets.get(name)
            if sort is None:
                raise SexprError(f"{section}: {name} is not {what}")
            where = f"{section} {name}"
            if not (isinstance(expr, list) and expr[:1] == ["pointwise"]):
                out.append((name, read(expr, env, sort=sort, what=where)))
                continue
            if len(expr) != 3 or not (isinstance(expr[1], list) and len(expr[1]) == 1):
                raise SexprError(f"expected (pointwise (index) term), got {to_text(expr)}")
            if not (isinstance(sort, ArraySort) and sort.index == INT):
                raise SexprError(f"{where} is {sort_to_text(sort)}, not an array over Int")
            index = atom(expr[1][0], str, "an index variable")
            body = read(expr[2], {**env, index: INT}, sort=sort.element, what=where)
            out.append((name, Pointwise(index, body)))
        return tuple(out)

    states = "a state variable"
    valid = read(single(found, "valid"), {**env_y, **env_x1}, sort=BOOL, what="valid")
    trel = read(single(found, "trel"), {**env_y, **env_x1, **env_x2}, sort=BOOL, what="trel")
    skolem_init = parse_entries("skolem-init", env_plain, states, {**env_y, **env_x1})
    skolem_step = parse_entries(
        "skolem-step", env_plain, states, {**env_y, **env_x1, **env_x2, **env_x1p}
    )
    cover = parse_entries("cover", env_y, "an enumeration variable", {**env_x1, **env_x2})
    strengthening = tuple(
        read(s, env_plain, sort=BOOL, what="strengthen") for s in found.get("strengthen", ())
    )
    diff_mode = None
    if "diff-at-index" in found:
        kw = sections("diff-at-index", found["diff-at-index"], ("counter", "target"))
        counter = single(kw, "counter", str)
        if counter not in env_plain:
            raise SexprError(f"diff-at-index: counter {counter} is not {states}")
        target = read(single(kw, "target"), env_x1, sort=env_plain[counter], what="target")
        diff_mode = AtIndex(counter, target)
    return EnumerationWitness(
        enum_vars,
        valid,
        trel,
        skolem_init,
        skolem_step,
        strengthening,
        cover,
        diff_mode,
    )
