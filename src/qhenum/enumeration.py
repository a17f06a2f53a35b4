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
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .backend import Session
from .qhl import QhpProperty, difference_term, predicate_to_formula
from .sexpr import Sexpr, SexprError, atom, pairs, read_form, sections, single, to_text
from .system import TransitionSystem
from .terms import (
    Add,
    Cmp,
    IntLit,
    Forall,
    INT,
    Not,
    Or,
    PLAIN,
    PRIMED,
    Select,
    Sort,
    Term,
    TermError,
    Var,
    conj,
    indexed,
    neq,
    retag_free,
    sort_from_sexpr,
    substitute,
    term_from_sexpr,
)


class EnumerationError(ValueError):
    pass


class MissingWitness(EnumerationError):
    pass


@dataclass(frozen=True)
class Pointwise:
    """An array-valued witness given entrywise: target[index] = body."""

    index: str
    body: Term


# classes named as strings, so that typing's Union cache holds none of them
SkolemEntry = Union["Term", "Pointwise"]


@dataclass(frozen=True)
class AtInit:
    """Counted traces already differ in the observation at the initial state."""


@dataclass(frozen=True)
class AtIndex:
    """Counted traces differ in the observation once a designated counter
    variable (kept in lockstep by trel) reaches a target value."""

    counter: str
    target: Term  # over X copy 1


DiffMode = Union["AtInit", "AtIndex"]


@dataclass(frozen=True)
class EnumerationWitness:
    enum_vars: tuple[tuple[str, Sort], ...]
    valid: Term  # over Y and X copy 1
    trel: Term  # over Y, X copy 1, X copy 2
    skolem_init: tuple[tuple[str, SkolemEntry], ...]  # per copy-2 state var
    skolem_step: tuple[tuple[str, SkolemEntry], ...]  # per copy-2 next-state var
    strengthening: tuple[Term, ...] = ()  # copy-local, over plain X
    cover: tuple[tuple[str, SkolemEntry], ...] = ()  # per enum var, over X1, X2
    diff_mode: DiffMode = AtInit()
    diff_index: Optional[Term] = None  # over enum copies 1 and 2


@dataclass(frozen=True)
class Obligation:
    label: str
    assertions: tuple[Term, ...]  # proved iff their conjunction is unsat
    syntactic: bool = False  # discharged by construction, no solver call


@dataclass(frozen=True)
class VcBundle:
    kind: str  # injective | surjective
    obligations: tuple[Obligation, ...]


@dataclass(frozen=True)
class ObligationResult:
    label: str
    status: str  # proved | failed | unknown
    wall_ms: int
    model: Optional[tuple[tuple[str, str], ...]] = None


@dataclass(frozen=True)
class DischargeReport:
    kind: str
    results: tuple[ObligationResult, ...]
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
    return predicate_to_formula(prop.body.pred, (indexed(first, primed), indexed(second, primed)))


def _obs(prop: QhpProperty, copy: int) -> Term:
    return retag_free(difference_term(prop), {indexed(1): indexed(copy)})


def _prerequisites(
    system: TransitionSystem, witness: EnumerationWitness, base_label: str, step_label: str
) -> list[Obligation]:
    if not witness.strengthening:
        return []
    inv = conj(*witness.strengthening)
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


# ---------------------------------------------------------------------------
# Bundle generation


def gen_injective_vcs(
    system: TransitionSystem,
    prop: QhpProperty,
    witness: EnumerationWitness,
) -> VcBundle:
    obligations: list[Obligation] = []
    obligations.append(Obligation("totality-of-witness", (), syntactic=True))
    ski = _skolem_equations(system, witness.skolem_init, 2, False, "skolem-init")
    sks = _skolem_equations(system, witness.skolem_step, 2, True, "skolem-step")
    obligations.extend(_prerequisites(system, witness, "existence-base", "existence-step"))

    inv1 = _strengthen_at(witness, 1)
    inv2 = _strengthen_at(witness, 2)
    trel_next = retag_free(
        witness.trel,
        {indexed(1): indexed(1, True), indexed(2): indexed(2, True)},
    )

    base_hyps = (_init_at(system, 1), witness.valid, *ski)
    obligations.append(
        Obligation("existence-base/init", (*base_hyps, Not(_init_at(system, 2))))
    )
    obligations.append(
        Obligation("existence-base/rel", (*base_hyps, Not(witness.trel)))
    )
    step_hyps = (
        witness.valid,
        witness.trel,
        *inv1,
        *inv2,
        _tx_at(system, 1),
        *sks,
    )
    obligations.append(
        Obligation("existence-step/tx", (*step_hyps, Not(_tx_at(system, 2))))
    )
    obligations.append(
        Obligation("existence-step/rel", (*step_hyps, Not(trel_next)))
    )
    obligations.append(
        Obligation(
            "existence-step/psi",
            (witness.valid, witness.trel, *inv1, *inv2, Not(_psi(prop, 1, 2))),
        )
    )
    obligations.extend(_distinctness(system, prop, witness))
    return VcBundle("injective", tuple(obligations))


def _distinctness(
    system: TransitionSystem, prop: QhpProperty, witness: EnumerationWitness
) -> list[Obligation]:
    valid_a = _enum_copy(witness, witness.valid, "a")
    valid_b = _enum_copy(witness, witness.valid, "b")
    trel_a = _enum_copy(witness, witness.trel, "a")
    trel_b = _enum_copy(
        witness,
        retag_free(witness.trel, {indexed(2): indexed(3)}),
        "b",
    )
    differ = _enum_vars_differ(witness, "a", "b")
    obs2, obs3 = _obs(prop, 2), _obs(prop, 3)
    if witness.diff_index is not None:
        delta = substitute(
            witness.diff_index,
            {
                Var(n, s, c): Var(f"{n}.{'a' if c == 1 else 'b'}", s)
                for n, s in witness.enum_vars
                for c in (1, 2)
            },
        )
        observed_diff = neq(Select(obs2, delta), Select(obs3, delta))
    else:
        observed_diff = neq(obs2, obs3)
    inv1 = _strengthen_at(witness, 1)
    inv2 = _strengthen_at(witness, 2)
    inv3 = _strengthen_at(witness, 3)
    mode = witness.diff_mode
    if isinstance(mode, AtInit):
        return [
            Obligation(
                "distinctness",
                (
                    _init_at(system, 1),
                    valid_a,
                    valid_b,
                    differ,
                    trel_a,
                    trel_b,
                    *inv1,
                    *inv2,
                    *inv3,
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
    inv_plain = conj(*witness.strengthening) if witness.strengthening else None
    progress_hyps = ([inv_plain] if inv_plain is not None else []) + [system.tx]
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
                *inv1,
                *inv2,
                *inv3,
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
    obligations: list[Obligation] = []
    obligations.append(Obligation("totality-of-witness", (), syntactic=True))
    given = dict(witness.cover)
    missing = [n for n, _ in witness.enum_vars if n not in given]
    if missing:
        raise MissingWitness(f"cover lacks terms for {', '.join(missing)}")
    cover_eqs = [
        _entry_equation(Var(n, s), given[n]) for n, s in witness.enum_vars
    ]
    obligations.extend(
        _prerequisites(system, witness, "surj-cover-base", "surj-cover-step")
    )
    inv1 = _strengthen_at(witness, 1)
    inv2 = _strengthen_at(witness, 2)
    inv3 = _strengthen_at(witness, 3)
    trel_next = retag_free(
        witness.trel,
        {indexed(1): indexed(1, True), indexed(2): indexed(2, True)},
    )
    obligations.append(
        Obligation(
            "surj-cover-base",
            (
                _init_at(system, 1),
                _init_at(system, 2),
                _psi(prop, 1, 2),
                *cover_eqs,
                Not(conj(witness.valid, witness.trel)),
            ),
        )
    )
    obligations.append(
        Obligation(
            "surj-cover-step",
            (
                witness.valid,
                witness.trel,
                *inv1,
                *inv2,
                _tx_at(system, 1),
                _tx_at(system, 2),
                _psi(prop, 1, 2, primed=True),
                Not(trel_next),
            ),
        )
    )
    trel_13 = retag_free(witness.trel, {indexed(2): indexed(3)})
    obs2, obs3 = _obs(prop, 2), _obs(prop, 3)
    obligations.append(
        Obligation(
            "surj-distinct/base",
            (
                witness.valid,
                _init_at(system, 1),
                _init_at(system, 2),
                _init_at(system, 3),
                witness.trel,
                trel_13,
                Not(Cmp("=", obs2, obs3)),
            ),
        )
    )
    psi_12n = _psi(prop, 1, 2, primed=True)
    psi_13n = retag_free(
        _psi(prop, 1, 3), {indexed(1): indexed(1, True), indexed(3): indexed(3, True)}
    )
    obligations.append(
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
                _tx_at(system, 1),
                _tx_at(system, 2),
                _tx_at(system, 3),
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
        )
    )
    return VcBundle("surjective", tuple(obligations))


# ---------------------------------------------------------------------------
# Discharge

# Obligations are independent, so up to this many solver processes run at once.
DISCHARGE_WORKERS = 8


def discharge(bundle: VcBundle, session: Session) -> DischargeReport:
    """Run every obligation through the solver, one process each."""
    start = time.monotonic()

    def run(ob: Obligation) -> ObligationResult:
        if ob.syntactic:
            return ObligationResult(ob.label, "proved", 0)
        verdict = session.check(ob.assertions, ob.label)
        status = {"unsat": "proved", "sat": "failed"}.get(verdict.status, "unknown")
        return ObligationResult(
            ob.label, status, verdict.wall_ms, verdict.model if status == "failed" else None
        )

    workers = max(1, min(DISCHARGE_WORKERS, len(bundle.obligations)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = tuple(pool.map(run, bundle.obligations))
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
        ("skolem-init", "skolem-step", "cover", "diff-at-index", "diff-index"),
        ("strengthen",),
    )
    enum_vars = tuple(
        (n, sort_from_sexpr(s)) for n, s in pairs("enum-vars", found["enum-vars"]).items()
    )
    env_y = dict(enum_vars)
    env_x1 = {f"{n}$1": s for n, s in system.state_vars}
    env_x2 = {f"{n}$2": s for n, s in system.state_vars}
    env_x1p = {f"{n}$1!": s for n, s in system.state_vars}
    env_plain = dict(system.state_vars)

    def parse_entry(expr: Sexpr, env: Mapping[str, Sort]) -> SkolemEntry:
        if isinstance(expr, list) and expr[:1] == ["pointwise"]:
            if len(expr) != 3 or not (isinstance(expr[1], list) and len(expr[1]) == 1):
                raise SexprError(f"expected (pointwise (index) term), got {to_text(expr)}")
            index = atom(expr[1][0], str, "an index variable")
            return Pointwise(index, term_from_sexpr(expr[2], {**env, index: INT}))
        return term_from_sexpr(expr, env)

    def parse_entries(
        section: str, env: Mapping[str, Sort]
    ) -> tuple[tuple[str, SkolemEntry], ...]:
        entries = pairs(section, found.get(section, ()))
        return tuple((n, parse_entry(e, env)) for n, e in entries.items())

    try:
        valid = term_from_sexpr(single(found, "valid"), {**env_y, **env_x1})
        trel = term_from_sexpr(single(found, "trel"), {**env_y, **env_x1, **env_x2})
        skolem_init = parse_entries("skolem-init", {**env_y, **env_x1})
        skolem_step = parse_entries("skolem-step", {**env_y, **env_x1, **env_x2, **env_x1p})
        cover = parse_entries("cover", {**env_x1, **env_x2})
        strengthening = tuple(
            term_from_sexpr(s, env_plain) for s in found.get("strengthen", ())
        )
        diff_mode: DiffMode = AtInit()
        if "diff-at-index" in found:
            kw = sections("diff-at-index", found["diff-at-index"], ("counter", "target"))
            target = term_from_sexpr(single(kw, "target"), env_x1)
            diff_mode = AtIndex(single(kw, "counter", str), target)
        diff_index = None
        if "diff-index" in found:
            env_ab = {f"{n}${i}": s for n, s in enum_vars for i in (1, 2)}
            diff_index = term_from_sexpr(single(found, "diff-index"), env_ab)
    except TermError as exc:
        raise SexprError(str(exc)) from exc
    return EnumerationWitness(
        enum_vars,
        valid,
        trel,
        skolem_init,
        skolem_step,
        strengthening,
        cover,
        diff_mode,
        diff_index,
    )
