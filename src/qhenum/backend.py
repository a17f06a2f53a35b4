"""SMT-LIB2 query emission and external solver process management."""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import threading
import time
from pathlib import Path
from typing import Optional, Sequence

from . import sexpr
from .terms import BUILTIN_SIGNATURE, Record, Signature, Sort, Term, render, sort_to_text


class BackendError(RuntimeError):
    pass


class EmitError(BackendError):
    pass


class SolverSpawnError(BackendError):
    pass


class ProtocolError(BackendError):
    pass


# Verification obligations mix arrays, quantifiers, and the nonlinear count
# arithmetic of the proof kernel, so they run under the unrestricted logic.
OBLIGATION_LOGIC = "ALL"
DEFAULT_TIMEOUT_MS = 120_000
# How long past its own ``:timeout`` a solver process may run before it is
# killed, so that the solver's own ``unknown`` arrives first.
KILL_GRACE_MS = 1_000
# How much of the solver's stderr a ProtocolError carries.
STDERR_LIMIT = 500

# Options for universally quantified validity queries: model-based quantifier
# instantiation diverges on the array-heavy obligations, E-matching does not.
VALIDITY_OPTIONS: tuple[tuple[str, str], ...] = (("smt.mbqi", "false"),)
# Fallback for queries that E-matching leaves unknown: model-based quantifier
# instantiation can build the ite-shaped array terms that instantiate a
# negated existence claim, where E-matching finds no trigger.
MBQI_OPTIONS: tuple[tuple[str, str], ...] = (("smt.mbqi", "true"),)

# An attempt is the option set of one query under ``OBLIGATION_LOGIC``; the
# next attempt runs only when the previous one answered unknown within the
# time the obligation has left (``Session.ask``).
VALIDITY = (VALIDITY_OPTIONS,)


class Query(Record):
    """One SMT-LIB query."""

    assertions: tuple[str, ...]  # SMT-LIB text of each assertion
    logic: str = OBLIGATION_LOGIC
    options: tuple[tuple[str, str], ...] = VALIDITY_OPTIONS
    functions: tuple[tuple[str, tuple[Sort, ...], Sort], ...] = ()
    consts: tuple[tuple[str, Sort], ...] = ()
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    get_model: bool = False


class Verdict(Record):
    status: str  # sat | unsat | unknown
    model: Optional[tuple[tuple[str, str], ...]] = None
    wall_ms: int = 0
    transcript: str = ""


class Obligation(Record):
    """A question for the solver: is the conjunction of ``assertions``
    unsatisfiable?"""

    label: str
    assertions: tuple[Term, ...]
    attempts: tuple = VALIDITY  # option sets, tried in order
    syntactic: bool = False  # discharged by construction, no solver call
    failure: str = ""  # what a proof kernel reports when it is not proved


class Answer(Record):
    label: str
    status: str  # proved | failed | unknown
    wall_ms: int
    model: Optional[tuple[tuple[str, str], ...]] = None  # a failed one's countermodel


def build_query(
    assertions: Sequence[Term],
    signature: Signature = BUILTIN_SIGNATURE,
    logic: str = OBLIGATION_LOGIC,
    options: tuple[tuple[str, str], ...] = VALIDITY_OPTIONS,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
    get_model: bool = False,
) -> Query:
    """Render ``assertions`` and declare their free symbols.

    Each assertion's rendering is its term's ``smt``, made on first use and
    kept with the term object. Within an assertion an unknown node raises
    ``TypeError``, then a constant at two sorts ``EmitError``, then a symbol
    ``signature`` lacks ``UnknownSymbol``; the first faulty assertion decides.
    """
    texts: list[str] = []
    consts: dict[str, Sort] = {}
    funcs: dict[str, tuple[tuple[Sort, ...], Sort]] = {}
    for formula in assertions:
        # a root that is no Term is walked uncached, which raises TypeError
        text, found, applied, clash = formula.smt if isinstance(formula, Term) else render(formula)
        texts.append(text)
        for name, sort in found:
            prev = consts.setdefault(name, sort)
            if clash is None and prev is not sort and prev != sort:
                clash = name
        if clash is not None:
            raise EmitError(f"constant {clash} used at two sorts")
        for name in applied:
            if name not in funcs:
                funcs[name] = signature.rank(name)
    functions = tuple((n, *funcs[n]) for n in sorted(funcs))
    return Query(tuple(texts), logic, options, functions, tuple(sorted(consts.items())), timeout_ms,
                 get_model)


def emit(query: Query) -> str:
    """Deterministic SMT-LIB2 text for ``query``."""
    lines: list[str] = [f"(set-logic {query.logic})"]
    for name, value in query.options:
        lines.append(f"(set-option :{name} {value})")
    lines.append(f"(set-option :timeout {max(query.timeout_ms, 1)})")
    for fname, arg_sorts, result in query.functions:
        args_txt = " ".join(map(sort_to_text, arg_sorts))
        lines.append(f"(declare-fun {fname} ({args_txt}) {sort_to_text(result)})")
    for cname, sort in query.consts:
        lines.append(f"(declare-const {cname} {sort_to_text(sort)})")
    for text in query.assertions:
        lines.append(f"(assert {text})")
    lines.append("(check-sat)")
    if query.get_model:
        lines.append("(get-model)")
    return "\n".join(lines) + "\n"


# The bundled node wrapper. Node resolves its ``z3-solver`` import from a
# ``node_modules`` in the wrapper's directory or one of its parents.
WRAPPER = Path(__file__).resolve().parents[2] / "solver" / "z3smt2.mjs"


def resolve_solver(solver: Optional[Sequence[str]] = None) -> list[str]:
    """Pick the solver command: explicit > env > z3 on PATH > bundled wrapper.

    Only files are looked at; no process is started. The wrapper is picked
    only where its ``z3-solver`` package is installed.
    """
    if solver:
        return list(solver)
    env = os.environ.get("QHENUM_SOLVER")
    if env:
        return shlex.split(env)
    z3 = shutil.which("z3")
    if z3:
        return [z3, "-smt2", "-in"]
    node = shutil.which("node")
    if node and WRAPPER.exists():
        if any((d / "node_modules" / "z3-solver").is_dir() for d in WRAPPER.parents):
            return [node, str(WRAPPER)]
        raise SolverSpawnError(
            f"no SMT solver found: {WRAPPER} lacks the z3-solver package (run npm install "
            f"in {WRAPPER.parent}); or set QHENUM_SOLVER or install z3 on PATH"
        )
    raise SolverSpawnError(
        "no SMT solver found: set QHENUM_SOLVER or install z3 on PATH"
    )


def solve(query: Query, solver: Sequence[str], debug_path: Optional[Path] = None) -> Verdict:
    """Run ``query`` through the solver command ``solver``, as
    ``resolve_solver`` picks it; timeouts yield ``unknown``. The query asks
    the solver to stop after ``timeout_ms`` (at least 1), and the process is
    killed only ``KILL_GRACE_MS`` later, with the transcript ``timeout``."""
    text = emit(query)
    if debug_path is not None:
        debug_path.parent.mkdir(parents=True, exist_ok=True)
        debug_path.write_text(text)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            solver,
            input=text,
            capture_output=True,
            text=True,
            timeout=(max(query.timeout_ms, 1) + KILL_GRACE_MS) / 1000.0,
        )
    except FileNotFoundError as exc:
        raise SolverSpawnError(str(exc)) from exc
    except subprocess.TimeoutExpired:
        wall = int((time.monotonic() - start) * 1000)
        return Verdict("unknown", None, wall, "timeout")
    wall = int((time.monotonic() - start) * 1000)
    transcript = proc.stdout
    if debug_path is not None:
        reply_path = debug_path.with_suffix(debug_path.suffix + ".out")
        reply_path.write_text(transcript + ("\n--- stderr ---\n" + proc.stderr if proc.stderr else ""))
    status = None
    rest: list[str] = []
    for line in transcript.splitlines():
        stripped = line.strip()
        if status is None:
            if stripped in ("sat", "unsat", "unknown"):
                status = stripped
            elif stripped.startswith("(error"):
                raise ProtocolError(f"solver error: {stripped}")
            elif stripped:
                raise ProtocolError(f"unparseable solver reply: {stripped!r}")
        else:
            rest.append(line)
    if status is None:
        detail = proc.stderr.strip()[:STDERR_LIMIT]
        raise ProtocolError(
            f"no verdict in solver reply (exit {proc.returncode})"
            + (f": {detail}" if detail else "")
        )
    model = None
    if status == "sat" and query.get_model and rest:
        model = _parse_model("\n".join(rest))
    return Verdict(status, model, wall, transcript)


class Session:
    """The one way a run reaches the solver: ``ask`` an ``Obligation``.

    The solver command is resolved once. Every query asks for a model, and
    with a debug directory each query text is written to ``NNN-<label>.smt2``,
    numbered in send order across the whole session; the counter is shared
    by the threads that send through the session.
    """

    def __init__(
        self,
        solver: Optional[Sequence[str]] = None,
        timeout_ms: int = DEFAULT_TIMEOUT_MS,
        debug_dir: Optional[Path] = None,
    ) -> None:
        self.cmd = resolve_solver(solver)
        self.timeout_ms = timeout_ms
        self.debug_dir = debug_dir
        self._sent = 0
        self._lock = threading.Lock()

    def ask(self, obligation: Obligation, signature: Signature = BUILTIN_SIGNATURE) -> Answer:
        """Put ``obligation`` to the solver and read its answer.

        The session timeout is one time budget for all attempts: an attempt
        gets what the earlier ones left, and once they used it all no
        further attempt is sent. The last verdict decides: only ``unsat``
        proves the obligation, unknown stays unknown, and ``sat`` fails it
        with the solver's model.
        """
        label = obligation.label
        if obligation.syntactic:
            return Answer(label, "proved", 0)
        left = self.timeout_ms
        for options in obligation.attempts:
            query = build_query(
                obligation.assertions,
                signature=signature,
                logic=OBLIGATION_LOGIC,
                options=options,
                timeout_ms=left,
                get_model=True,
            )
            verdict = solve(query, self.cmd, self._debug_path(label))
            left -= verdict.wall_ms
            if verdict.status != "unknown" or left <= 0:
                break
        wall_ms = self.timeout_ms - left
        if verdict.status == "unknown":
            return Answer(label, "unknown", wall_ms)
        if verdict.status == "unsat":
            return Answer(label, "proved", wall_ms)
        return Answer(label, "failed", wall_ms, verdict.model)

    def _debug_path(self, label: str) -> Optional[Path]:
        if self.debug_dir is None:
            return None
        with self._lock:
            self._sent += 1
            number = self._sent
        return self.debug_dir / f"{number:03d}-{label.replace('/', '_')}.smt2"


def _parse_model(text: str) -> tuple[tuple[str, str], ...]:
    try:
        forms = sexpr.parse_all(text)
    except sexpr.SexprError:
        return ()
    entries: list[tuple[str, str]] = []
    for form in forms:
        if not isinstance(form, list):
            continue
        items = form[1:] if form and form[0] == "model" else form
        for item in items:
            if (
                isinstance(item, list)
                and len(item) == 5
                and item[0] == "define-fun"
                and item[2] == []
            ):
                entries.append((str(item[1]), sexpr.to_text(item[4])))
    return tuple(entries)
