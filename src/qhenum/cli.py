"""Project loading, the end-to-end verification pipeline, the benchmark
suite runner, and the finite-state oracle front end.

A project directory bundles a transition system, a counting property, an
enumeration witness, and a model-counting proof script. ``verify`` runs:

1. syntactic well-definedness of the property,
2. generation and discharge of the enumeration bundle(s) — injective for
   ``>=``, surjective for ``<=``, both for ``=``,
3. the proof script through the counting kernel,
4. a final entailment linking the script's goal to the property bound.

Exit codes: 0 verified, 1 refuted or stage-failed, 2 unknown, 3 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from . import backend
from .counting import ProofScript, check_script, entailment, parse_proof
from .enumeration import (
    EnumerationError,
    EnumerationWitness,
    discharge,
    gen_injective_vcs,
    gen_surjective_vcs,
    parse_enumeration,
)
from .oracle import (
    ArrayDomain,
    Domain,
    FArray,
    FiniteInstance,
    OracleError,
    ScalarDomain,
    brute_count,
    count_equivalence_classes,
    enumerate_traces,
)
from .qhl import QhlError, QhpProperty, check_well_defined, parse_property
from .sexpr import Sexpr, SexprError, atom, pairs, read_form, sections, single, to_text
from .system import SystemError_, TransitionSystem, parse_system
from .terms import (
    BOOL,
    INT,
    ArraySort,
    Cmp,
    Forall,
    Implies,
    IntLit,
    PLAIN,
    Sort,
    Term,
    expect_sort,
    indexed,
    retag_free,
)

TOOL_ID = "qhenum 0.1.0"

VERIFIED = "QHP-verified"
STAGE_FAILED = "stage-failed"
UNKNOWN = "unknown"

CMP_OPS = {"geq": ">=", "leq": "<=", "eq": "="}


class ProjectError(ValueError):
    pass


@dataclass(frozen=True)
class Project:
    directory: Path
    system: TransitionSystem
    prop: QhpProperty
    witness: EnumerationWitness
    script: ProofScript
    valid_pred: str
    solver: Optional[list[str]]
    timeout_ms: int
    debug_dir: Optional[Path]
    lines: dict[str, int]  # the line count of each file the manifest names, by section


# The manifest sections that name a project file, in the order they are parsed.
FILES = ("system", "property", "enumeration", "proof")


def load_project(
    directory: Path,
    solver: Optional[Sequence[str]] = None,
    timeout_ms: Optional[int] = None,
    debug_dir: Optional[Path] = None,
) -> Project:
    manifest = _manifest(directory)
    options = sections("options", manifest.get("options", ()), (), ("timeout-ms", "solver"))
    file_timeout = single(options, "timeout-ms", int, backend.DEFAULT_TIMEOUT_MS)
    file_solver = single(options, "solver", str)
    if timeout_ms is None:
        timeout_ms = file_timeout
    if solver is None and file_solver is not None:
        solver = [file_solver.strip('"')]

    texts = {key: _read(directory, manifest, key) for key in FILES}
    system = parse_system(texts["system"])
    prop = parse_property(texts["property"], system)
    witness = parse_enumeration(texts["enumeration"], system)
    script = parse_proof(texts["proof"])
    return Project(
        directory,
        system,
        prop,
        witness,
        script,
        single(manifest, "valid-pred", str),
        list(solver) if solver else None,
        timeout_ms,
        debug_dir,
        {key: len(text.splitlines()) for key, text in texts.items()},
    )


def _manifest(directory: Path) -> dict[str, list]:
    """The sections of ``directory/project.sexp``."""
    path = directory / "project.sexp"
    if not path.is_file():
        raise ProjectError(f"{directory} has no project.sexp")
    return sections(
        "project",
        read_form(path.read_text(), "project"),
        (*FILES, "valid-pred"),
        ("options",),
    )


def _read(directory: Path, manifest: dict[str, list], key: str) -> str:
    """The text of the file that the manifest names for section ``key``."""
    path = directory / single(manifest, key, str).strip('"')
    if not path.is_file():
        raise ProjectError(f"missing {key} file {path}")
    return path.read_text()


# ---------------------------------------------------------------------------
# Verification pipeline


def _for_all_params(project: Project, body: Term) -> Term:
    params = tuple((z, project.system.sort_of(z)) for z in project.system.params)
    return Forall(params, body) if params else body


def _link_formula(project: Project) -> Term:
    """The final claim: for all parameters, goal count ◁ property bound."""
    count = project.script.counts.get(project.valid_pred)
    if count is None:
        raise ProjectError(f"proof script declares no predicate {project.valid_pred}")
    witness_valid = retag_free(project.witness.valid, {indexed(1): PLAIN})
    if witness_valid != count.formula:
        raise ProjectError(
            f"predicate {count.name} in the proof script does not match the "
            "enumeration's valid predicate"
        )
    op = CMP_OPS[project.prop.cmp]
    return _for_all_params(
        project, Implies(project.prop.assuming, Cmp(op, count.app(), project.prop.bound))
    )


STAGES = ("well-definedness", "enumeration", "counting", "link")
SCRIPT_STATUS = {"accepted": "passed", "rejected": "failed", "unknown": "unknown"}
# The run verdict when a stage that did not pass ends it.
RUN_VERDICT = {"failed": STAGE_FAILED, "unknown": UNKNOWN}


def _worst(answers: Sequence[backend.Answer]) -> str:
    """The stage verdict of ``answers``: the worst of them."""
    statuses = {a.status for a in answers}
    return next((s for s in ("failed", "unknown") if s in statuses), "passed")


def verify(project: Project) -> dict[str, Any]:
    started = time.monotonic()
    # a valid-pred that names no matching predicate fails before any query
    claim = _link_formula(project)
    session = backend.Session(project.solver, project.timeout_ms, project.debug_dir)
    stages: dict[str, Any] = {stage: {"verdict": "skipped"} for stage in STAGES}
    report: dict[str, Any] = {
        "schema": "report/v1",
        "tool": TOOL_ID,
        "solver": " ".join(session.cmd),
        "project": project.directory.name,
        "verdict": UNKNOWN,
        "failed_stage": None,
        "stages": stages,
    }

    def finish(failed_stage: Optional[str] = None) -> dict[str, Any]:
        """End the run at ``failed_stage``, the first that did not pass."""
        if failed_stage is None:
            report["verdict"] = VERIFIED
        else:
            report["verdict"] = RUN_VERDICT[stages[failed_stage]["verdict"]]
        report["failed_stage"] = failed_stage
        report["wall_ms"] = int((time.monotonic() - started) * 1000)
        return report

    wd = check_well_defined(project.prop, project.system)
    stages["well-definedness"] = {
        "verdict": "passed" if wd.ok else "failed",
        "reason": wd.reason,
    }
    if not wd.ok:
        return finish("well-definedness")

    kinds = {"geq": ("injective",), "leq": ("surjective",), "eq": ("injective", "surjective")}
    bundles = []
    answers: list[backend.Answer] = []
    for kind in kinds[project.prop.cmp]:
        gen = gen_injective_vcs if kind == "injective" else gen_surjective_vcs
        rep = discharge(gen(project.system, project.prop, project.witness), session)
        answers.extend(rep.results)
        bundles.append(
            {
                "kind": kind,
                "established": rep.established,
                "wall_ms": rep.wall_ms,
                "obligations": [
                    {"label": r.label, "status": r.status, "wall_ms": r.wall_ms}
                    for r in rep.results
                ],
            }
        )
    stages["enumeration"] = {"verdict": _worst(answers), "bundles": bundles}
    if stages["enumeration"]["verdict"] != "passed":
        return finish("enumeration")

    t0 = time.monotonic()
    result = check_script(project.script, session)
    stages["counting"] = {
        "verdict": SCRIPT_STATUS[result.status],
        "rejected_at": result.rejected_at,
        "reason": result.reason,
        "wall_ms": int((time.monotonic() - t0) * 1000),
    }
    if result.status != "accepted":
        return finish("counting")

    t0 = time.monotonic()
    # an accepted script has a goal; the link is retried like it
    asks = [entailment((*(f.axiom for f in result.facts), project.script.goal), claim, "link")]
    if project.prop.cmp == "leq":
        nonneg = Implies(project.prop.assuming, Cmp("<=", IntLit(0), project.prop.bound))
        bound_claim = _for_all_params(project, nonneg)
        asks.append(entailment((), bound_claim, "link-bound-nonneg", attempts=backend.VALIDITY))
    answers = []
    for obligation in asks:
        answers.append(session.ask(obligation, project.script.signature))
        if answers[-1].status != "proved":
            break
    stages["link"] = {
        "verdict": _worst(answers),
        "wall_ms": int((time.monotonic() - t0) * 1000),
    }
    if stages["link"]["verdict"] != "passed":
        return finish("link")
    return finish()


EXIT_BY_VERDICT = {VERIFIED: 0, STAGE_FAILED: 1, UNKNOWN: 2}


# ---------------------------------------------------------------------------
# Benchmark suite


def run_benchmarks(
    suite: Path,
    solver: Optional[Sequence[str]] = None,
    timeout_ms: Optional[int] = None,
    json_out: Optional[Path] = None,
) -> int:
    dirs = sorted(d for d in suite.iterdir() if (d / "project.sexp").is_file())
    if not dirs:
        print(f"warning: no projects found under {suite}", file=sys.stderr)
        if json_out is not None:
            json_out.write_text(
                json.dumps({"schema": "report/v1", "suite": [], "verdict": "empty"}, indent=2)
                + "\n"
            )
        print("(empty suite)")
        return 0
    rows = []
    reports = []
    for d in dirs:
        project = load_project(d, solver=solver, timeout_ms=timeout_ms)
        report = verify(project)
        reports.append(report)
        rows.append(
            {
                "project": d.name,
                "model_lines": project.lines["system"],
                "proof_lines": project.lines["proof"],
                "annotations": _annotation_count(project.witness),
                "verdict": report["verdict"],
                "wall_ms": report["wall_ms"],
            }
        )
    header = f"{'project':<22}{'model':>6}{'proof':>6}{'annot':>6}{'time':>9}  verdict"
    print(header)
    for row in rows:
        print(
            f"{row['project']:<22}{row['model_lines']:>6}{row['proof_lines']:>6}"
            f"{row['annotations']:>6}{row['wall_ms'] / 1000.0:>8.1f}s  {row['verdict']}"
        )
    if json_out is not None:
        json_out.write_text(
            json.dumps(
                {"schema": "report/v1", "suite": rows, "reports": reports}, indent=2
            )
            + "\n"
        )
    worst = 0
    for report in reports:
        worst = max(worst, EXIT_BY_VERDICT[report["verdict"]])
    return worst


def _annotation_count(witness: EnumerationWitness) -> int:
    return (
        len(witness.skolem_init)
        + len(witness.skolem_step)
        + len(witness.strengthening)
        + len(witness.cover)
    )


# ---------------------------------------------------------------------------
# Oracle front end


def _ints(items: Sequence[Sexpr]) -> tuple[int, ...]:
    return tuple(atom(v, int, "an integer") for v in items)


def parse_domain(expr: Sexpr) -> Domain:
    """``(range lo hi)`` inclusive, ``(values v ...)``, ``(bool)`` or
    ``(array lo hi (v ...) [default])``; a value list names each value once."""
    head, args = (expr[0], expr[1:]) if isinstance(expr, list) and expr else (None, [])

    def value_set(items: Sequence[Sexpr]) -> tuple[int, ...]:
        values = _ints(items)
        for i, v in enumerate(values):
            if v in values[:i]:
                raise SexprError(f"domain {to_text(expr)} repeats {v}")
        return values

    if head == "range" and len(args) == 2:
        lo, hi = _ints(args)
        return ScalarDomain(tuple(range(lo, hi + 1)))
    if head == "values":
        return ScalarDomain(value_set(args))
    if head == "bool" and not args:
        return ScalarDomain((False, True))
    if head == "array" and len(args) in (3, 4) and isinstance(args[2], list):
        lo, hi, *default = _ints([args[0], args[1], *args[3:]])
        return ArrayDomain(lo, hi, value_set(args[2]), default[0] if default else 0)
    raise SexprError(f"bad domain {to_text(expr)}")


def parse_value(expr: Sexpr):
    """A concrete value: integer, true/false, or (arr lo (v ...) [default])."""
    if isinstance(expr, int):
        return expr
    if expr in ("true", "false"):
        return expr == "true"
    head, args = (expr[0], expr[1:]) if isinstance(expr, list) and expr else (None, [])
    if head == "arr" and len(args) in (2, 3) and isinstance(args[1], list):
        lo, *default = _ints([args[0], *args[2:]])
        return FArray(lo, _ints(args[1]), default[0] if default else 0)
    raise SexprError(f"bad value {to_text(expr)}")


def _check_sort(what: str, value: Any, sort: Sort) -> None:
    """A parsed value, or the values of a parsed domain (all of one kind),
    must be of ``sort``."""
    for v in value.values[:1] if isinstance(value, ScalarDomain) else (value,):
        actual = BOOL if isinstance(v, bool) else INT if isinstance(v, int) else ArraySort(INT, INT)
        expect_sort(actual, sort, what)


@dataclass(frozen=True)
class OracleSetup:
    project: Project
    instance: FiniteInstance
    count_domains: dict[str, Domain]


def load_instance(path: Path, depth: Optional[int] = None) -> OracleSetup:
    found = sections(
        "instance",
        read_form(path.read_text(), "instance"),
        (),
        ("project", "params", "init-fix", "domains", "count-vars", "depth", "deterministic",
         "quant-bounds"),
    )

    project = load_project(path.parent / single(found, "project", str, ".").strip('"'))
    state_vars = dict(project.system.state_vars)
    known = {
        "domains": (state_vars, "state variable"),
        "init-fix": (state_vars, "state variable"),
        "params": ({z: state_vars[z] for z in project.system.params}, "system parameter"),
    }

    def entries(section: str, parse: Callable) -> dict:
        """The parsed value of each entry; one that names a state variable
        or parameter must be of its sort."""
        given = {n: parse(e) for n, e in pairs(section, found.get(section, ())).items()}
        if section in known:
            sorts, what = known[section]
            for name, value in given.items():
                if name not in sorts:
                    raise SexprError(f"{section}: {name} is not a {what}")
                _check_sort(f"{section} {name}", value, sorts[name])
        return given

    file_depth = single(found, "depth", int, 4)
    deterministic = single(found, "deterministic", str, "false")
    if deterministic not in ("true", "false"):
        raise SexprError(f"(deterministic ...) takes true or false, got {deterministic}")
    bounds = _ints(found.get("quant-bounds", (-2, 8)))
    if len(bounds) != 2:
        raise SexprError(f"(quant-bounds ...) takes two integers, got {len(bounds)}")
    instance = FiniteInstance(
        system=project.system,
        domains=entries("domains", parse_domain),
        params=entries("params", parse_value),
        depth=file_depth if depth is None else depth,
        deterministic=deterministic == "true",
        quant_lo=bounds[0],
        quant_hi=bounds[1],
        init_fix=entries("init-fix", parse_value),
    )
    return OracleSetup(project, instance, entries("count-vars", parse_domain))


def oracle_main(args: argparse.Namespace) -> int:
    setup = load_instance(Path(args.instance), args.depth)
    if args.count_classes:
        traces = enumerate_traces(setup.instance)
        if not (0 <= args.pivot < len(traces)):
            raise OracleError(f"pivot index out of range (have {len(traces)} traces)")
        result = count_equivalence_classes(
            setup.instance, setup.project.prop, traces[args.pivot], traces
        )
        print(result)
        return 0 if result != "unknown" else 2
    name = args.brute_count
    if name == "valid":
        formula = retag_free(setup.project.witness.valid, {indexed(1): PLAIN})
        counted_vars = setup.project.witness.enum_vars
    else:
        count = setup.project.script.counts.get(name)
        if count is None:
            raise OracleError(f"no such formula {name!r}")
        formula = count.formula
        counted_vars = tuple((v.name, v.sort) for v in count.counted)
    for n, sort in counted_vars:
        if n not in setup.count_domains:
            raise SexprError(f"count-vars: no domain for {n}")
        _check_sort(f"count-vars {n}", setup.count_domains[n], sort)
    counted = {n: setup.count_domains[n] for n, _ in counted_vars}
    print(brute_count(formula, counted, setup.instance.params,
                      setup.instance.quant_lo, setup.instance.quant_hi))
    return 0


# ---------------------------------------------------------------------------
# Entry point


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="qhenum")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify a project directory")
    p_verify.add_argument("project", type=Path)
    p_verify.add_argument("--solver", type=str, default=None)
    p_verify.add_argument("--timeout", type=int, default=None, metavar="MS")
    p_verify.add_argument("--json", type=Path, default=None)
    p_verify.add_argument("--debug-dir", type=Path, default=None)

    p_oracle = sub.add_parser("oracle", help="finite-state oracle checks")
    p_oracle.add_argument("--instance", required=True)
    p_oracle.add_argument("--depth", type=int, default=None)
    p_oracle.add_argument("--pivot", type=int, default=0)
    group = p_oracle.add_mutually_exclusive_group(required=True)
    group.add_argument("--count-classes", action="store_true")
    group.add_argument("--brute-count", type=str, metavar="FORMULA")

    p_bench = sub.add_parser("bench", help="run a benchmark suite directory")
    p_bench.add_argument("suite", type=Path)
    p_bench.add_argument("--solver", type=str, default=None)
    p_bench.add_argument("--timeout", type=int, default=None, metavar="MS")
    p_bench.add_argument("--json", type=Path, default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            solver = args.solver.split() if args.solver else None
            project = load_project(
                args.project,
                solver=solver,
                timeout_ms=args.timeout,
                debug_dir=args.debug_dir,
            )
            report = verify(project)
            text = json.dumps(report, indent=2) + "\n"
            if args.json is not None:
                args.json.write_text(text)
            print(text, end="")
            return EXIT_BY_VERDICT[report["verdict"]]
        if args.command == "oracle":
            return oracle_main(args)
        if args.command == "bench":
            solver = args.solver.split() if args.solver else None
            return run_benchmarks(
                args.suite, solver=solver, timeout_ms=args.timeout, json_out=args.json
            )
    except (
        ProjectError,
        SexprError,
        QhlError,
        SystemError_,
        EnumerationError,
        OracleError,
        OSError,
        backend.BackendError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 3


if __name__ == "__main__":
    sys.exit(main())
