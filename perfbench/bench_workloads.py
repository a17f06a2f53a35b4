"""The benchmark's workloads: set-up, the timed work list and output checks.

Every workload is a fixed list of operations. One operation calls public
functions of ``qhenum`` through a ``Clock``, which times only those calls, and
then checks the outputs against closed forms from the paper. A failed check
raises ``CheckFailed``; the runner counts it and goes on. The workload seed
only orders the operations and picks pivot traces: every check holds for any
seed.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import platform
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Optional

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
MODULES = ("sexpr", "terms", "system", "qhl", "enumeration", "counting", "backend", "oracle", "cli")

# Comparator of each shipped project (README's benchmark table).
PROJECTS = {
    "electronic-purse": "geq",
    "f-y-array-shuffle": "geq",
    "password-checker": "leq",
    "path-oram": "geq",
    "zk-hats": "geq",
}
BUNDLES = {"geq": ("injective",), "leq": ("surjective",), "eq": ("injective", "surjective")}

# Deterministic refinement of the password checker, as in the acceptance
# tests: the guess at time t is the binary encoding of t, so bounded traces
# settle and class counts are exact.
PASSWORD_EXHAUSTIVE_ATTACKER = """
(system password-checker-det
  (vars (pwd (Array Int Int)) (inp (Array Int Int)) (ok Bool)
        (t Int) (n Int) (m Int))
  (params n m)
  (init (and (>= n 1) (= t 0) (not ok)
             (forall ((j Int)) (and (<= 0 (select pwd j)) (<= (select pwd j) 1)))
             (forall ((j Int)) (=> (or (< j 1) (> j n)) (= (select pwd j) 0)))
             (forall ((j Int)) (= (select inp j) 0))))
  (tx (and (= pwd! pwd) (= n! n) (= m! m)
           (= t! (ite (< t m) (+ t 1) t))
           (forall ((j Int)) (= (select inp! j)
                                (ite (and (<= 1 j) (<= j n))
                                     (mod (div t! (pow2 (- j 1))) 2)
                                     0)))
           (= ok! (or ok (= inp! pwd))))))
"""

# Work-per-second unit of each workload.
WORK_UNIT = {
    "frontend": "obligations emitted",
    "oracle-modelcount": "assignments evaluated",
    "oracle-traces": "traces enumerated",
    "verify-suite": "solver queries answered",
}


class CheckFailed(Exception):
    pass


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def cpu_now() -> float:
    """CPU seconds of this process plus its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Clock:
    """Times the program calls of one operation, and nothing else."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0

    def __call__(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        w0, c0 = time.perf_counter(), cpu_now()
        try:
            return fn(*args, **kwargs)
        finally:
            self.wall += time.perf_counter() - w0
            self.cpu += cpu_now() - c0


@dataclass
class Op:
    label: str
    run: Callable[[Clock, random.Random], int]  # returns the work done


def import_qhenum() -> dict[str, ModuleType]:
    """Import qhenum afresh, so that every set-up pays for its imports."""
    for name in [m for m in sys.modules if m == "qhenum" or m.startswith("qhenum.")]:
        del sys.modules[name]
    return {m: importlib.import_module(f"qhenum.{m}") for m in MODULES}


# ---------------------------------------------------------------------------
# frontend: the Python side of verify, without a solver


def setup_frontend(q: dict[str, ModuleType], tiny: bool) -> list[Op]:
    cli, qhl, enumeration, backend = q["cli"], q["qhl"], q["enumeration"], q["backend"]
    # output checks are the benchmark's own work: keep them out of the trace
    parse_all = getattr(q["sexpr"].parse_all, "__wrapped__", q["sexpr"].parse_all)
    for name in PROJECTS:
        cli.load_project(BENCHMARKS / name)
    first_digest: dict[str, str] = {}

    def make(name: str) -> Op:
        directory = BENCHMARKS / name

        def run(clock: Clock, rng: random.Random) -> int:
            project = clock(cli.load_project, directory)
            wd = clock(qhl.check_well_defined, project.prop, project.system)
            check(wd.ok, f"{name}: property not well defined: {wd.reason}")
            check(project.prop.cmp == PROJECTS[name], f"{name}: comparator {project.prop.cmp}")
            texts = []
            for kind in BUNDLES[project.prop.cmp]:
                gen = enumeration.gen_injective_vcs if kind == "injective" else enumeration.gen_surjective_vcs
                bundle = clock(gen, project.system, project.prop, project.witness)
                check(bundle.kind == kind, f"{name}: bundle kind {bundle.kind}")
                for ob in bundle.obligations:
                    if ob.syntactic:
                        continue
                    # the same query discharge() builds for this obligation
                    query = clock(
                        backend.build_query,
                        ob.assertions,
                        logic=backend.OBLIGATION_LOGIC,
                        options=backend.VALIDITY_OPTIONS,
                        timeout_ms=project.timeout_ms,
                        get_model=True,
                    )
                    texts.append(clock(backend.emit, query))
            check(bool(texts), f"{name}: no obligation needs the solver")
            digest = hashlib.sha256("\0".join(texts).encode()).hexdigest()
            if name not in first_digest:
                # byte-identical text parses identically, so later passes
                # only compare digests
                for text in texts:
                    forms = parse_all(text)
                    check(
                        forms[-2:] == [["check-sat"], ["get-model"]],
                        f"{name}: query does not end in (check-sat) (get-model)",
                    )
                first_digest[name] = digest
            check(digest == first_digest[name], f"{name}: emitted text differs between passes")
            return len(texts)

        return Op(name, run)

    return [make(name) for name in PROJECTS]


# ---------------------------------------------------------------------------
# oracle-modelcount: brute-force model counts of each project's valid predicate


def setup_modelcount(q: dict[str, ModuleType], tiny: bool) -> list[Op]:
    cli, oracle, terms = q["cli"], q["oracle"], q["terms"]

    def valid_of(project: Any) -> Any:
        return terms.retag_free(project.witness.valid, {terms.indexed(1): terms.PLAIN})

    def count_op(label: str, formula: Any, counted: dict, params: dict, lo: int, hi: int, expect: int) -> Op:
        assignments = math.prod(d.size() for d in counted.values())

        def run(clock: Clock, rng: random.Random) -> int:
            got = clock(oracle.brute_count, formula, counted, params, lo, hi)
            check(got == expect, f"{label}: counted {got}, expected {expect}")
            return assignments

        return Op(label, run)

    ops = []
    oram = valid_of(cli.load_project(BENCHMARKS / "path-oram"))
    derangements = {3: 2, 4: 9}  # derangements of nb blocks, at least (nb - 1)!
    for nb in (3,) if tiny else (4, 3):
        dom = oracle.ArrayDomain(1, nb, tuple(range(1, nb + 1)))
        ops.append(count_op(f"path-oram nb={nb}", oram, {"Y": dom, "W": dom}, {"nb": nb}, 0, nb + 1, derangements[nb]))
    if not tiny:
        setup = cli.load_instance(BENCHMARKS / "f-y-array-shuffle" / "instance.sexp")
        inst = setup.instance
        counted = {n: setup.count_domains[n] for n, _ in setup.project.witness.enum_vars}
        ops.append(
            count_op(
                f"f-y-array-shuffle n={inst.params['n']}",
                valid_of(setup.project),
                counted,
                inst.params,
                inst.quant_lo,
                inst.quant_hi,
                math.factorial(inst.params["n"]),
            )
        )
    hats = valid_of(cli.load_project(BENCHMARKS / "zk-hats"))
    for rounds in (2,) if tiny else (2, 3, 4):
        dom = oracle.ArrayDomain(1, rounds, (0, 1))
        ops.append(count_op(f"zk-hats R={rounds}", hats, {"e": dom}, {"R": rounds}, -1, rounds + 2, 2**rounds - 1))
    return ops


# ---------------------------------------------------------------------------
# oracle-traces: bounded trace enumeration plus equivalence-class counts


def setup_traces(q: dict[str, ModuleType], tiny: bool) -> list[Op]:
    # Sizes keep one pass under a second, so that a run holds dozens of
    # passes and each operation's fastest finds the machine undisturbed;
    # at zk-hats R=6, purse decr=12 and password n=4 a pass takes 7-10 s.
    cli, oracle = q["cli"], q["oracle"]
    Array, Scalar = oracle.ArrayDomain, oracle.ScalarDomain

    def classes_op(label, inst, prop, expect_traces, pool_of, accept) -> Op:
        # the seed picks the pivot once per run, so that every pass does the
        # same work and per-pass counts repeat exactly for a given seed
        picked: list[int] = []

        def run(clock: Clock, rng: random.Random) -> int:
            traces = clock(oracle.enumerate_traces, inst)
            check(len(traces) == expect_traces, f"{label}: {len(traces)} traces, expected {expect_traces}")
            pool = pool_of(traces)
            if not picked:
                picked.append(rng.randrange(len(pool)))
            pivot = pool[picked[0]]
            classes = clock(oracle.count_equivalence_classes, inst, prop, pivot, traces)
            check(classes != "unknown" and accept(classes), f"{label}: {classes} classes")
            return len(traces)

        return Op(label, run)

    ops = []
    hats = cli.load_project(BENCHMARKS / "zk-hats")
    rounds = 2 if tiny else 4
    hats_inst = oracle.FiniteInstance(
        system=hats.system,
        domains={
            "C": Array(1, rounds, (0, 1)),
            "P": Array(1, rounds, (0, 1)),
            "i": Scalar(tuple(range(0, rounds + 1))),
            "s": Scalar((False, True)),
        },
        params={"R": rounds},
        depth=rounds + 2,
        deterministic=True,
        quant_lo=-1,
        quant_hi=rounds + 2,
    )
    # 4^R runs (free cards and responses); pivots are the 2^R runs whose
    # cheat succeeds, each with 2^R - 1 rejecting classes
    ops.append(
        classes_op(
            f"zk-hats R={rounds}",
            hats_inst,
            hats.prop,
            4**rounds,
            lambda traces: [t for t in traces if t.states[-1]["s"] is True],
            lambda c: c == 2**rounds - 1,
        )
    )
    if tiny:
        return ops

    purse = cli.load_project(BENCHMARKS / "electronic-purse")
    decr, max_q = 6, 6
    purse_inst = oracle.FiniteInstance(
        system=purse.system,
        domains={
            "bal": Scalar(tuple(range(0, max_q * decr + 1))),
            "st": Scalar(tuple(range(0, 2 * decr + 1))),
            "q": Scalar(tuple(range(0, max_q + 1))),
            "rs": Scalar(tuple(range(0, decr))),
        },
        params={"dc": decr},
        depth=2 * decr,
        deterministic=True,
    )
    # initial balances q*dc + rs within the balance domain: 6*dc + 1 runs.
    # A pivot with q below the domain edge has its dc peers inside the domain.
    ops.append(
        classes_op(
            f"electronic-purse decr={decr}",
            purse_inst,
            purse.prop,
            max_q * decr + 1,
            lambda traces: [t for t in traces if t.states[0]["q"] < max_q],
            lambda c: c >= decr,
        )
    )

    system = q["system"].parse_system(PASSWORD_EXHAUSTIVE_ATTACKER)
    prop = q["qhl"].parse_property((BENCHMARKS / "password-checker" / "property.sexp").read_text(), system)
    n = 3
    guesses = 2**n - 1
    pw_inst = oracle.FiniteInstance(
        system=system,
        domains={
            "pwd": Array(1, n, (0, 1)),
            "inp": Array(1, n, (0, 1)),
            "ok": Scalar((False, True)),
            "t": Scalar(tuple(range(0, guesses + 1))),
        },
        params={"n": n, "m": guesses},
        depth=guesses + 2,
        deterministic=True,
        quant_lo=-1,
        quant_hi=n + 2,
    )
    # one run per password; at most 2^n - 1 distinguishable classes
    ops.append(classes_op(f"password-checker n={n}", pw_inst, prop, 2**n, list, lambda c: c <= guesses))
    return ops


# ---------------------------------------------------------------------------
# verify-suite: cli.verify on every project, two passes


def strip_timing(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "wall_ms"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def setup_verify(q: dict[str, ModuleType], tiny: bool) -> list[Op]:
    cli, backend = q["cli"], q["backend"]
    projects = {name: cli.load_project(BENCHMARKS / name) for name in PROJECTS}
    first_report: dict[str, Any] = {}
    answered = [0]
    solve = backend.solve

    def counted_solve(*args: Any, **kwargs: Any) -> Any:
        verdict = solve(*args, **kwargs)
        answered[0] += 1
        return verdict

    # every stage of verify reaches the solver through this module attribute
    backend.solve = counted_solve

    def make(name: str, pass_no: int) -> Op:
        def run(clock: Clock, rng: random.Random) -> int:
            before = answered[0]
            report = clock(cli.verify, projects[name])
            check(report["verdict"] == cli.VERIFIED, f"{name}: verdict {report['verdict']}")
            stripped = strip_timing(report)
            first_report.setdefault(name, stripped)
            check(stripped == first_report[name], f"{name}: report differs from the first pass")
            return answered[0] - before

        return Op(f"{name} pass {pass_no}", run)

    # the second pass is the traffic a verdict cache would serve
    return [make(name, p) for p in (1, 2) for name in PROJECTS]


SETUPS = {
    "frontend": setup_frontend,
    "oracle-modelcount": setup_modelcount,
    "oracle-traces": setup_traces,
    "verify-suite": setup_verify,
}

# Workloads whose operations keep their list order: verify's second pass must
# follow the first.
KEEP_ORDER = frozenset({"verify-suite"})


# ---------------------------------------------------------------------------
# Solver probe and environment fingerprint


def probe_solver(q: dict[str, ModuleType], solve: bool) -> tuple[Optional[list[str]], str]:
    """(solver command, version) or (None, reason it is unavailable).

    Without ``solve`` the command is only resolved and no process is started,
    so the peak memory of a workload that runs no solver stays its own.
    """
    backend = q["backend"]
    try:
        cmd = backend.resolve_solver()
        if not solve:
            return cmd, "not probed: the workload runs no solver"
        query = backend.build_query([q["terms"].BoolLit(True)], timeout_ms=10_000)
        verdict = backend.solve(query, cmd)
    except backend.BackendError as exc:
        return None, f"unavailable: {exc}"
    if verdict.status != "sat":
        return None, f"unavailable: trivial query answered {verdict.status}"
    try:
        reply = subprocess.run(
            cmd, input="(get-info :version)\n(exit)\n", capture_output=True, text=True, timeout=10
        )
        version = reply.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired) as exc:
        version = f"unknown ({exc})"
    return cmd, version


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable: not a git checkout"


def fingerprint(solver_cmd: Optional[list[str]], solver_info: str) -> dict[str, Any]:
    return {
        "solver": " ".join(solver_cmd) if solver_cmd else None,
        "solver_version": solver_info,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }
