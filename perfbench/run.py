"""Run one workload of the qhenum benchmark, check its outputs, print metrics.

    python3 perfbench/run.py --workload frontend --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ``src/`` of the
same tree. One client drives the program in a closed loop: each operation
starts when the previous one has returned. The work list is repeated until
``--seconds`` have passed (at least once). ``setup_s`` is the fastest of the
run's set-ups; ``wall_s`` and ``cpu_s`` add up each operation's fastest time
in the run, the time of one undisturbed pass of the work list.

With ``--trace 0`` the last output line carries every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` it carries every per-layer metric, and the
spans go to ``.perfbench/trace-<workload>-seed<seed>.jsonl``. The lines before
it are a table of each metric's median, tail percentile and sample count, and
an ``info`` line of JSON with the same data, the environment fingerprint and
every per-layer metric, gated or not.

Exit codes: 0 all checks passed, 1 a check failed, 2 the workload cannot run
here (source tree missing, or no SMT solver for ``verify-suite``).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Optional

from bench_trace import LAYERS, Tracer
from bench_workloads import (
    KEEP_ORDER,
    SETUPS,
    WORK_UNIT,
    CheckFailed,
    Clock,
    Op,
    fingerprint,
    import_qhenum,
    probe_solver,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 25


def peak_rss_mb(children: bool) -> float:
    """Peak resident memory of this process, or of it and its solver children."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def fastest_pass(per_op: dict[str, list[float]]) -> float:
    """The sum over operations of each one's fastest time.

    Other tenants of the machine slow it by up to a half, in bursts from
    seconds to minutes, and never speed it up. The fastest repetition of
    identical work is far steadier from run to run than the median, and an
    operation (milliseconds to a tenth of a second) finds an undisturbed
    moment more often than a whole pass does.
    """
    return sum(min(times) for times in per_op.values())


def tail(values: list[float]) -> Optional[tuple[float, float]]:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    ordered = sorted(values)
    n = len(ordered)
    for p in (50.0, 90.0, 99.0, 99.9):
        if n * (1 - p / 100) >= 10:
            best = (p, ordered[max(0, math.ceil(p / 100 * n) - 1)])
    return best


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run


def _counted(key: str, amount):
    return lambda tracer, args, kwargs, result: tracer.count(key, amount(args, kwargs, result))


def _brute_count_hook(tracer, args, kwargs, result) -> None:
    counted = args[1] if len(args) > 1 else kwargs["counted"]
    tracer.count("oracle.assignments", math.prod(d.size() for d in counted.values()))
    tracer.count("oracle.models", result)


def _verify_hook(tracer, args, kwargs, report) -> None:
    stages = report["stages"]
    bundles = stages["enumeration"].get("bundles", ())
    tracer.count("verify.enumeration.wall_ms", sum(b["wall_ms"] for b in bundles))
    for stage in ("counting", "link"):
        tracer.count(f"verify.{stage}.wall_ms", stages[stage].get("wall_ms", 0))


_obligations = _counted("enumeration.obligations", lambda a, k, bundle: len(bundle.obligations))
HOOKS = {
    "enumeration.gen_injective_vcs": _obligations,
    "enumeration.gen_surjective_vcs": _obligations,
    "backend.emit": _counted("backend.emitted_bytes", lambda a, k, text: len(text.encode())),
    "backend.solve": _counted("backend.solve.unknown", lambda a, k, v: int(v.status == "unknown")),
    "counting.check_script": _counted("counting.facts", lambda a, k, res: len(res.facts)),
    "oracle.brute_count": _brute_count_hook,
    "oracle.enumerate_traces": _counted("oracle.traces", lambda a, k, traces: len(traces)),
    "cli.verify": _verify_hook,
}

TIMED = (
    "cli.load_project",
    "system.parse_system",
    "qhl.parse_property",
    "enumeration.parse_enumeration",
    "counting.parse_proof",
    "qhl.check_well_defined",
    "backend.build_query",
    "backend.emit",
    "enumeration.discharge",
    "counting.check_script",
    "oracle.brute_count",
    "oracle.enumerate_traces",
    "oracle.successors",
    "oracle.count_equivalence_classes",
)
CALLS = {
    "backend.queries": "backend.build_query",
    "counting.steps": "counting.apply_rule",
    "oracle.successors.calls": "oracle.successors",
    "oracle.eval_bounded.calls": "oracle.eval_bounded",
    "oracle.eval_term.calls": "oracle.eval_term",
}
COUNTS = (
    "enumeration.obligations",
    "backend.emitted_bytes",
    "backend.solve.unknown",
    "counting.facts",
    "oracle.assignments",
    "oracle.models",
    "oracle.traces",
    "verify.enumeration.wall_ms",
    "verify.counting.wall_ms",
    "verify.link.wall_ms",
)
SOLVE_STAGES = ("enumeration", "counting", "link")


def layer_metrics(
    tracer, setups: list[float], walls: list[float], op_walls: dict[str, list[float]]
) -> dict[str, float]:
    """Per-layer cost of one set-up plus one pass of the work list."""
    phases = {"setup": len(setups), "loop": len(walls)}
    totals = {ph: tracer.phase_totals(ph) for ph in phases}

    def per(name: str, idx: int) -> float:
        return sum(totals[ph].get(name, (0, 0.0, 0.0))[idx] / n for ph, n in phases.items())

    def count(key: str) -> float:
        return sum(tracer.counts.get((ph, key), 0) / n for ph, n in phases.items())

    m: dict[str, float] = {f"{name}.ms": per(name, 1) for name in TIMED}
    m["enumeration.gen_vcs.ms"] = per("enumeration.gen_injective_vcs", 1) + per(
        "enumeration.gen_surjective_vcs", 1
    )
    for stage in SOLVE_STAGES:
        m[f"backend.solve.{stage}.ms"] = per(f"backend.solve.{stage}", 1)
    m["backend.solve.calls"] = sum(
        per(f"backend.solve.{stage}", 0) for stage in (*SOLVE_STAGES, "other")
    )
    m.update({key: per(name, 0) for key, name in CALLS.items()})
    m.update({key: count(key) for key in COUNTS})
    m["oracle.model_ratio"] = (
        m["oracle.models"] / m["oracle.assignments"] if m["oracle.assignments"] else 0.0
    )
    names = set(totals["setup"]) | set(totals["loop"])
    base_ms = (statistics.fmean(setups) + statistics.fmean(walls)) * 1000
    for layer in LAYERS:
        self_ms = sum(per(name, 2) for name in names if name.startswith(layer + "."))
        m[f"layer.{layer}.self_ms"] = self_ms
        m[f"layer.{layer}.self_share"] = 100 * self_ms / base_ms
    # the same statistic as the untraced setup_s and wall_s, for the overhead
    m["trace.setup_s"] = min(setups)
    m["trace.wall_s"] = fastest_pass(op_walls)
    return m


# ---------------------------------------------------------------------------
# The closed loop


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, tiny: bool = False
) -> tuple[int, dict[str, Any], Optional[Any]]:
    """Set up, run the work list for ``seconds``, return (exit code, info, tracer)."""

    uses_solver = name == "verify-suite"
    solver_cmd, solver_info = probe_solver(import_qhenum(), solve=uses_solver)
    info: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fingerprint": fingerprint(solver_cmd, solver_info),
        "work_unit": WORK_UNIT[name],
    }
    if uses_solver and solver_cmd is None:
        info["unavailable"] = solver_info
        names = [*layer_metrics(Tracer(), [1.0], [1.0], {"": [1.0]}), "setup_s", "wall_s", "cpu_s", "work_per_s"]
        info["metrics"] = {key: solver_info for key in names}
        return 2, info, None

    tracer = Tracer() if trace else None
    setups: list[float] = []

    def set_up() -> list[Op]:
        # start every set-up from the same heap: the previous set-up's modules
        # are cyclic garbage that would otherwise be collected inside the timing
        gc.collect()
        if tracer is not None:
            tracer.phase, tracer.op_id = "setup", f"setup {len(setups)}"
        t0 = time.perf_counter()
        q = import_qhenum()
        if tracer is not None:
            tracer.install(q, HOOKS)
        ops = SETUPS[name](q, tiny)
        setups.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.phase = "loop"
        gc.collect()
        return ops

    # The first set-up's operations are the ones run. The other set-ups are
    # spread over the run, so that their fastest, like that of the
    # operations, sees the machine at its least disturbed.
    ops = set_up()
    setup_reps = 1 if tiny else SETUP_REPS
    setup_every = seconds / setup_reps
    rng = random.Random(seed)
    walls: list[float] = []
    cpus: list[float] = []
    works: list[int] = []
    op_ms: list[float] = []
    op_walls: dict[str, list[float]] = {op.label: [] for op in ops}
    op_cpus: dict[str, list[float]] = {op.label: [] for op in ops}
    attempted = failed = 0
    errors: list[str] = []
    start = time.perf_counter()
    deadline = start + seconds
    while not walls or time.perf_counter() < deadline:
        order = list(ops)
        if name not in KEEP_ORDER:
            rng.shuffle(order)
        wall = cpu = 0.0
        work = 0
        for op in order:
            clock = Clock()
            attempted += 1
            if tracer is not None:
                tracer.op_id = f"{len(walls)}:{op.label}"
            try:
                with tracer.span("bench.op") if tracer is not None else nullcontext():
                    work += op.run(clock, rng)
            except CheckFailed as exc:
                failed += 1
                errors.append(str(exc))
            except Exception as exc:  # one broken operation must not end the run
                failed += 1
                errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
            wall += clock.wall
            cpu += clock.cpu
            op_ms.append(clock.wall * 1000)
            op_walls[op.label].append(clock.wall)
            op_cpus[op.label].append(clock.cpu)
            if len(setups) < setup_reps and time.perf_counter() - start >= len(setups) * setup_every:
                set_up()
        walls.append(wall)
        cpus.append(cpu)
        works.append(work)
    while len(setups) < setup_reps:
        set_up()

    samples = {
        "setup_s": setups,
        "wall_s": walls,
        "cpu_s": cpus,
        "op_ms": op_ms,
    }
    info.update(
        passes=len(walls),
        attempted=attempted,
        failed=failed,
        fail_ratio=failed / attempted,
        errors=errors[:20],
        stats={
            key: {"median": statistics.median(v), "tail": tail(v), "samples": len(v)}
            for key, v in samples.items()
        },
        samples=samples,
        metrics={
            "setup_s": min(setups),
            "wall_s": fastest_pass(op_walls),
            "cpu_s": fastest_pass(op_cpus),
            "work_per_s": statistics.median(works) / fastest_pass(op_walls),
            "peak_rss_mb": peak_rss_mb(children=uses_solver),
            "pass_ratio": (attempted - failed) / attempted,
        },
    )
    if tracer is not None:
        info["layers"] = layer_metrics(tracer, setups, walls, op_walls)
    return (1 if failed else 0), info, tracer


def print_table(info: dict[str, Any], units: dict[str, str]) -> None:
    print(
        f"workload {info['workload']}  seed {info['seed']}  trace {info['trace']}  "
        f"passes {info['passes']}  operations {info['attempted']}  failed {info['failed']}"
    )
    print(f"{'metric':<14}{'unit':<7}{'value':>12}{'median':>12}  {'tail':<20}samples")
    rows = [(key, units.get(key, ""), value, info["stats"].get(key)) for key, value in info["metrics"].items()]
    # operations differ in size, so their latency is given as median and tail
    rows.append(("op latency", "ms", info["stats"]["op_ms"]["median"], info["stats"]["op_ms"]))
    for key, unit, value, stat in rows:
        if stat is None:
            print(f"{key:<14}{unit:<7}{value:>12.6g}{'-':>12}  {'-':<20}1")
            continue
        t = stat["tail"]
        tail_txt = f"p{t[0]:g}={t[1]:.6g}" if t else "(under 20 samples)"
        print(f"{key:<14}{unit:<7}{value:>12.6g}{stat['median']:>12.6g}  {tail_txt:<20}{stat['samples']}")
    for err in info["errors"]:
        print(f"FAILED {err}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=tuple(SETUPS),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "qhenum" / "cli.py").is_file() or not (ROOT / "benchmarks").is_dir():
        print(f"error: no qhenum source tree (src/qhenum, benchmarks/) under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))

    code, info, tracer = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if "unavailable" in info:
        print(f"workload {args.workload} not run: {info['unavailable']}")
        print("info " + json.dumps(info))
        print(json.dumps({"workload": args.workload, "unavailable": info["unavailable"], "metrics": info["metrics"]}))
        return code

    gated = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = info["layers"] if args.trace else info["metrics"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print_table(info, units)
    if tracer is not None:
        path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        phases = {ph: tracer.phase_totals(ph) for ph in ("setup", "loop")}
        tracer.write(path, {"info": info, "calls_total_self_ms": phases})
        print(f"spans written to {path.relative_to(ROOT)}")
    print("info " + json.dumps(info))
    result = {
        "correct": code == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in gated},
    }
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
