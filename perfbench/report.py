"""Run every workload and print every metric by name: the benchmark's report.

    python3 perfbench/report.py                      # 3 untraced runs + 1 traced run each
    python3 perfbench/report.py --runs 10

For each workload of BENCHMARK.json, plus ``oracle-modelcount`` and
``verify-suite``, this makes ``--runs`` untraced runs with seeds 1, 2, ...
and one traced run with seed 1, each in its own process and as long as
BENCHMARK.json's ``run_seconds``. It prints every end-to-end metric with
its unit, the median, first and third quartile over runs, the within-run tail
percentile and the sample count; then every per-layer metric of the traced
run with a ratio and its base, and the tracing overhead. A workload that
cannot run here (``verify-suite`` without a solver) is reported as
unavailable with the reason. The exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# run by the report although BENCHMARK.json does not list them (see README.md)
UNLISTED = ("oracle-modelcount", "verify-suite")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, Optional[dict]]:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    info = None
    for line in proc.stdout.splitlines():
        if line.startswith("info "):
            info = json.loads(line[5:])
    if info is None:
        sys.stderr.write(proc.stdout + proc.stderr)
    return proc.returncode, info


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(x: float) -> str:
    return f"{x:.6g}"


def ratio_of(name: str, layers: dict[str, float], ops_per_pass: float, base_ms: float, untraced: dict) -> tuple[str, str]:
    value = layers[name]
    if name.startswith("trace."):
        base = untraced.get(name.split(".", 1)[1])
        if not base:
            return "-", "-"
        return f"{100 * (value / base - 1):+.1f}% overhead", f"untraced median {fmt(base)} s"
    if name.endswith(".self_share") or name == "oracle.model_ratio":
        return "(is a ratio)", "assignments" if name == "oracle.model_ratio" else "traced set-up + pass"
    if name.endswith(".ms") or name.endswith(".self_ms"):
        return f"{100 * value / base_ms:.2f}%", f"of {fmt(base_ms)} ms in qhenum per set-up + pass"
    if name == "backend.emitted_bytes":
        queries = layers["backend.queries"]
        return (fmt(value / queries) if queries else "-"), f"per query of {fmt(queries)}"
    return fmt(value / ops_per_pass), f"per operation of {fmt(ops_per_pass)}"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    e2e = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]] + list(UNLISTED)
    fingerprint: dict[str, Any] = {}
    any_failed = False

    for workload in workloads:
        print(f"\n== {workload}")
        infos = []
        for k in range(args.runs):
            code, info = run_once(workload, 1 + k, seconds, 0)
            if info is None or code not in (0, 1, 2):
                print(f"run with seed {1 + k} crashed (exit {code})")
                any_failed = True
                continue
            if "unavailable" in info:
                print(info["unavailable"])
                fingerprint = info["fingerprint"]
                break
            any_failed |= code != 0
            infos.append(info)
        if not infos:
            continue
        fingerprint = infos[0]["fingerprint"]
        medians = {}
        print(f"work unit: {infos[0]['work_unit']}; {len(infos)} runs of {seconds:g} s")
        print(f"{'metric':<14}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}  {'tail in run':<20}samples/run")
        for m in e2e:
            name = m["name"]
            values = [i["metrics"][name] for i in infos]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            stat = infos[0]["stats"].get(name)
            t = stat["tail"] if stat else None
            tail_txt = f"p{t[0]:g}={fmt(t[1])}" if t else "-"
            samples = stat["samples"] if stat else 1
            print(f"{name:<14}{m['unit']:<7}{fmt(med):>12}{fmt(q1):>12}{fmt(q3):>12}{spread:>8.1%}  {tail_txt:<20}{samples}")
            medians[name] = med
        ops = [i["stats"]["op_ms"] for i in infos]
        op_med = statistics.median(o["median"] for o in ops)
        tails = [o["tail"] for o in ops if o["tail"] and o["tail"][0] > 50]
        tail_txt = (
            f"p{tails[0][0]:g}={fmt(statistics.median(t[1] for t in tails))}" if tails else "p90 needs 100"
        )
        print(f"{'op latency':<14}{'ms':<7}{fmt(op_med):>12}{'':>33}  {tail_txt:<20}{ops[0]['samples']}")
        fail = sum(i["failed"] for i in infos) / sum(i["attempted"] for i in infos)
        print(f"fail_ratio {fail:.4g} ({sum(i['failed'] for i in infos)} of {sum(i['attempted'] for i in infos)} operations)")
        for i in infos:
            for err in i["errors"]:
                print(f"FAILED seed {i['seed']}: {err}")

        code, traced = run_once(workload, 1, seconds, 1)
        if traced is None:
            print("traced run crashed")
            any_failed = True
        else:
            any_failed |= code != 0
            layers = traced["layers"]
            ops_per_pass = traced["attempted"] / traced["passes"]
            # program time of one set-up plus one pass: all layers' self time
            base_ms = sum(v for k, v in layers.items() if k.startswith("layer.") and k.endswith(".self_ms"))
            untraced = {key: medians[key] for key in ("setup_s", "wall_s")}
            print(f"\nper layer, traced run (seed 1), per set-up plus one pass of the work list:")
            print(f"{'metric':<36}{'value':>14}  {'ratio':<20}base")
            for name in sorted(layers):
                ratio, base = ratio_of(name, layers, ops_per_pass, base_ms, untraced)
                print(f"{name:<36}{fmt(layers[name]):>14}  {ratio:<20}{base}")
            overhead = layers["trace.wall_s"] / untraced["wall_s"] - 1
            print(f"tracing overhead on wall_s: {overhead:+.1%}")

    fingerprint["cpu_model"] = cpu_model()
    print("\nfingerprint: " + json.dumps(fingerprint))
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
