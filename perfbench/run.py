"""The simulator benchmark: run one workload repeatedly, check it, report medians.

Usage, from the repository root::

    python3 perfbench/run.py --workload gups_radix_4k --seed 1 --seconds 25 --trace 0

Each run of the workload is a fresh child process (``perfbench/child.py``),
started one after another — never two at once — until ``--seconds`` have
passed and at least :data:`MIN_RUNS` runs of each kind have finished.
``--trace 0`` reports the end-to-end metrics of the untraced runs;
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of the traced ones plus the tracing overhead.  Host
times are normalised by a calibration loop each child times around its
run loop (``calibration.py``); the raw values are printed beside them.

Every run's simulated statistics are checked: at :data:`DEFAULT_SEED`
against the digest pinned in ``scenarios.py``, at any other seed against
one untimed reference run with the MMU's VPN translation cache disabled.
Traced runs must also reconcile every span count with the program's own
counter.  A run that raises or fails a check counts as failed, and the
command then exits 1.  Human-readable lines come first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: Runs of each kind (untraced, traced) taken even when ``--seconds`` is short.
MIN_RUNS = 3
#: No run starts this many seconds after the command started, so it ends
#: within 180 s.
START_DEADLINE_S = 120.0
#: Longest a single child may take before it is killed and counted as failed.
CHILD_TIMEOUT_S = 50.0

#: The end-to-end metrics and their units.  The three timings are
#: host-normalised (see ``calibration.py``); their raw values are printed
#: beside them.
END_TO_END = {
    "kips": "kinstr/s",
    "cpu_kips": "kinstr/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
RAW = {"kips_raw": "kinstr/s", "cpu_kips_raw": "kinstr/s", "setup_raw_s": "s",
       "host_factor": "ratio", "cpu_host_factor": "ratio"}


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, first and third quartile and sample count of ``values``."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_child(workload: str, seed: int, mode: str) -> Dict[str, object]:
    """Run one simulation in a fresh interpreter; ``{"error": ...}`` if it failed."""
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode]
    try:
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                   timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"timed out after {CHILD_TIMEOUT_S:.0f} s"}
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        tail = completed.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"mode": mode, "error": f"exit {completed.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def run_problem(result: Dict[str, object], expected_digest: str) -> Optional[str]:
    """Why ``result`` counts as failed, or None when it passed every check."""
    if "error" in result:
        return str(result["error"])
    if result["digest"] != expected_digest:
        return f"statistics digest {result['digest'][:16]} != expected {expected_digest[:16]}"
    if result.get("mismatches"):
        return "; ".join(result["mismatches"])
    return None


def code_size() -> Dict[str, int]:
    """Non-blank source lines per ``repro.*`` package."""
    sizes: Dict[str, int] = {}
    package_root = SOURCE / "repro"
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root)
        package = relative.parts[0] if len(relative.parts) > 1 else "repro"
        with path.open(encoding="utf-8") as source:
            lines = sum(1 for line in source if line.strip())
        sizes[package] = sizes.get(package, 0) + lines
    return sizes


def host_context() -> Dict[str, object]:
    """The host and program facts a reader needs to compare two benchmark runs."""
    from repro.workloads.base import numpy_available, vectorization_enabled

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": numpy_available(),
        "vectorization_enabled": vectorization_enabled(),
        "code_size": code_size(),
    }


def measure(workload: str, seed: int, seconds: float, traced: bool,
            expected_digest: str, command_started: float) -> Dict[str, object]:
    """Run children until the time is up; returns the runs and their failures."""
    kinds = ("untraced", "traced") if traced else ("untraced",)
    passed: Dict[str, List[Dict[str, object]]] = {kind: [] for kind in kinds}
    failures: List[str] = []
    attempted = 0
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        done = {kind: len(passed[kind]) for kind in kinds}
        if time.perf_counter() - command_started >= START_DEADLINE_S:
            break
        if elapsed >= seconds and min(done.values()) >= MIN_RUNS:
            break
        # Alternate run kinds so host drift affects both alike.
        kind = kinds[attempted % len(kinds)]
        result = run_child(workload, seed, kind)
        attempted += 1
        problem = run_problem(result, expected_digest)
        if problem is None:
            passed[kind].append(result)
        else:
            failures.append(f"{kind} run {attempted}: {problem}")
            if attempted >= MIN_RUNS * len(kinds) and len(failures) == attempted:
                break
    return {"passed": passed, "failures": failures, "attempted": attempted}


def end_to_end_metrics(runs: List[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    return {name: quartiles([run[name] for run in runs]) for name in {**END_TO_END, **RAW}}


def layer_medians(runs: List[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    """Per-layer metric medians over the traced runs."""
    table: Dict[str, Dict[str, object]] = {}
    for name, (_, unit) in runs[0]["layers"].items():
        summary = quartiles([run["layers"][name][0] for run in runs])
        summary["unit"] = unit
        table[name] = summary
    return table


def print_row(name: str, summary: Dict[str, float], unit: str) -> None:
    print(f"  {name:38s} {summary['median']:14.6g} {unit:13s} "
          f"[q1 {summary['q1']:.6g}, q3 {summary['q3']:.6g}, n={summary['n']}]")


def main(argv=None) -> int:
    command_started = time.perf_counter()
    parser = argparse.ArgumentParser(description="Simulator benchmark: one workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator source not found at {SOURCE / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from scenarios import DEFAULT_SEED, PINNED_DIGESTS, SCENARIOS

    if args.workload not in SCENARIOS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(SCENARIOS)}",
              file=sys.stderr)
        return 2

    host = host_context()
    if args.seed == DEFAULT_SEED:
        expected = PINNED_DIGESTS[args.workload]
        oracle = f"pinned digest for seed {DEFAULT_SEED}"
    else:
        reference = run_child(args.workload, args.seed, "reference")
        if "error" in reference:
            print(f"perfbench: reference run failed: {reference['error']}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
        expected = str(reference["digest"])
        oracle = "reference run with the VPN translation cache disabled"

    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), expected,
                      command_started)
    passed, failures, attempted = outcome["passed"], outcome["failures"], outcome["attempted"]
    untraced = passed["untraced"]

    print(f"workload {args.workload}  seed {args.seed}  oracle: {oracle}")
    print(f"  runs attempted {attempted}, failed {len(failures)}, "
          f"failed_run_share {len(failures) / max(1, attempted):.4f} fraction")
    for failure in failures:
        print(f"  FAILED {failure}")

    metrics: Dict[str, Dict[str, object]] = {}
    if untraced:
        e2e = end_to_end_metrics(untraced)
        print("end-to-end (untraced runs; median [quartiles, samples])")
        for name, unit in END_TO_END.items():
            print_row(name, e2e[name], unit)
        print("raw timings (not host-normalised) and the host factors")
        for name, unit in RAW.items():
            print_row(name, e2e[name], unit)
        if not args.trace:
            metrics = {name: {"value": e2e[name]["median"], "unit": unit}
                       for name, unit in END_TO_END.items()}
    traced = passed.get("traced", [])
    if args.trace and traced and untraced:
        layers = layer_medians(traced)
        traced_kips = statistics.median(run["kips"] for run in traced)
        overhead = (e2e["kips"]["median"] / traced_kips - 1.0) * 100.0
        host["trace_overhead_pct"] = overhead
        print("per-layer (traced runs; median [quartiles, samples])")
        for name, summary in layers.items():
            print_row(name, summary, str(summary["unit"]))
        print(f"  {'trace.overhead_pct':38s} {overhead:14.6g} %")
        notes = {name: text for run in traced for name, text in run["notes"].items()}
        for name, text in sorted(notes.items()):
            print(f"  note {name}: {text}")
        print(f"  span counts reconciled with program counters in {len(traced)} traced runs")
        metrics = {name: {"value": summary["median"], "unit": summary["unit"]}
                   for name, summary in layers.items()}
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    print("host " + json.dumps(host, sort_keys=True))

    correct = not failures and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
