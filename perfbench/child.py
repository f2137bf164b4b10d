"""Run one simulation of one benchmark workload and print its result as JSON.

``run.py`` starts this script in a fresh interpreter for every run, so each
run pays its own set-up and reports its own peak resident memory.  Modes:

* ``untraced`` — the timed run behind the end-to-end metrics;
* ``traced`` — the same run with a span around every layer's public
  function, for the per-layer metrics;
* ``reference`` — an untimed run with the MMU's VPN translation cache
  disabled, whose statistics digest is the oracle for seeds that have no
  pinned digest.

Usage: ``python3 perfbench/child.py --workload NAME --seed N --mode MODE``
from the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.virtuoso import Virtuoso  # noqa: E402
from repro.mmu.extensions import MMUExtensions  # noqa: E402
from repro.validation.parity import flatten_stats  # noqa: E402

from calibration import REFERENCE_CALIBRATION_S, calibrate  # noqa: E402
from layers import instrument_system, layer_metrics, layer_targets, reconcile  # noqa: E402
from scenarios import SCENARIOS  # noqa: E402
from spans import SpanRecorder, plant_delay  # noqa: E402

MODES = ("untraced", "traced", "reference")
#: Units of the per-layer metrics that are host times and get normalised.
TIME_UNITS = ("s", "us", "ns")


def stats_digest(report) -> str:
    """sha256 of the canonical JSON of every simulated statistic in ``report``."""
    encoded = json.dumps(flatten_stats(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


class LoopClock:
    """Wall and CPU time of the simulated run loop, bracketed by calibration.

    ``Virtuoso.run`` pulls the workload's batches until the generator is
    exhausted; wrapping the generator marks where the loop starts and ends
    without touching the program.  One calibration pass runs right before
    the first batch and one right after the last, outside the timed
    interval, so they see the host in the state the loop saw.
    """

    def __init__(self, workload) -> None:
        self.entered = 0.0
        self.start_wall = self.end_wall = 0.0
        self.start_cpu = self.end_cpu = 0.0
        self.calibration_s = self.calibration_cpu_s = 0.0
        original = workload.instruction_batches

        def timed(*args, **kwargs):
            self.entered = time.perf_counter()
            before = calibrate()
            self.start_wall, self.start_cpu = time.perf_counter(), time.process_time()
            try:
                yield from original(*args, **kwargs)
            finally:
                self.end_wall, self.end_cpu = time.perf_counter(), time.process_time()
                after = calibrate()
                self.calibration_s = (before[0] + after[0]) / 2
                self.calibration_cpu_s = (before[1] + after[1]) / 2

        workload.instruction_batches = timed


def run_once(workload_name: str, seed: int, mode: str, plant=None) -> dict:
    """Build the system, run the workload once and describe the run.

    ``plant``, used by the self-test, is ``(span name, seconds)``: a
    busy-wait of that long before every call of that layer's function.
    """
    scenario = SCENARIOS[workload_name]
    config = scenario.system_config()
    workload = scenario.make_workload(seed)
    extensions = MMUExtensions(vpn_translation_cache=False) if mode == "reference" else None
    recorder = SpanRecorder() if mode == "traced" else None
    batches = [0, 0]

    def count_batch(batch) -> None:
        batches[0] += 1
        batches[1] += len(batch.kinds)

    start = time.perf_counter()
    system = Virtuoso(config, seed=seed, mmu_extensions=extensions)
    built = time.perf_counter()
    process = system.create_process(workload.name)
    if plant is not None:
        span_name, seconds = plant
        owner, attribute = layer_targets(system, process)[span_name]
        plant_delay(owner, attribute, seconds)
    if recorder is not None:
        recorder.add("setup.build", start, built)
        instrument_system(recorder, system, process, workload, count_batch)
    loop = LoopClock(workload)
    report = system.run(workload, process=process)

    instructions = report.instructions + report.kernel_instructions
    loop_s = loop.end_wall - loop.start_wall
    loop_cpu = loop.end_cpu - loop.start_cpu
    setup_s = loop.entered - start
    kips = instructions / 1000.0 / loop_s
    cpu_kips = instructions / 1000.0 / loop_cpu
    # How much slower than the reference host this one ran Python around
    # the loop; the normalised metrics divide times by it.  CPU time is
    # normalised by the CPU time of the same passes.
    host_factor = loop.calibration_s / REFERENCE_CALIBRATION_S
    cpu_host_factor = loop.calibration_cpu_s / REFERENCE_CALIBRATION_S
    result = {
        "workload": workload_name,
        "seed": seed,
        "mode": mode,
        "digest": stats_digest(report),
        "instructions": instructions,
        "loop_s": loop_s,
        "loop_cpu_s": loop_cpu,
        "host_factor": host_factor,
        "cpu_host_factor": cpu_host_factor,
        "kips_raw": kips,
        "cpu_kips_raw": cpu_kips,
        "setup_raw_s": setup_s,
        "kips": kips * host_factor,
        "cpu_kips": cpu_kips * cpu_host_factor,
        "setup_s": setup_s / host_factor,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        metrics, notes, counts = layer_metrics(recorder, report, system, batches[0], batches[1])
        result["layers"] = {name: [value / host_factor if unit in TIME_UNITS else value, unit]
                            for name, (value, unit) in metrics.items()}
        result["notes"] = notes
        result["mismatches"] = reconcile(counts)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=MODES)
    args = parser.parse_args(argv)
    result = run_once(args.workload, args.seed, args.mode)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
