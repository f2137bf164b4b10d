"""KIPS throughput harness: the repo's simulator-performance trajectory.

Measures simulated kilo-instructions per host-second (KIPS) for a fixed set
of scenarios and normalises every number by the benchmark's fixed
pure-Python calibration loop (``perfbench/calibration.py``): a normalised
KIPS is what the host would have measured had one calibration pass taken
exactly ``REFERENCE_CALIBRATION_S``.  That makes records taken on hosts of
different speed — or on one shared host at different load — comparable,
so the ``perf_smoke`` gates can use absolute floors.

Results are written to ``benchmarks/perf/BENCH_perf.json`` together with a
``"code_size"`` section (non-blank source lines per ``repro.<package>``),
so deletions show up next to throughput.

Run standalone from the repo root::

    PYTHONPATH=src python benchmarks/perf/kips_harness.py
"""

from __future__ import annotations

import importlib.util
import json
import platform
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict

from repro.common.addresses import MB
from repro.common.config import SystemConfig, VirtualizationConfig, scaled_system_config
from repro.core.multicore import MultiCoreVirtuoso
from repro.core.virtuoso import Virtuoso
from repro.validation.parity import stats_digest
from repro.workloads import GUPSWorkload, LLMInferenceWorkload, SequentialWorkload
from repro.workloads.multiproc import GuestMixWorkload, contention_pair

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_PATH = Path(__file__).parent / "BENCH_perf.json"

# The calibration loop is imported from the benchmark, never copied: a
# normalised number is only comparable with values measured against the
# same loop.
_spec = importlib.util.spec_from_file_location(
    "perfbench_calibration", REPO_ROOT / "perfbench" / "calibration.py")
calibration = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(calibration)

#: Runs per scenario; the median run is recorded.
REPEATS = 5

#: Maximum tolerated regression of measured KIPS below the recorded value
#: before the perf_smoke gate fails (30 % per the perf-trajectory policy).
REGRESSION_TOLERANCE = 0.30

#: Minimum speedup over the retired per-instruction engine on the
#: kernel-dominated fault-heavy scenario (the kernel-batch target).
FAULT_HEAVY_TARGET_SPEEDUP = 2.0

#: Minimum speedup over the retired per-instruction engine on the
#: multi-core contention scenario (the multi-core batching target).
MULTICORE_TARGET_SPEEDUP = 1.5

#: Minimum speedup over the retired per-instruction engine on the
#: virtualized-guest scenario (the 2-D translation fast path).
VIRTUALIZED_TARGET_SPEEDUP = 1.5

#: Calibration-normalised KIPS of the retired per-instruction ("legacy")
#: engine, measured with :func:`normalised_kips` (five repeats, median of
#: three such measurements) on a two-vCPU x86-64 container, on the last
#: tree that still had it.  The speedup targets above and the "faster than
#: the old engine" floors are multiples of these.
LEGACY_ENGINE_KIPS: Dict[str, float] = {
    "gups_smoke": 96.9,
    "sequential_stream": 113.1,
    "llm_allocation": 289.4,
    "llm_faults": 415.3,
    "multicore_contention": 103.3,
    "virtualized_guest": 116.8,
}

#: KIPS of the *pre-fast-path* engine (seed tree, before the batch engine,
#: VPN cache, hot counters and allocation-free memory path existed),
#: measured when this harness was introduced, raw (not normalised).
#: Scenarios that postdate the seed engine have no entry and record
#: ``null`` baselines — never 0.0, which would read as a regression.
SEED_ENGINE_KIPS: Dict[str, float] = {
    "gups_smoke": 69.5,
    "sequential_stream": 97.1,
    "llm_allocation": 221.5,
}


def perf_config(os_mode: str = "imitation", virtualized: bool = False) -> SystemConfig:
    """The small, fixed system configuration every scenario runs on."""
    config = scaled_system_config(name="perf-batch",
                                  physical_memory_bytes=256 * MB,
                                  fragmentation_target=1.0)
    if virtualized:
        config = config.with_virtualization(VirtualizationConfig(
            enabled=True, guest_memory_bytes=128 * MB, nested_tlb_entries=512))
    return config.with_simulation(replace(config.simulation, os_mode=os_mode))


@dataclass(frozen=True)
class Scenario:
    """One KIPS scenario: a workload factory plus the system it runs on.

    ``factory`` returns a *fresh* workload (workloads keep per-run VMA
    state) — or, when ``cores > 1``, a fresh *list* of workloads co-run on
    a :class:`~repro.core.multicore.MultiCoreVirtuoso` with that many
    simulated cores sharing the L2/LLC/DRAM and one MimicOS.
    """

    factory: Callable[[], object]
    os_mode: str = "imitation"
    cores: int = 1
    #: Run the workload inside a guest VM (guest MimicOS over a hypervisor
    #: MimicOS, 2-D translation through the nested unit).
    virtualized: bool = False


SCENARIOS: Dict[str, Scenario] = {
    # GUPS-style random access over a prefaulted footprint: the TLB- and
    # cache-hostile smoke scenario the perf gate watches.
    "gups_smoke": Scenario(lambda: GUPSWorkload(footprint_bytes=8 * MB,
                                                memory_operations=5000,
                                                prefault=True, seed=1)),
    # Streaming sequential access: prefetcher- and fast-path-friendly.
    "sequential_stream": Scenario(lambda: SequentialWorkload(footprint_bytes=8 * MB,
                                                             memory_operations=8000,
                                                             prefault=True, seed=2)),
    # Token-by-token LLM inference: allocation/fault dominated, exercises the
    # MimicOS kernel-stream injection path.
    "llm_allocation": Scenario(lambda: LLMInferenceWorkload("Bagel", scale=0.25)),
    # Fault-heavy, kernel-dominated inference under the full-system coupling:
    # ~99 % of simulated instructions come from MimicOS handler streams, so
    # this scenario isolates the array-backed kernel path.
    "llm_faults": Scenario(lambda: LLMInferenceWorkload("Llama", scale=0.5,
                                                        weight_read_scale=0.05),
                           os_mode="full_system"),
    # Two GUPS processes on two simulated cores contending on the shared
    # LLC/DRAM and on one MimicOS (the multi-core batching path).
    "multicore_contention": Scenario(lambda: contention_pair(footprint_bytes=8 * MB,
                                                             memory_operations=5000,
                                                             seed=1),
                                     cores=2),
    # A guest process over the hypervisor: cold faults run *both* kernels'
    # handler streams (guest fault + hypervisor backing fault), the hot
    # phase random-accesses the warm footprint through 2-D translation —
    # nested walks, nested TLB and the VPN cache over combined mappings.
    "virtualized_guest": Scenario(lambda: GuestMixWorkload(footprint_bytes=8 * MB,
                                                           hot_operations=5000,
                                                           seed=1),
                                  virtualized=True),
}


def run_scenario_once(name: str):
    """Simulate one scenario once; returns ``(report, VPN-cache fast hits)``."""
    scenario = SCENARIOS[name]
    config = perf_config(scenario.os_mode, scenario.virtualized)
    if scenario.cores > 1:
        system = MultiCoreVirtuoso(config, num_cores=scenario.cores, seed=7)
        report = system.run(scenario.factory()).merged
        return report, sum(unit.mmu.fast_hits for unit in system.cores)
    system = Virtuoso(config, seed=7)
    return system.run(scenario.factory()), system.mmu.fast_hits


def normalised_kips(run: Callable[[], object], repeats: int) -> Dict[str, object]:
    """Median calibration-normalised KIPS of ``repeats`` calls of ``run``.

    ``run`` returns ``(report, details)``.  A calibration pass runs before
    the first call and after every call; each call's raw KIPS is scaled by
    the mean of the two passes around it (its ``host_factor``), the way
    the benchmark normalises a run.  Returns the median normalised and raw
    KIPS plus the details of the median run.
    """
    rows = []
    before = calibration.calibrate()[0]
    for _ in range(repeats):
        report, details = run()
        after = calibration.calibrate()[0]
        host_factor = (before + after) / 2 / calibration.REFERENCE_CALIBRATION_S
        before = after
        simulated = report.instructions + report.kernel_instructions
        raw = simulated / 1000.0 / report.host_seconds if report.host_seconds > 0 else 0.0
        rows.append((raw * host_factor, raw, host_factor, report, details))
    rows.sort(key=lambda row: row[0])
    kips, raw, host_factor, report, details = rows[len(rows) // 2]
    return {
        "kips": round(kips, 1),
        "raw_kips": round(raw, 1),
        "host_factor": round(host_factor, 3),
        "instructions": report.instructions,
        "kernel_instructions": report.kernel_instructions,
        "host_seconds": round(report.host_seconds, 4),
        **details,
    }


def run_scenario(name: str, repeats: int = REPEATS) -> Dict[str, object]:
    """Calibration-normalised KIPS digest of one scenario (median run)."""
    def run():
        report, fast_hits = run_scenario_once(name)
        return report, {"fast_hits": fast_hits, "digest": stats_digest(report)}

    return normalised_kips(run, repeats)


def code_size() -> Dict[str, int]:
    """Non-blank source lines per ``repro.<package>`` (top-level modules
    are counted under ``repro``)."""
    root = REPO_ROOT / "src" / "repro"
    sizes: Dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        package = "repro" if len(relative.parts) == 1 else f"repro.{relative.parts[0]}"
        lines = sum(1 for line in path.read_text().splitlines() if line.strip())
        sizes[package] = sizes.get(package, 0) + lines
    sizes["total"] = sum(sizes.values())
    return sizes


def measure_all(repeats: int = REPEATS) -> Dict[str, object]:
    """Measure every scenario and assemble the report."""
    scenarios: Dict[str, object] = {}
    for name, scenario in SCENARIOS.items():
        row = run_scenario(name, repeats)
        legacy = LEGACY_ENGINE_KIPS.get(name)
        seed_kips = SEED_ENGINE_KIPS.get(name)
        row.update({
            "legacy_engine_kips": legacy,
            "speedup_vs_legacy": round(row["kips"] / legacy, 2) if legacy else None,
            "pre_pr_seed_kips": seed_kips,
            "speedup_vs_seed": round(row["raw_kips"] / seed_kips, 2) if seed_kips else None,
            "simulated_instructions": row["instructions"] + row["kernel_instructions"],
            "cores": scenario.cores,
            "virtualized": scenario.virtualized,
        })
        scenarios[name] = row
    return {
        "schema": "bench_perf/v4",
        "normalisation": {
            "calibration": "perfbench/calibration.py",
            "reference_calibration_s": calibration.REFERENCE_CALIBRATION_S,
        },
        "repeats": repeats,
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "scenarios": scenarios,
        "code_size": code_size(),
    }


def main() -> None:
    results = measure_all()
    # Preserve sections other tools own across rewrites.
    if BENCH_PATH.exists():
        previous = json.loads(BENCH_PATH.read_text())
        for owned_elsewhere in ("sweep", "backend_parity", "service", "fuzz",
                                "server", "lint"):
            if owned_elsewhere in previous:
                results[owned_elsewhere] = previous[owned_elsewhere]
    BENCH_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {BENCH_PATH}")
    for name, row in results["scenarios"].items():
        print(f"  {name}: {row['kips']:.1f} normalised KIPS "
              f"(raw {row['raw_kips']:.1f}, {row['speedup_vs_legacy']}x the old engine)")
    print(f"  code size: {results['code_size']['total']} non-blank lines in src/repro")


if __name__ == "__main__":
    main()
