"""Per-backend throughput: the whole zoo, not just radix.

For every registered page-table design this tool (i) verifies the VPN
translation cache is invisible — memo-on and memo-off runs bit-identical —
on a translation-bound scenario via the differential parity harness, then
(ii) measures calibration-normalised KIPS (see ``kips_harness.py``) and
records it into ``BENCH_perf.json`` under the ``"backend_parity"`` key next
to the retired per-instruction engine's KIPS, so a backend whose fast path
silently stops helping (or silently diverges) shows up in the record.

Run standalone from the repo root::

    PYTHONPATH=src python benchmarks/perf/parity_bench.py
"""

from __future__ import annotations

import json
import platform
from typing import Dict

from repro.common.addresses import MB
from repro.common.config import PageTableConfig, SystemConfig, scaled_system_config
from repro.core.virtuoso import Virtuoso
from repro.pagetables.factory import registered_kinds
from repro.validation.parity import diff_stats, flatten_stats, memo_extensions
from repro.workloads import GUPSWorkload

try:
    from benchmarks.perf.kips_harness import BENCH_PATH, normalised_kips
except ImportError:  # executed as a script: the module is a sibling file
    from kips_harness import BENCH_PATH, normalised_kips

#: Runs per backend; the median run is recorded.
REPEATS = 3

#: Calibration-normalised KIPS of the retired per-instruction engine on the
#: bench scenario, per backend, measured like :func:`run_backend` (median of
#: three such measurements) on a two-vCPU x86-64 container, on the last tree
#: that still had it.
LEGACY_BACKEND_KIPS: Dict[str, float] = {
    "radix": 99.9,
    "ech": 99.3,
    "hdc": 100.8,
    "ht": 101.2,
    "utopia": 30.6,
    "rmm": 54.1,
    "midgard": 50.4,
    "direct_segment": 46.1,
    "vbi": 73.6,
}


#: The translation-bound scenario every backend runs: random access over a
#: prefaulted footprint, so the measured loop is dominated by the TLB/walk
#: path each design implements differently.
def scenario_workload() -> GUPSWorkload:
    return GUPSWorkload(footprint_bytes=8 * MB, memory_operations=5000,
                        prefault=True, seed=1)


def backend_config(kind: str) -> SystemConfig:
    config = scaled_system_config(name=f"parity-bench-{kind}",
                                  physical_memory_bytes=256 * MB,
                                  fragmentation_target=1.0)
    return config.with_page_table(PageTableConfig(kind=kind))


def run_backend(kind: str, repeats: int = REPEATS) -> Dict[str, object]:
    """Median calibration-normalised KIPS digest for one backend."""
    def run():
        system = Virtuoso(backend_config(kind), seed=7)
        report = system.run(scenario_workload())
        return report, {"fast_hits": system.mmu.fast_hits}

    return normalised_kips(run, repeats)


def verify_parity(kind: str) -> bool:
    """One memo-off vs memo-on check of the bench scenario for ``kind``."""
    stats = [flatten_stats(Virtuoso(backend_config(kind), seed=7,
                                    mmu_extensions=memo_extensions(memo))
                           .run(scenario_workload()))
             for memo in (False, True)]
    return not diff_stats(*stats)


def measure_all(repeats: int = REPEATS) -> Dict[str, object]:
    """Verify parity and measure every registered design."""
    backends: Dict[str, object] = {}
    for kind in registered_kinds():
        row = run_backend(kind, repeats)
        legacy = LEGACY_BACKEND_KIPS.get(kind)
        row.update({
            "parity_identical": verify_parity(kind),
            "legacy_engine_kips": legacy,
            "speedup_vs_legacy": round(row["kips"] / legacy, 2) if legacy else None,
        })
        backends[kind] = row
    return {
        "schema": "backend_parity/v2",
        "repeats": repeats,
        "scenario": "gups_prefaulted_8mb_5000ops",
        "host": {"python": platform.python_version(),
                 "machine": platform.machine()},
        "backends": backends,
    }


def main() -> None:
    digest = measure_all()
    data = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    data["backend_parity"] = digest
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote backend parity digest to {BENCH_PATH}")
    for kind, row in digest["backends"].items():
        marker = "ok " if row["parity_identical"] else "DIVERGED"
        print(f"  {marker} {kind:15s} {row['kips']:8.1f} normalised KIPS "
              f"({row['speedup_vs_legacy']}x the old engine)")


if __name__ == "__main__":
    main()
