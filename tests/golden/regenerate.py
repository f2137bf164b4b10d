"""Recompute the pinned simulated-statistics digests in ``stats_digests.json``.

Every digest is the sha256 of the canonical JSON of ``flatten_stats`` for
one run (see :func:`repro.validation.parity.stats_digest`):

* ``lattice`` — every point of the parity lattice (``full_lattice()``);
* ``corpus`` — every banked fuzz reproducer in ``tests/fuzz_corpus/``
  (its statistics plus the applied/skipped kernel-op counters);
* ``kips`` — every scenario of ``benchmarks/perf/kips_harness.py``.

A change meant only to restructure or speed up the simulator must leave
the file byte-identical.  Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py            # compare
    PYTHONPATH=src python tests/golden/regenerate.py --write    # rewrite
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parents[2]
GOLDEN_PATH = Path(__file__).resolve().parent / "stats_digests.json"
sys.path.insert(0, str(ROOT))

from repro.validation import corpus  # noqa: E402
from repro.validation.fuzz import FuzzScenario, run_scenario_stats  # noqa: E402
from repro.validation.parity import full_lattice, run_point, stats_digest  # noqa: E402


def lattice_digest(point) -> str:
    return stats_digest(run_point(point))


def corpus_digest(raw_scenario) -> str:
    return stats_digest(run_scenario_stats(FuzzScenario.from_json(raw_scenario)))


def kips_digest(name: str) -> str:
    from benchmarks.perf.kips_harness import run_scenario_once

    return stats_digest(run_scenario_once(name)[0])


def compute(workers: int = 2) -> Dict[str, Dict[str, str]]:
    from benchmarks.perf.kips_harness import SCENARIOS

    points = full_lattice()
    entries, _skipped = corpus.load_corpus()
    with multiprocessing.Pool(workers) as pool:
        lattice = pool.map(lattice_digest, points, chunksize=1)
        banked = pool.map(corpus_digest, [entry["scenario"] for _, entry in entries])
        kips = pool.map(kips_digest, list(SCENARIOS))
    return {
        "schema": "golden_stats/v1",
        "lattice": {point.name: digest for point, digest in zip(points, lattice)},
        "corpus": {path.stem: digest for (path, _), digest in zip(entries, banked)},
        "kips": dict(zip(SCENARIOS, kips)),
    }


def main(argv) -> int:
    computed = compute()
    encoded = json.dumps(computed, indent=2, sort_keys=True) + "\n"
    if "--write" in argv:
        GOLDEN_PATH.write_text(encoded)
        print(f"wrote {GOLDEN_PATH}")
        return 0
    pinned = json.loads(GOLDEN_PATH.read_text())
    drifted = [f"{section}/{name}"
               for section in ("lattice", "corpus", "kips")
               for name in sorted(set(pinned[section]) | set(computed[section]))
               if pinned[section].get(name) != computed[section].get(name)]
    for name in drifted:
        print(f"  DRIFT {name}")
    print(f"golden digests: {len(drifted)} drifted")
    return 1 if drifted else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
