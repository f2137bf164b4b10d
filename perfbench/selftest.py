"""Self-tests of the benchmark's tracing, run explicitly (about a minute)::

    python3 -m pytest perfbench/selftest.py -q

They are not named ``test_*.py`` so the repository's tier-1 collection does
not pick up these timing-based checks.

* Every traced span count equals the program's own counter on every
  workload, and the traced statistics digest equals the pinned one.
* A wrapper bypassed through a cached bound method is caught by that
  reconciliation.
* A delay planted in one layer's public function shows up in that layer's
  self time and in ``kips`` on the workload predicted to feel it, and not
  in the other layers.
"""

from __future__ import annotations

import child
import layers
import pytest
from scenarios import DEFAULT_SEED, PINNED_DIGESTS, SCENARIOS

#: Busy-wait planted in every page walk; large enough that host noise in
#: the other layers stays well below it.
PLANTED_S = 100e-6

#: Self-time metrics of the layers that must not absorb the planted delay.
OTHER_LAYERS = ("workloads.gen_s", "core.self_s", "mmu.self_s", "memhier.self_s",
                "mimicos.fault_s", "instrumentation.expand_s")


@pytest.mark.parametrize("workload", sorted(SCENARIOS))
def test_traced_spans_reconcile_with_program_counters(workload):
    result = child.run_once(workload, DEFAULT_SEED, "traced")
    assert result["mismatches"] == []
    assert result["digest"] == PINNED_DIGESTS[workload]


def test_reconciliation_catches_a_wrapper_bypassed_by_a_cached_bound_method(monkeypatch):
    def instrument_but_keep_cached_callback(recorder, system, process, workload, on_batch):
        cached = system.mmu.fault_callback
        layers.instrument_system(recorder, system, process, workload, on_batch)
        system.mmu.set_fault_callback(cached)

    monkeypatch.setattr(child, "instrument_system", instrument_but_keep_cached_callback)
    result = child.run_once("llm_imitation_4k", DEFAULT_SEED, "traced")
    assert any(line.startswith("modes.faults:") for line in result["mismatches"])


def test_planted_walk_delay_lands_in_pagetables_and_gups_kips_only():
    plant = ("pagetables.walk", PLANTED_S)
    base = child.run_once("gups_radix_4k", DEFAULT_SEED, "traced")
    delayed = child.run_once("gups_radix_4k", DEFAULT_SEED, "traced", plant)
    walks = base["layers"]["pagetables.walks"][0]
    # The busy-wait is wall time and does not slow down with the host, so in
    # the delayed run's host-normalised units it reads as this much.
    planted_total = walks * PLANTED_S / delayed["host_factor"]

    def grew(metric):
        return delayed["layers"][metric][0] - base["layers"][metric][0]

    assert grew("pagetables.self_s") >= 0.8 * planted_total
    for metric in OTHER_LAYERS:
        assert abs(grew(metric)) < 0.25 * planted_total, metric
    assert delayed["digest"] == base["digest"]

    untimed_base = child.run_once("gups_radix_4k", DEFAULT_SEED, "untraced")
    untimed_delayed = child.run_once("gups_radix_4k", DEFAULT_SEED, "untraced", plant)

    def normalised_loop_s(result):
        return result["loop_s"] / result["host_factor"]

    predicted_loop_s = (normalised_loop_s(untimed_base)
                        + walks * PLANTED_S / untimed_delayed["host_factor"])
    assert untimed_delayed["kips"] < 0.8 * untimed_base["kips"]
    assert normalised_loop_s(untimed_delayed) >= 0.8 * predicted_loop_s
