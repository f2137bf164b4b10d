"""Per-layer metrics of one traced run, and their reconciliation with the program.

The span wrapped around each layer's public function (see
:func:`layer_targets`) is named ``<package>.<function>`` after the
``repro.*`` package that defines the function.  :func:`layer_metrics`
turns the span summary plus the program's own report into the metrics
listed in ``BENCHMARK.json``'s ``per_layer`` section, and
:func:`reconcile` checks every span count against the counter the program
keeps for the same event.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from spans import SpanRecorder

#: Percentiles reported for the MimicOS fault-handler latency; the tail is
#: the highest one with at least ten samples beyond it.
FAULT_PERCENTILES = (99.99, 99.9, 99.0, 90.0)
MIN_SAMPLES_BEYOND = 10


def layer_targets(system, process) -> Dict[str, Tuple[object, str]]:
    """The public function of each layer that a span is recorded around.

    Keys are span names; values are the live object and attribute to wrap.
    """
    return {
        "core.prefault": (system, "prefault"),
        "core.execute_batch": (system.core, "execute_batch"),
        "core.execute_kernel_batch": (system.core, "execute_kernel_batch"),
        "instrumentation.expand_batch": (system.coupling.instrumentation, "expand_batch"),
        "modes.handle_page_fault": (system.coupling, "handle_page_fault"),
        "mimicos.handle_page_fault": (system.kernel, "handle_page_fault"),
        "mimicos.mmap": (system.kernel, "mmap"),
        "mmu.access_data_fast": (system.mmu, "access_data_fast"),
        "mmu.access_data": (system.mmu, "access_data"),
        "pagetables.walk": (process.page_table, "walk"),
        "memhier.access_value": (system.memory, "access_value"),
        "memhier.dram_access": (system.memory.dram, "access_value"),
        "report.build": (system, "_build_report"),
    }


def instrument_system(recorder: SpanRecorder, system, process, workload,
                      on_batch: Callable[[object], None]) -> None:
    """Install span wrappers on every layer of one assembled system."""
    for name, (owner, attribute) in layer_targets(system, process).items():
        recorder.wrap(owner, attribute, name)
    # The MMU captured the coupling's bound fault handler at construction.
    system.mmu.set_fault_callback(system.coupling.handle_page_fault)
    recorder.wrap_generator(workload, "instruction_batches", "workloads.next_batch", on_batch)


def _percentile(ordered: List[float], percent: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(1, math.ceil(len(ordered) * percent / 100)) - 1]


def tail_percentile(samples: int) -> Optional[float]:
    """The highest of :data:`FAULT_PERCENTILES` with ten samples beyond it."""
    for percent in FAULT_PERCENTILES:
        if samples * (100.0 - percent) / 100.0 >= MIN_SAMPLES_BEYOND:
            return percent
    return None


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, report, system, batches: int,
                  batch_instructions: int) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, str],
                                         Dict[str, Tuple[int, int]]]:
    """Derive the per-layer metrics of one traced run.

    Returns ``(metrics, notes, counts)``: ``metrics`` maps a metric name to
    ``(value, unit)``; ``notes`` says why a metric that has no samples on
    this workload reads 0; ``counts`` maps each reconciled event to its
    ``(span count, program counter)`` pair, for :func:`reconcile`.
    """
    per_name, pairs, durations = recorder.summary()
    empty = {"count": 0, "incl_s": 0.0, "self_s": 0.0}

    def span(name: str) -> Dict[str, float]:
        return per_name.get(name, empty)

    notes: Dict[str, str] = {}
    user = report.instructions
    kernel = report.kernel_instructions

    core_self = span("core.execute_batch")["self_s"] + span("core.execute_kernel_batch")["self_s"]
    expansions = span("instrumentation.expand_batch")["count"]
    expand_s = span("instrumentation.expand_batch")["incl_s"]
    if not kernel:
        notes["instrumentation.ns_per_kernel_instr"] = "no kernel instructions ran in the loop"

    mode_faults = span("modes.handle_page_fault")["count"]
    mode_fault_s = span("modes.handle_page_fault")["incl_s"]
    if not mode_faults:
        notes["modes.us_per_fault"] = "no page fault in the run loop (footprint prefaulted)"

    fault_samples = sorted(durations.get("mimicos.handle_page_fault", []))
    tail = tail_percentile(len(fault_samples))
    if not fault_samples:
        notes["mimicos.fault_us_p50"] = "MimicOS handled no page fault"
    if tail is None:
        notes["mimicos.fault_us_ptail"] = (
            f"{len(fault_samples)} faults: too few for a percentile with "
            f"{MIN_SAMPLES_BEYOND} samples beyond it")

    translations = span("mmu.access_data_fast")["count"]
    fast_hits = translations - pairs.get(("mmu.access_data_fast", "mmu.access_data"), 0)
    mmu_self = span("mmu.access_data_fast")["self_s"] + span("mmu.access_data")["self_s"]

    walks = span("pagetables.walk")["count"]
    walk_accesses = pairs.get(("pagetables.walk", "memhier.access_value"), 0)
    if not walks:
        notes["pagetables.ns_per_walk"] = "no page walk in the run"

    accesses = span("memhier.access_value")["count"]
    cache_s = span("memhier.access_value")["self_s"]
    dram_s = span("memhier.dram_access")["self_s"]
    memory = system.memory

    metrics: Dict[str, Tuple[float, str]] = {
        "workloads.gen_s": (span("workloads.next_batch")["incl_s"], "s"),
        "workloads.batches": (batches, "count"),
        "workloads.ns_per_instr": (
            _ratio(span("workloads.next_batch")["incl_s"], user) * 1e9, "ns"),
        "core.self_s": (core_self, "s"),
        "core.user_instructions": (user, "count"),
        "core.kernel_instructions": (kernel, "count"),
        "core.ns_per_instr": (_ratio(core_self, user + kernel) * 1e9, "ns"),
        "instrumentation.expand_s": (expand_s, "s"),
        "instrumentation.expansions": (expansions, "count"),
        "instrumentation.ns_per_kernel_instr": (_ratio(expand_s, kernel) * 1e9, "ns"),
        "modes.faults": (mode_faults, "count"),
        "modes.fault_s": (mode_fault_s, "s"),
        "modes.us_per_fault": (_ratio(mode_fault_s, mode_faults) * 1e6, "us"),
        "mimicos.faults": (len(fault_samples), "count"),
        "mimicos.fault_s": (span("mimicos.handle_page_fault")["self_s"], "s"),
        "mimicos.fault_us_p50": (
            _percentile(fault_samples, 50.0) * 1e6 if fault_samples else 0.0, "us"),
        "mimicos.fault_us_ptail": (
            _percentile(fault_samples, tail) * 1e6 if tail is not None else 0.0, "us"),
        "mimicos.fault_tail_percentile": (tail if tail is not None else 0.0, "percentile"),
        "mimicos.mmap_s": (span("mimicos.mmap")["incl_s"], "s"),
        "mimicos.prefault_s": (span("core.prefault")["incl_s"], "s"),
        "mmu.translations": (translations, "count"),
        "mmu.self_s": (mmu_self, "s"),
        "mmu.ns_per_translation": (_ratio(mmu_self, translations) * 1e9, "ns"),
        "mmu.fast_hits": (fast_hits, "count"),
        "mmu.fast_hit_ratio": (_ratio(fast_hits, translations), "ratio"),
        "mmu.l2_tlb_misses": (report.l2_tlb_misses, "count"),
        "pagetables.walks": (walks, "count"),
        "pagetables.self_s": (span("pagetables.walk")["self_s"], "s"),
        "pagetables.ns_per_walk": (
            _ratio(span("pagetables.walk")["self_s"], walks) * 1e9, "ns"),
        "pagetables.accesses_per_walk": (_ratio(walk_accesses, walks), "count"),
        "memhier.accesses": (accesses, "count"),
        "memhier.self_s": (cache_s + dram_s, "s"),
        "memhier.ns_per_access": (_ratio(cache_s + dram_s, accesses) * 1e9, "ns"),
        "memhier.cache_s": (cache_s, "s"),
        "memhier.dram_s": (dram_s, "s"),
        "memhier.dram_accesses": (span("memhier.dram_access")["count"], "count"),
        "memhier.l1d_hit_ratio": (_ratio(memory.l1.hits(), memory.l1.accesses()), "ratio"),
        "memhier.llc_misses": (report.llc_misses, "count"),
        "memhier.kernel_access_share": (
            _ratio(pairs.get(("core.execute_kernel_batch", "memhier.access_value"), 0),
                   accesses), "ratio"),
        "setup.build_s": (span("setup.build")["incl_s"], "s"),
        "report.build_s": (span("report.build")["incl_s"], "s"),
    }
    if not span("core.prefault")["count"]:
        notes["mimicos.prefault_s"] = "the workload is not prefaulted"
    if not walks:
        notes["pagetables.accesses_per_walk"] = notes["pagetables.ns_per_walk"]
    if tail is None:
        notes["mimicos.fault_tail_percentile"] = notes["mimicos.fault_us_ptail"]

    counts = {
        "workloads.instructions": (batch_instructions, user),
        "pagetables.walks": (walks, report.page_walks),
        "mimicos.faults": (len(fault_samples),
                           report.page_faults + system.counters.get("prefaulted_pages")),
        "modes.faults": (mode_faults, report.page_faults),
        "mmu.translations": (translations, system.mmu.counters.get("data_accesses")),
        "mmu.fast_hits": (fast_hits, system.mmu.fast_hits),
        "memhier.accesses": (accesses, memory.counters.get("requests")),
        "memhier.dram_accesses": (span("memhier.dram_access")["count"], report.dram_accesses),
        "instrumentation.expansions": (
            expansions, system.coupling.instrumentation.counters.get("routines_instrumented")),
        "core.kernel_batches": (span("core.execute_kernel_batch")["count"], expansions),
    }
    return metrics, notes, counts


def reconcile(counts: Dict[str, Tuple[int, int]]) -> List[str]:
    """Every event whose span count differs from the program's own counter."""
    return [f"{event}: {spans} spans vs {counter} counted by the program"
            for event, (spans, counter) in sorted(counts.items()) if spans != counter]
