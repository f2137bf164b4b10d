"""Always-on perf smoke gate: fail if simulator KIPS regresses past tolerance.

Four scenarios are gated: GUPS (the application fast path), ``llm_faults``
(the kernel-dominated fault-heavy scenario that isolates the array-backed
MimicOS stream path), ``multicore_contention`` (two simulated cores
sharing the LLC/DRAM) and ``virtualized_guest`` (2-D translation).  Every
KIPS number is normalised by the benchmark's fixed calibration loop
(``perfbench/calibration.py``), so the gates are absolute floors:

* measured KIPS must stay within
  :data:`~benchmarks.perf.kips_harness.REGRESSION_TOLERANCE` (30 %) of the
  value recorded in ``BENCH_perf.json``;
* measured and recorded KIPS must beat the retired per-instruction
  engine's recorded KIPS (:data:`~benchmarks.perf.kips_harness
  .LEGACY_ENGINE_KIPS`) — by the scenario's target speedup for the
  recorded values;
* every measured run must reproduce its pinned golden statistics digest.

Regenerate the record with::

    PYTHONPATH=src python benchmarks/perf/kips_harness.py
    PYTHONPATH=src python benchmarks/perf/parity_bench.py
    PYTHONPATH=src python benchmarks/perf/sweep.py
    PYTHONPATH=src python benchmarks/perf/service_bench.py

The sweep host-scaling gate only fires when the digest was recorded on a
multi-core host (a 1-CPU container cannot exhibit host scaling); the
sweep *determinism* gate is always on.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.perf.kips_harness import (
    BENCH_PATH,
    FAULT_HEAVY_TARGET_SPEEDUP,
    LEGACY_ENGINE_KIPS,
    MULTICORE_TARGET_SPEEDUP,
    REGRESSION_TOLERANCE,
    SEED_ENGINE_KIPS,
    VIRTUALIZED_TARGET_SPEEDUP,
    code_size,
    run_scenario,
)
from benchmarks.perf.parity_bench import LEGACY_BACKEND_KIPS
from tests.conftest import golden_digests

pytestmark = pytest.mark.perf_smoke


def recorded_bench():
    if not BENCH_PATH.exists():
        pytest.skip("BENCH_perf.json not generated yet; run the KIPS harness first")
    return json.loads(BENCH_PATH.read_text())


def measure(name, repeats):
    """Measure one scenario and check it still simulates the pinned statistics."""
    measured = run_scenario(name, repeats=repeats)
    assert measured["digest"] == golden_digests()["kips"][name], (
        f"{name}: simulated statistics drifted from the pinned golden digest")
    return measured


def assert_kips_no_regression(name, repeats):
    """Measured KIPS within tolerance of the record and above the old engine."""
    row = recorded_bench()["scenarios"][name]
    measured = measure(name, repeats)
    floor = row["kips"] * (1.0 - REGRESSION_TOLERANCE)
    assert measured["kips"] >= floor, (
        f"{name} KIPS regressed: measured {measured['kips']:.1f} "
        f"(raw {measured['raw_kips']:.1f}, host factor {measured['host_factor']}), "
        f"recorded {row['kips']:.1f}, floor {floor:.1f} "
        f"(>{REGRESSION_TOLERANCE:.0%} below the BENCH_perf.json record)")
    assert measured["kips"] > LEGACY_ENGINE_KIPS[name], (
        f"{name}: {measured['kips']:.1f} KIPS no longer beats the retired "
        f"per-instruction engine ({LEGACY_ENGINE_KIPS[name]:.1f})")
    return measured


def assert_record_meets_target(name, target):
    """The recorded KIPS must be ``target`` times the retired engine's."""
    row = recorded_bench()["scenarios"].get(name)
    assert row is not None, f"BENCH_perf.json has no {name} scenario"
    goal = target * LEGACY_ENGINE_KIPS[name]
    assert row["kips"] >= goal, (
        f"recorded {name} KIPS {row['kips']:.1f} is below {target}x the "
        f"retired engine's {LEGACY_ENGINE_KIPS[name]:.1f} ({goal:.1f})")
    return row


def test_gups_kips_no_regression():
    assert_kips_no_regression("gups_smoke", repeats=5)


def test_fast_engine_beats_legacy_on_gups():
    """The simulator must stay meaningfully faster than the retired
    per-instruction engine, with the VPN translation cache engaged."""
    measured = measure("gups_smoke", repeats=2)
    assert measured["fast_hits"] > 0, "VPN translation cache never hit on GUPS smoke"
    assert measured["kips"] > LEGACY_ENGINE_KIPS["gups_smoke"], (
        f"{measured['kips']:.1f} KIPS is not faster than the retired engine's "
        f"{LEGACY_ENGINE_KIPS['gups_smoke']:.1f}")


def test_fault_heavy_record_meets_target():
    """The recorded fault-heavy KIPS must meet the kernel-batch target."""
    row = assert_record_meets_target("llm_faults", FAULT_HEAVY_TARGET_SPEEDUP)
    # The scenario only isolates the kernel path if MimicOS dominates it.
    assert row["kernel_instructions"] > 10 * row["instructions"]


def test_fault_heavy_kips_no_regression():
    assert_kips_no_regression("llm_faults", repeats=5)


def test_multicore_record_meets_target():
    """The recorded multi-core contention KIPS must meet the target."""
    row = assert_record_meets_target("multicore_contention", MULTICORE_TARGET_SPEEDUP)
    assert row.get("cores", 1) >= 2, "multicore_contention must simulate >= 2 cores"


def test_multicore_kips_no_regression():
    assert_kips_no_regression("multicore_contention", repeats=3)


def test_virtualized_record_meets_target():
    """The recorded virtualized-guest KIPS must meet the target."""
    row = assert_record_meets_target("virtualized_guest", VIRTUALIZED_TARGET_SPEEDUP)
    assert row.get("virtualized") is True
    # Both kernels' streams must actually be injected: a virtualised run
    # without hypervisor work would not be testing the two-level path.
    assert row["kernel_instructions"] > 0


def test_virtualized_kips_no_regression():
    assert_kips_no_regression("virtualized_guest", repeats=3)


def test_code_size_recorded():
    """The record carries non-blank source lines per ``repro.<package>``."""
    sizes = recorded_bench().get("code_size")
    assert sizes, "BENCH_perf.json has no code_size section; run the KIPS harness"
    packages = {name: lines for name, lines in sizes.items() if name != "total"}
    assert set(packages) == set(code_size()) - {"total"}
    assert all(isinstance(lines, int) and lines > 0 for lines in packages.values())
    assert sizes["total"] == sum(packages.values())


def test_seed_baselines_are_null_not_zero():
    """Scenarios that postdate the seed engine must record ``null`` baselines.

    A ``pre_pr_seed_kips`` of 0.0 with ``speedup_vs_seed`` 0.0 reads as a
    total regression; the honest encoding for "no seed-engine measurement
    exists" is ``null`` (omitting the comparison), and scenarios *with* a
    seed baseline must show a genuine speedup over it.
    """
    recorded = recorded_bench()
    for name, row in recorded["scenarios"].items():
        seed_kips = row.get("pre_pr_seed_kips")
        speedup = row.get("speedup_vs_seed")
        if name in SEED_ENGINE_KIPS:
            assert seed_kips and seed_kips > 0, (
                f"{name}: expected a positive seed baseline, got {seed_kips!r}")
            assert speedup and speedup > 1.0, (
                f"{name}: fast-path engine should beat the seed engine, "
                f"recorded {speedup!r}")
        else:
            assert seed_kips is None and speedup is None, (
                f"{name}: scenarios without a seed-engine measurement must "
                f"record null baselines, got pre_pr_seed_kips={seed_kips!r}, "
                f"speedup_vs_seed={speedup!r}")


def test_sweep_digest_recorded_and_deterministic():
    """The sweep digest must exist and attest worker-count determinism."""
    recorded = recorded_bench()
    digest = recorded.get("sweep")
    if digest is None:
        pytest.skip("no sweep digest recorded yet; run benchmarks/perf/sweep.py")
    assert digest["deterministic_across_workers"] is True
    assert digest["grid_points"] >= 4, "sweep digest should cover a 4-config grid"
    merged = digest["merged"]
    assert merged["simulated_instructions"] > 0


def test_sweep_host_scaling_meets_target():
    """Near-linear host scaling, gated only on genuinely multi-core hosts."""
    recorded = recorded_bench()
    digest = recorded.get("sweep")
    if digest is None:
        pytest.skip("no sweep digest recorded yet; run benchmarks/perf/sweep.py")
    if digest.get("host_cpus", 1) < 2:
        pytest.skip(f"sweep digest recorded on a {digest.get('host_cpus', 1)}-CPU "
                    "host; host scaling needs >= 2 CPUs")
    scaling = digest.get("scaling_2_workers")
    assert scaling is not None and scaling >= digest["scaling_target"], (
        f"2-worker sweep scaling {scaling}x is below the "
        f"{digest['scaling_target']}x near-linear target")


def test_service_fault_tolerance_recorded():
    """The recorded fault-injection run must attest full recovery.

    The ``service`` section (written by ``benchmarks/perf/service_bench
    .py``) records a seeded FaultPlan injecting a worker crash, a hang
    (timeout-killed) and a transient exception into an 8-point sweep:
    every fault class must actually have fired, every job must have
    recovered (no quarantine), the final digest must be byte-identical
    to the fault-free straight-line run, and a re-run against the same
    store must have served every point from the content-addressed cache.
    """
    recorded = recorded_bench()
    digest = recorded.get("service")
    if digest is None:
        pytest.skip("no service digest recorded yet; run "
                    "benchmarks/perf/service_bench.py")
    assert digest["digest_identical"] is True, (
        "the recorded fault-injected sweep digest diverged from the "
        "straight-line run — the service's determinism guarantee is broken")
    counters = digest["counters"]
    assert counters["crashes"] >= 1, "recorded run never injected a crash"
    assert counters["timeouts"] >= 1, "recorded run never timeout-killed a hang"
    assert counters["transient_failures"] >= 1, (
        "recorded run never injected a transient failure")
    assert counters["retries"] >= 3, (
        "every injected fault must have cost (and recovered through) a retry")
    assert counters["quarantined"] == 0, (
        "the recorded fault plan is recoverable; nothing may be quarantined")
    assert digest["grid_points"] >= 8
    assert digest["rerun_cache_hit_rate"] == 1.0, (
        "re-running the identical grid must be served entirely from the "
        "content-addressed result store")


def test_backend_parity_digest_covers_the_zoo():
    """The per-backend trajectory must cover every design, parity-verified.

    The ``backend_parity`` section (written by
    ``benchmarks/perf/parity_bench.py``) is the record that throughput —
    and memo on/off bit-identity — holds on every translation scheme, not
    just radix: at least five non-radix designs must carry an entry, every
    recorded backend must have verified bit-identical memo-on/memo-off
    runs, and no backend may have been recorded slower than the retired
    per-instruction engine.
    """
    recorded = recorded_bench()
    digest = recorded.get("backend_parity")
    if digest is None:
        pytest.skip("no backend parity digest yet; run "
                    "benchmarks/perf/parity_bench.py")
    backends = digest["backends"]
    non_radix = [kind for kind in backends if kind != "radix"]
    assert len(non_radix) >= 5, (
        f"backend parity digest covers only {sorted(backends)}; the perf "
        "trajectory must include at least 5 non-radix designs")
    for kind, row in backends.items():
        assert row["parity_identical"] is True, (
            f"{kind}: recorded memo-on/memo-off runs were NOT bit-identical — "
            "run python -m repro.validation.parity --full and fix the divergence")
        assert row["kips"] > 0
        assert row["kips"] >= LEGACY_BACKEND_KIPS[kind], (
            f"{kind}: recorded {row['kips']:.1f} KIPS, slower than the retired "
            f"per-instruction engine ({LEGACY_BACKEND_KIPS[kind]:.1f})")


def test_fuzz_campaign_digest_is_healthy():
    """The recorded fixed-seed fuzz campaign must attest a healthy build.

    The ``fuzz`` section (written by ``benchmarks/perf/fuzz_bench.py``)
    records a fixed-seed scenario-fuzzer campaign run at two worker counts:
    the summaries must have been identical (the campaign is a pure function
    of the seed), a healthy build must have found zero divergences and zero
    crashes, no scenario may have been quarantined, the generator must have
    actually explored (non-zero coverage on both maps), and the banked
    regression corpus must have replayed clean.
    """
    recorded = recorded_bench()
    digest = recorded.get("fuzz")
    if digest is None:
        pytest.skip("no fuzz digest recorded yet; run "
                    "benchmarks/perf/fuzz_bench.py")
    assert digest["deterministic_across_workers"] is True, (
        "the recorded fixed-seed campaign differed between worker counts — "
        "fuzz results are no longer reproducible from the seed")
    assert digest["divergences"] == 0 and digest["crashes"] == 0, (
        "the recorded campaign caught real divergences; shrink and fix them "
        "(python -m repro.validation.fuzz), then re-record")
    assert digest["quarantined"] == 0
    assert digest["identical"] == digest["scenarios"] >= 10
    coverage = digest["coverage"]
    assert coverage["op_pair_backend"] > 0 and coverage["op_axis"] > 0, (
        "the recorded campaign explored no coverage — generator regression")
    assert coverage["op_pair_backend"] <= coverage["op_pair_backend_space"]
    corpus = digest["corpus"]
    assert corpus["failures"] == 0, (
        "banked reproducers re-diverged at record time — a fixed bug is back")
    assert corpus["skipped"] == 0, "committed corpus entries must all load"
    assert corpus["entries"] >= 1


def test_lint_digest_is_clean_and_baseline_never_grows():
    """The recorded lint run must attest a discipline-clean tree.

    The ``lint`` section (written by ``benchmarks/perf/lint_bench.py``)
    records one whole-program pass of the ten invariant rules over
    ``src/repro``: a healthy build has zero non-baselined findings, all
    ten rules must actually have run over the full package, the pass
    must fit the recorded scan-time budget, and the checked-in
    ``lint_baseline.json`` may never grow past the recorded size —
    grandfathered debt only shrinks, it is never added to.  The live
    baseline file is compared against the record, so a PR that baselines
    a new violation away fails here even if it also re-records.
    """
    recorded = recorded_bench()
    digest = recorded.get("lint")
    if digest is None:
        pytest.skip("no lint digest recorded yet; run "
                    "benchmarks/perf/lint_bench.py")
    assert digest["findings"] == 0, (
        "the recorded lint run had non-baselined findings; fix them or "
        "annotate with '# lint-allow: <rule> <why>' "
        "(python -m repro.analysis.lint)")
    assert digest["rules_run"] == [
        "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10"]
    assert digest["files_scanned"] >= 90, (
        "the lint scanned suspiciously few files — scope regression")
    assert digest["wall_seconds"] <= digest["scan_budget_seconds"], (
        "the recorded whole-program lint pass blew its scan-time budget — "
        "the lint must stay cheap enough to gate every push")
    assert digest["stale_baseline_entries"] == 0, (
        "the baseline lists violations that no longer exist; prune it "
        "(python -m repro.analysis.lint --update-baseline)")

    from repro.analysis.lint import load_baseline
    from repro.analysis.lint.__main__ import DEFAULT_BASELINE
    live_size = len(load_baseline(DEFAULT_BASELINE))
    assert live_size <= digest["baseline_size"], (
        f"lint_baseline.json grew from {digest['baseline_size']} to "
        f"{live_size} entries — new violations must be fixed or "
        f"pragma-annotated, never baselined away")


def test_server_soak_digest_attests_exactly_once():
    """The recorded server soak must attest distributed-systems health.

    The ``server`` section (written by ``benchmarks/perf/server_bench
    .py``) records a soak campaign of >= 4 concurrent clients submitting
    overlapping sweep slices to one experiment server under a seeded
    network fault plan, with the server SIGKILLed and restarted
    mid-campaign: at least one client connection must have been severed,
    at least one heartbeat silenced into a lease reclaim, every job must
    have completed exactly once across both server generations (journal
    audit), the merged digest must be byte-identical to the fault-free
    straight-line run, and the seeded sensitivity probe must show the
    reclaim fired *because* of the silenced heartbeat (control run clean).
    """
    recorded = recorded_bench()
    digest = recorded.get("server")
    if digest is None:
        pytest.skip("no server soak digest recorded yet; run "
                    "benchmarks/perf/server_bench.py")
    assert digest["clients"] >= 4, (
        "the soak must multiplex at least 4 concurrent clients")
    assert digest["digest_identical"] is True, (
        "the soaked campaign's merged digest diverged from the fault-free "
        "straight-line run — the server's determinism guarantee is broken")
    assert digest["exactly_once"] is True, (
        "a job completed more than once across server restarts — the "
        "journal/resubmit recovery loop double-ran work")
    assert digest["completions"] == digest["unique_keys"] >= digest["points"]
    assert digest["server_kills"] >= 1, (
        "the recorded soak never SIGKILLed the server mid-campaign")
    assert digest["lease_reclaims"] >= 1, (
        "the recorded soak never reclaimed a silent owner's lease")
    assert digest["client_disconnects"] >= 1, (
        "the recorded soak never severed a client connection")
    injected = digest["injected"]
    assert injected["drop_heartbeat"] >= 1 and injected["disconnect"] >= 1
    sensitivity = digest["sensitivity"]
    assert sensitivity["reclaim_fired"] is True, (
        "sensitivity probe: silencing the victim's heartbeat did not force "
        "a lease reclaim (or the control run reclaimed spuriously)")
    assert sensitivity["converged"] is True, (
        "sensitivity probe runs diverged from the straight-line digest")
    assert digest["journal_corrupt_lines"] == 0
    assert digest["errors"] == []
