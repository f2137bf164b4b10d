"""The benchmark's four workloads: one simulated system plus one workload each.

Every workload runs on the KIPS harness's scaled system (256 MiB of
unfragmented physical memory) with the batch engine and the paper's
``imitation`` OS coupling.  ``seed`` is the benchmark's ``--seed``: it is
passed to the workload constructor and to ``Virtuoso(seed=...)``, and
nothing else in a run is random.

Run lengths were chosen so one simulated run loop takes roughly one to two
host seconds on a two-core x86-64 container, long enough for the loop to
dominate child start-up and short enough to take several samples per
benchmark run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict

from repro.common.addresses import MB
from repro.common.config import CASE_STUDY_PAGE_TABLES, SystemConfig, scaled_system_config
from repro.workloads import GUPSWorkload, LLMInferenceWorkload, SequentialWorkload

#: The seed whose simulated statistics are pinned in :data:`PINNED_DIGESTS`.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Scenario:
    """One benchmark workload: the system it runs on and a workload factory."""

    name: str
    thp_policy: str
    page_table: str
    make_workload: Callable[[int], object]

    def system_config(self) -> SystemConfig:
        """The simulated system this workload runs on."""
        config = scaled_system_config(name=f"perfbench-{self.name}",
                                      physical_memory_bytes=256 * MB,
                                      fragmentation_target=1.0,
                                      thp_policy=self.thp_policy)
        config = config.with_page_table(CASE_STUDY_PAGE_TABLES[self.page_table])
        return config.with_simulation(replace(config.simulation, engine="batch",
                                              os_mode="imitation"))


def _gups(operations: int) -> Callable[[int], object]:
    return lambda seed: GUPSWorkload(footprint_bytes=64 * MB, memory_operations=operations,
                                     prefault=True, seed=seed)


SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario for scenario in (
        Scenario(
            name="gups_radix_4k",
            thp_policy="never", page_table="radix",
            make_workload=_gups(15_000)),
        Scenario(
            name="llm_imitation_4k",
            thp_policy="never", page_table="radix",
            make_workload=lambda seed: LLMInferenceWorkload("Llama", seed=seed, scale=1.0,
                                                            weight_read_scale=0.25)),
        Scenario(
            name="stream_thp",
            thp_policy="linux", page_table="radix",
            make_workload=lambda seed: SequentialWorkload(footprint_bytes=32 * MB,
                                                          memory_operations=80_000,
                                                          prefault=True, seed=seed)),
        Scenario(
            name="gups_utopia_4k",
            thp_policy="never", page_table="utopia",
            make_workload=_gups(20_000)),
    )
}

#: sha256 of the canonical JSON of ``flatten_stats(report)`` at
#: :data:`DEFAULT_SEED`.  A change that is meant only to speed up the
#: simulator must leave these unchanged.
PINNED_DIGESTS: Dict[str, str] = {
    "gups_radix_4k": "7c22a2bae333bc9ccd92c1f848c843fce6dd1eddfb74052e65621d1b5d156fb1",
    "llm_imitation_4k": "00357db898fbe4ea4d3425925d7b517f3f92139ee78f90a262be6f0c70f25974",
    "stream_thp": "ccc41cb08b58e793a804b3a3d116c3a5da9d176b7c310fd46c8a7963a45ea66d",
    "gups_utopia_4k": "de7d65643bdd7d49f5dad622f35fe1ed1b9b0381b6c07c102770bbfde9cc76a0",
}
