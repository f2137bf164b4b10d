"""The pinned golden digests cover exactly what they claim to, and the
configuration accepts only the one execution engine."""

import pytest

from benchmarks.perf.kips_harness import SCENARIOS
from repro.common.config import SimulationConfig
from repro.validation.corpus import load_corpus
from repro.validation.parity import full_lattice
from tests.conftest import golden_digests


def test_golden_keys_are_the_lattice_plus_the_corpus():
    golden = golden_digests()
    entries, skipped = load_corpus()
    assert skipped == 0
    expected = {point.name for point in full_lattice()} | {path.stem for path, _ in entries}
    pinned = set(golden["lattice"]) | set(golden["corpus"])
    assert pinned == expected, (
        f"missing: {sorted(expected - pinned)}; extra: {sorted(pinned - expected)}")
    assert len(golden["lattice"]) == len(full_lattice())
    assert set(golden["corpus"]) == {path.stem for path, _ in entries}
    assert set(golden["kips"]) == set(SCENARIOS)
    assert all(len(digest) == 64 for section in ("lattice", "corpus", "kips")
               for digest in golden[section].values())


def test_simulation_config_accepts_only_the_batch_engine():
    assert SimulationConfig().engine == "batch"
    assert SimulationConfig(engine="batch").engine == "batch"
    for engine in ("legacy", "warp", ""):
        with pytest.raises(ValueError, match="'batch'"):
            SimulationConfig(engine=engine)
