"""Tests for the workload generators and the registry."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.addresses import MB, PAGE_SIZE_4K
from repro.common.config import PageTableConfig
from repro.common.rng import DeterministicRNG
from repro.core.instructions import (
    KIND_TO_OP,
    OP_ALU,
    OP_BRANCH,
    OP_LOAD,
    OP_STORE,
    Instruction,
    InstructionKind,
)
from repro.mimicos.kernel import MimicOS
from repro.workloads import (
    GRAPH_KERNELS,
    LLM_PROFILES,
    LONG_RUNNING_WORKLOADS,
    SHORT_RUNNING_WORKLOADS,
    GraphWorkload,
    IntensitySweepWorkload,
    JSONWorkload,
    KernelFractionMicrobenchmark,
    LLMInferenceWorkload,
    PointerChaseWorkload,
    RandomAccessWorkload,
    SequentialWorkload,
    XSBenchWorkload,
    build_suite,
    build_workload,
    workload_names,
)
from repro.workloads.base import StreamBuilder, cold_hot_addresses, span_mapped_addresses
from tests.conftest import tiny_mimicos_config


@pytest.fixture
def kernel_and_process():
    kernel = MimicOS(tiny_mimicos_config(), PageTableConfig())
    return kernel, kernel.create_process("wl")


OP_TO_KIND = {op: kind for kind, op in KIND_TO_OP.items()}


def materialise(workload, kernel, process, limit=50_000):
    """The workload's first ``limit`` instructions as objects."""
    workload.setup(kernel, process)
    instructions = []
    for batch in workload.instruction_batches(process):
        for op, pc, address in zip(batch.kinds, batch.pcs, batch.addresses):
            instructions.append(Instruction(OP_TO_KIND[op], pc, address))
            if len(instructions) >= limit:
                return instructions
    return instructions


class TestRegistry:
    def test_all_paper_workloads_registered(self):
        names = workload_names()
        for name in LONG_RUNNING_WORKLOADS + SHORT_RUNNING_WORKLOADS:
            assert name in names, name

    def test_build_workload_unknown_name(self):
        with pytest.raises(KeyError):
            build_workload("NOPE")

    def test_build_suite(self):
        suite = build_suite(["BFS", "RND"], memory_operations=10)
        assert [w.name for w in suite] == ["BFS", "RND"]

    def test_aliases(self):
        assert build_workload("SP").name == "SSSP"
        assert build_workload("KCORE").name == "KC"

    def test_graph_kernels_and_llm_profiles_complete(self):
        assert set(GRAPH_KERNELS) == {"BC", "BFS", "CC", "GC", "KC", "PR", "SSSP", "TC"}
        assert set(LLM_PROFILES) == {"Llama", "Bagel", "Mistral"}


class TestWorkloadStreams:
    def test_addresses_stay_inside_vmas(self, kernel_and_process):
        kernel, process = kernel_and_process
        workload = RandomAccessWorkload(footprint_bytes=4 * MB, memory_operations=500)
        instructions = materialise(workload, kernel, process)
        for instruction in instructions:
            if instruction.is_memory:
                assert process.vmas.find(instruction.memory_address) is not None

    def test_graph_workload_mixes_memory_and_compute(self, kernel_and_process):
        kernel, process = kernel_and_process
        workload = GraphWorkload("PR", footprint_bytes=8 * MB, memory_operations=500)
        instructions = materialise(workload, kernel, process)
        kinds = {instruction.kind for instruction in instructions}
        assert InstructionKind.LOAD in kinds
        assert InstructionKind.ALU in kinds
        memory_count = sum(1 for i in instructions if i.is_memory)
        assert 0 < memory_count < len(instructions)

    def test_graph_workload_deterministic(self, kernel_and_process):
        kernel, process = kernel_and_process
        first = materialise(GraphWorkload("BFS", footprint_bytes=4 * MB,
                                          memory_operations=200, seed=3), kernel, process)
        kernel2 = MimicOS(tiny_mimicos_config(), PageTableConfig())
        process2 = kernel2.create_process("wl2")
        second = materialise(GraphWorkload("BFS", footprint_bytes=4 * MB,
                                           memory_operations=200, seed=3), kernel2, process2)
        assert [i.memory_address for i in first] == [i.memory_address for i in second]

    def test_bc_creates_many_small_vmas(self, kernel_and_process):
        kernel, process = kernel_and_process
        GraphWorkload("BC", footprint_bytes=8 * MB, memory_operations=10).setup(kernel, process)
        assert len(process.vmas) >= 148  # 3 data VMAs + 147 auxiliary ones

    def test_unknown_graph_kernel_rejected(self):
        with pytest.raises(ValueError):
            GraphWorkload("DIJKSTRA")

    def test_faas_workload_touches_every_page(self, kernel_and_process):
        kernel, process = kernel_and_process
        workload = JSONWorkload(scale=0.1)
        instructions = materialise(workload, kernel, process)
        touched_pages = {i.memory_address // PAGE_SIZE_4K for i in instructions if i.is_memory}
        mapped_pages = sum(vma.size // PAGE_SIZE_4K for vma in process.vmas)
        assert len(touched_pages) == mapped_pages

    def test_llm_workload_grows_kv_cache_monotonically(self, kernel_and_process):
        kernel, process = kernel_and_process
        workload = LLMInferenceWorkload("Llama", scale=0.2)
        instructions = materialise(workload, kernel, process)
        kv_vma = next(vma for vma in process.vmas if "kv-cache" in vma.name)
        kv_writes = [i.memory_address for i in instructions
                     if i.is_write and kv_vma.contains(i.memory_address or 0)]
        assert kv_writes == sorted(kv_writes)
        assert kv_writes, "the KV cache must be written"

    def test_llm_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            LLMInferenceWorkload("GPT-5")

    def test_xsbench_has_dependent_index_lookups(self, kernel_and_process):
        kernel, process = kernel_and_process
        workload = XSBenchWorkload(footprint_bytes=8 * MB, lookups=20)
        instructions = materialise(workload, kernel, process)
        assert sum(1 for i in instructions if i.is_memory) > 20

    def test_pointer_chase_addresses_are_serially_dependent(self, kernel_and_process):
        kernel, process = kernel_and_process
        workload = PointerChaseWorkload(footprint_bytes=4 * MB, memory_operations=50)
        instructions = materialise(workload, kernel, process)
        addresses = [i.memory_address for i in instructions if i.is_memory]
        assert len(set(addresses)) > 10

    def test_intensity_sweep_scales_randomness(self, kernel_and_process):
        kernel, process = kernel_and_process
        low = IntensitySweepWorkload(0.0, memory_operations=300, seed=1)
        high = IntensitySweepWorkload(1.0, memory_operations=300, seed=1)
        low_instructions = materialise(low, kernel, process)
        kernel2 = MimicOS(tiny_mimicos_config(), PageTableConfig())
        process2 = kernel2.create_process("x")
        high_instructions = materialise(high, kernel2, process2)

        def distinct_pages(instructions):
            return len({i.memory_address // PAGE_SIZE_4K
                        for i in instructions if i.is_memory})

        assert distinct_pages(high_instructions) > distinct_pages(low_instructions)
        assert high.footprint_bytes > low.footprint_bytes

    def test_intensity_bounds_validated(self):
        with pytest.raises(ValueError):
            IntensitySweepWorkload(1.5)

    def test_kernel_fraction_microbenchmark_constant_app_instructions(self, kernel_and_process):
        kernel, process = kernel_and_process
        low = KernelFractionMicrobenchmark(0.0, memory_operations=300)
        high = KernelFractionMicrobenchmark(1.0, memory_operations=300)
        low_count = len(materialise(low, kernel, process))
        kernel2 = MimicOS(tiny_mimicos_config(), PageTableConfig())
        high_count = len(materialise(high, kernel2, kernel2.create_process("y")))
        assert low_count == high_count

    def test_kernel_fraction_touches_more_fresh_pages_at_high_fraction(self, kernel_and_process):
        kernel, process = kernel_and_process
        high = KernelFractionMicrobenchmark(1.0, memory_operations=300)
        instructions = materialise(high, kernel, process)
        pages = {i.memory_address // PAGE_SIZE_4K for i in instructions if i.is_memory}
        assert len(pages) > 200

    def test_prefault_addresses_cover_vmas(self, kernel_and_process):
        kernel, process = kernel_and_process
        workload = SequentialWorkload(footprint_bytes=1 * MB, memory_operations=10)
        workload.setup(kernel, process)
        addresses = list(workload.prefault_addresses(process))
        assert len(addresses) == 256


class TestWholeListGeneratorsMatchPerAccessModels:
    """The whole-list generators against straight per-access loops.

    ``StreamBuilder.emit_batches``, ``cold_hot_addresses`` and
    ``span_mapped_addresses`` assemble their output with list repetition,
    extended-slice assignment and bulk RNG draws.  Each is checked here
    against the obvious one-access-at-a-time loop, including the RNG stream
    position it leaves behind, over the shapes the slicing can get wrong:
    no or one compute slot, a PC ring shorter than one access, a cursor
    carried across calls, short ``writes`` and empty input.
    """

    @staticmethod
    def model_stream(calls, seed, compute_per_memory, write_fraction, pc_count,
                     pc_base=0x400000):
        """Per-access model of successive ``emit_batches`` calls."""
        rng = DeterministicRNG(seed)
        out = []
        cursor = 0
        for addresses, writes in calls:
            write_iter = iter(writes) if writes is not None else None
            for address in addresses:
                for slot in range(compute_per_memory):
                    kind = OP_BRANCH if slot == compute_per_memory - 1 else OP_ALU
                    out.append((kind, pc_base + (cursor % pc_count) * 4, None))
                    cursor += 1
                if write_iter is not None:
                    is_write = next(write_iter, False)
                else:
                    is_write = rng.random() < write_fraction
                out.append((OP_STORE if is_write else OP_LOAD,
                            pc_base + (cursor % pc_count) * 4, address))
                cursor += 1
        return out, rng.random()

    ADDRESSES = [0x10000 + 64 * index for index in range(50)]

    @pytest.mark.parametrize("compute_per_memory,write_fraction,pc_count,calls", [
        pytest.param(2, 0.3, 32, [(ADDRESSES, None)], id="defaults"),
        pytest.param(0, 0.3, 32, [(ADDRESSES, None)], id="no_compute"),
        pytest.param(1, 0.3, 32, [(ADDRESSES, None)], id="branch_only"),
        pytest.param(5, 0.5, 32, [(ADDRESSES, None)], id="wide_compute"),
        pytest.param(2, 0.3, 1, [(ADDRESSES, None)], id="single_pc"),
        pytest.param(3, 0.3, 7, [(ADDRESSES[:13], None), (ADDRESSES[13:], None),
                                 (ADDRESSES[:5], None)], id="cursor_across_calls"),
        pytest.param(2, 0.3, 32, [(ADDRESSES[:6], [True, False, True, True, False, True])],
                     id="explicit_writes"),
        pytest.param(2, 0.3, 32, [(ADDRESSES, [True, True, True])], id="short_writes"),
        pytest.param(2, 1.0, 5, [(ADDRESSES, None)], id="all_stores"),
        pytest.param(2, 0.3, 32, [([], None), (ADDRESSES[:3], None), ([], [True])],
                     id="empty_calls"),
    ])
    def test_emit_batches(self, compute_per_memory, write_fraction, pc_count, calls):
        expected, next_draw = self.model_stream(calls, 21, compute_per_memory,
                                                write_fraction, pc_count)
        for batch_size in (1, 7, 4096):
            rng = DeterministicRNG(21)
            builder = StreamBuilder(rng, compute_per_memory=compute_per_memory,
                                    write_fraction=write_fraction, pc_count=pc_count)
            produced = []
            for addresses, writes in calls:
                # A generator argument exercises the non-list input path.
                for batch in builder.emit_batches((a for a in addresses), writes,
                                                  batch_size=batch_size):
                    assert 0 < len(batch.kinds) <= batch_size
                    produced.extend(zip(batch.kinds, batch.pcs, batch.addresses))
            assert produced == expected
            assert rng.random() == next_draw

    @staticmethod
    def model_cold_hot(start, cold_touches, cold_stride, hot_operations, hot_span,
                       rng, interleave_regions, region_bytes, mix_per_cold):
        touched = []
        out = []
        for index in range(cold_touches):
            region = index % interleave_regions if interleave_regions > 1 else 0
            offset = (region * region_bytes
                      + (index // interleave_regions) * cold_stride)
            touched.append(offset)
            out.append(start + offset)
            for _ in range(mix_per_cold):
                out.append(start + touched[int(rng.random() * (index + 1))])
        for _ in range(hot_operations):
            out.append(start + rng.randint(0, max(0, hot_span - 64)))
        return out

    @pytest.mark.parametrize("interleave_regions,region_bytes,mix_per_cold", [
        pytest.param(1, 0, 0, id="plain"),
        pytest.param(3, 1 << 20, 0, id="interleaved"),
        pytest.param(2, 1 << 20, 3, id="interleaved_mixed"),
    ])
    def test_cold_hot_addresses(self, interleave_regions, region_bytes, mix_per_cold):
        arguments = (0x7000_0000, 40, PAGE_SIZE_4K, 60, 24 * PAGE_SIZE_4K)
        rng, model_rng = DeterministicRNG(5), DeterministicRNG(5)
        produced = cold_hot_addresses(*arguments, rng,
                                      interleave_regions=interleave_regions,
                                      region_bytes=region_bytes,
                                      mix_per_cold=mix_per_cold)
        expected = self.model_cold_hot(*arguments, model_rng, interleave_regions,
                                       region_bytes, mix_per_cold)
        assert produced == expected
        assert len(produced) == 40 * (1 + mix_per_cold) + 60
        assert rng.random() == model_rng.random()

    def test_span_mapped_addresses(self):
        span_starts = [0x1000_0000, 0x2000_0000, 0x2400_0000]
        span_bytes = 3 * PAGE_SIZE_4K
        offsets = [0, 1, span_bytes - 1, span_bytes, 2 * span_bytes + 5,
                   span_bytes + PAGE_SIZE_4K, 3 * span_bytes - 64]
        expected = []
        for offset in offsets:
            span, within = divmod(offset, span_bytes)
            expected.append(span_starts[span] + within)
        assert span_mapped_addresses(offsets, span_starts, span_bytes) == expected


def test_simulation_never_imports_numpy():
    """Generation is pure Python: a whole simulation run must not pull the
    array library into the process (it would cost every worker its
    import-time memory for nothing)."""
    script = (
        "import sys\n"
        "import repro\n"
        "from repro.common.addresses import MB\n"
        "from repro.common.config import scaled_system_config\n"
        "from repro.core.virtuoso import Virtuoso\n"
        "from repro.workloads import GUPSWorkload\n"
        "config = scaled_system_config(physical_memory_bytes=256 * MB)\n"
        "report = Virtuoso(config, seed=1).run(\n"
        "    GUPSWorkload(footprint_bytes=4 * MB, memory_operations=200, seed=3))\n"
        "assert report.instructions > 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    source = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
