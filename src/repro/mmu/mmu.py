"""The memory-management unit: translation plus the data access itself.

For every memory operand the core model calls :meth:`MMU.access_data`.  The
MMU looks up the TLB hierarchy, walks the active translation structure on a
miss (paying for the walk's memory accesses through the shared memory
hierarchy), reports page faults to the OS through a fault callback installed
by the Virtuoso orchestrator (which runs MimicOS and injects the handler's
instruction stream, returning the fault's latency), retries the walk, and
finally performs the data access.

Schemes that replace the TLBs (Midgard, VBI) follow their own path: a cheap
frontend translation before the access and a backend translation charged
only when the access reaches DRAM.

Fast path
---------

:meth:`MMU.access_data_fast` is the batch engine's entry point.  It consults
a flat VPN -> (page base, physical base, page size, L1 TLB slot) cache that
memoises the most recent L1 data-TLB hits.  A fast hit replays *exactly* the
side effects the slow path would produce for the same access — the L1
entry's move to most recently used, every counter, the translation-latency
sample — so simulated statistics are bit-identical with the cache enabled or
disabled.  The cache is strictly invalidated whenever its replay could
diverge: on :meth:`set_context`, on any TLB content change (fill,
invalidate, flush — tracked through the TLBs' ``version`` counters) and on
any page-table mutation (tracked through the page table's ``version``).
Results are returned in per-MMU scratch objects, so the hot loop performs no
allocation at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.common.addresses import PAGE_SIZE_2M, PAGE_SIZE_4K, align_down
from repro.common.stats import Counter, RunningStats
from repro.memhier.memory_system import MemoryAccessType, MemoryHierarchy, MemoryRequest
from repro.mmu.extensions import MMUExtensions
from repro.mmu.nested import NestedTranslationUnit
from repro.mmu.pom_tlb import PartOfMemoryTLB
from repro.mmu.tlb import TLBHierarchy, TLBLookupResult
from repro.mmu.tlb_prefetch import SequentialTLBPrefetcher
from repro.mmu.victima import VictimaCacheTLB
from repro.pagetables.base import PageTableBase

#: Signature of the page-fault callback: (pid, virtual address) -> (latency, handled).
FaultCallback = Callable[[int, int], Tuple[int, bool]]

#: Safety bound on the VPN cache (covers far more than the L1 TLBs' reach).
_VPN_CACHE_MAX_ENTRIES = 65536


@dataclass(slots=True)
class TranslationResult:
    """Outcome of translating one virtual address."""

    virtual_address: int
    physical_address: int = 0
    latency: int = 0
    tlb_hit: bool = False
    tlb_level: str = "miss"
    walked: bool = False
    walk_latency: int = 0
    walk_memory_accesses: int = 0
    page_fault: bool = False
    fault_latency: int = 0
    segfault: bool = False
    frontend_latency: int = 0
    backend_latency: int = 0
    page_size: int = PAGE_SIZE_4K


@dataclass(slots=True)
class MemoryOperationResult:
    """Translation plus data access for one memory operand."""

    translation: TranslationResult
    data_latency: int = 0
    served_by: str = "none"
    total_latency: int = 0


class _NestedWalkAdapter:
    """Adapts a nested (2-D) walk outcome to the ``WalkResult`` duck type.

    The guest-dimension share of the walk is reported as ``frontend_latency``
    and the host-dimension share as ``backend_latency`` — never the combined
    2-D latency in one field, which would double-count the guest walk as
    host (backend) time in per-backend attribution.  On a nested-TLB hit
    both shares are zero: no table was walked in either dimension.
    """

    __slots__ = ("found", "latency", "memory_accesses", "physical_base",
                 "page_size", "frontend_latency", "backend_latency")

    def __init__(self, nested) -> None:
        self.found = nested.found
        self.latency = nested.latency
        self.memory_accesses = nested.memory_accesses
        self.physical_base = nested.host_physical_base
        self.page_size = nested.page_size
        self.frontend_latency = nested.guest_latency
        self.backend_latency = nested.host_latency


class MMU:
    """The per-core MMU model.

    Each simulated core owns one MMU, which in turn owns that core's private
    TLB hierarchy, VPN translation cache and translation context (pid + page
    table) — so in a multi-core system every core translates against its own
    context while the page tables themselves are shared kernel state.
    ``core_index`` identifies the owning core (0 in single-core systems).
    """

    def __init__(self, tlb_hierarchy: TLBHierarchy, memory: MemoryHierarchy,
                 extensions: Optional[MMUExtensions] = None,
                 core_index: int = 0):
        self.tlbs = tlb_hierarchy
        self.memory = memory
        self.extensions = extensions or MMUExtensions()
        self.core_index = core_index
        self.counters = Counter()
        self.ptw_latency_stats = RunningStats()
        self.translation_latency_stats = RunningStats()
        self.fault_latency_stats = RunningStats()
        #: 2-D walk attribution (virtualised mode): the guest-dimension and
        #: host-dimension shares of every nested walk's latency, so
        #: per-backend parity can tell a slow guest table from a slow host
        #: (extended) table.  The VPN cache only serves L1 hits, so every
        #: walk feeds these through the same ``_walk`` call, memo on or off.
        self.guest_ptw_latency_stats = RunningStats()
        self.host_ptw_latency_stats = RunningStats()

        self.pid: int = 0
        self.page_table: Optional[PageTableBase] = None
        self.fault_callback: Optional[FaultCallback] = None
        self.nested_unit: Optional[NestedTranslationUnit] = None

        self.tlb_prefetcher = SequentialTLBPrefetcher() if self.extensions.tlb_prefetch else None
        self.pom_tlb = PartOfMemoryTLB() if self.extensions.pom_tlb else None
        self.victima = VictimaCacheTLB(memory.l2) if self.extensions.victima else None

        # Hot counter cells (folded transparently on every Counter read).
        self._c_data_accesses = self.counters.hot("data_accesses")
        self._c_instruction_accesses = self.counters.hot("instruction_accesses")
        self._c_tlb_hits = self.counters.hot("tlb_hits")
        self._c_tlb_misses = self.counters.hot("tlb_misses")
        self._c_page_walks = self.counters.hot("page_walks")
        self._c_ptw_memory_accesses = self.counters.hot("ptw_memory_accesses")

        # Fast-path state: the flat VPN translation cache and the version
        # snapshots its entries are valid against.
        self.vpn_cache_enabled = self.extensions.vpn_translation_cache
        self._l1d_4k = tlb_hierarchy.l1d_4k
        self._l1d_2m = tlb_hierarchy.l1d_2m
        self._l1_latency = tlb_hierarchy.l1d_4k.latency
        self._vpn_cache: Dict[int, tuple] = {}
        #: 2M-page entries keyed at 2M granularity (one record covers the
        #: whole huge page, so THP workloads warm up after a single miss).
        self._vpn_cache_2m: Dict[int, tuple] = {}
        self._vpn_pt_source: Optional[PageTableBase] = None
        self._vpn_pt_version = -1
        self._vpn_tlb_version = -1
        #: Cumulative fast-path hits (diagnostics; not a simulated statistic).
        self.fast_hits = 0

        # Scratch result objects reused by the allocation-free fast path.
        self._scratch_translation = TranslationResult(0)
        self._scratch_op = MemoryOperationResult(translation=self._scratch_translation)

    # ------------------------------------------------------------------ #
    # Context management
    # ------------------------------------------------------------------ #
    def set_context(self, pid: int, page_table: PageTableBase,
                    flush_tlbs: bool = False) -> None:
        """Switch the MMU to another process's address space."""
        self.pid = pid
        self.page_table = page_table
        self._vpn_cache.clear()
        self._vpn_cache_2m.clear()
        self._vpn_pt_source = None if page_table is None else page_table.version_source()
        self._vpn_pt_version = -1
        self._vpn_tlb_version = -1
        if flush_tlbs:
            self.tlbs.flush()
            # Without VPID/EPT tagging a context switch also loses the
            # combined (guest-virtual -> host-physical) translations.
            if self.nested_unit is not None:
                self.nested_unit.flush()

    def migrate_in(self, pid: int, page_table: PageTableBase) -> None:
        """Context-switch for a process migrating onto this core.

        Identical to ``set_context(..., flush_tlbs=True)``; it exists to make
        the migration semantics explicit: a process that last ran on another
        core must never observe this core's stale TLB contents (this model
        has no cross-core shootdowns, so a resident translation here may
        predate unmaps performed while the process ran elsewhere), and the
        per-core VPN translation cache is dropped with the context.
        """
        self.set_context(pid, page_table, flush_tlbs=True)

    def set_fault_callback(self, callback: FaultCallback) -> None:
        """Install the OS page-fault entry point (wired up by Virtuoso)."""
        self.fault_callback = callback

    def invalidate_translation(self, pid: int, virtual_address: int) -> None:
        """Kernel-initiated TLB shootdown for one page of ``pid``.

        Called (through :meth:`repro.mimicos.kernel.MimicOS.tlb_shootdown`)
        whenever the kernel unmaps or remaps a page outside the normal
        fill path — swap-out reclaim, khugepaged collapse, THP promotion,
        munmap, restrictive-mapping evictions — so no stale translation
        survives in this core's TLBs.  Like a real IPI shootdown, only cores
        currently running ``pid``'s address space act (context switches flush
        the TLBs, so other address spaces cannot be resident here).  The TLB
        ``version`` bump performed by the invalidation also keeps the VPN
        translation cache honest, so the unmap is observed identically with
        the cache on or off.
        """
        if pid != self.pid:
            return
        self.tlbs.invalidate(virtual_address)
        if self.nested_unit is not None:
            # A guest-side remap also kills the combined translation the
            # nested TLB caches for this guest-virtual page.
            self.nested_unit.invalidate(virtual_address)

    def invalidate_nested_translations(self) -> None:
        """Host-side (EPT) remap shootdown for this core.

        Called when the hypervisor remaps a frame backing guest RAM (host
        swap-out, restrictive-mapping eviction, host khugepaged collapse):
        the guest-physical -> host-physical dimension changed without naming
        any guest-virtual address, so every *combined* translation this core
        holds is suspect — the nested TLB, the L1/L2 TLBs (filled with
        host-physical bases by nested walks) and, through the TLB version
        bump, the VPN translation cache are all dropped, exactly as an
        INVEPT-triggered combined-mapping flush behaves on real hardware.
        No-op on cores not running a virtualised context.
        """
        if self.nested_unit is None:
            return
        self.nested_unit.flush()
        self.tlbs.flush()
        self.counters.add("nested_shootdowns")

    def set_nested_unit(self, nested_unit: Optional[NestedTranslationUnit]) -> None:
        """Enable two-dimensional translation through ``nested_unit``."""
        self.nested_unit = nested_unit

    # ------------------------------------------------------------------ #
    # Main access path
    # ------------------------------------------------------------------ #
    def access_data(self, virtual_address: int, is_write: bool = False,
                    pc: int = 0) -> MemoryOperationResult:
        """Translate ``virtual_address`` and perform the data access."""
        if self.page_table is None:
            raise RuntimeError("MMU has no page table; call set_context() first")
        self._c_data_accesses[0] += 1

        if self.page_table.replaces_tlbs:
            return self._access_intermediate_scheme(virtual_address, is_write, pc)

        translation = self._translate(virtual_address)
        if translation.segfault:
            return MemoryOperationResult(translation=translation,
                                         total_latency=translation.latency)

        memory = self.memory
        data_latency = memory.access_value(translation.physical_address, is_write, "data", pc)
        return MemoryOperationResult(translation=translation, data_latency=data_latency,
                                     served_by=memory.last_served_by,
                                     total_latency=translation.latency + data_latency)

    def access_data_fast(self, virtual_address: int, is_write: bool = False,
                         pc: int = 0) -> MemoryOperationResult:
        """Allocation-free :meth:`access_data` used by the batch engine.

        Returns a scratch :class:`MemoryOperationResult` that is overwritten
        by the next call — callers must consume it immediately.
        """
        cache = self._vpn_cache
        cache_2m = self._vpn_cache_2m
        if cache or cache_2m:
            if (self._vpn_pt_source.version != self._vpn_pt_version
                    or self._l1d_4k.version + self._l1d_2m.version != self._vpn_tlb_version):
                cache.clear()
                cache_2m.clear()
            else:
                entry = cache.get(virtual_address >> 12)
                if entry is None and cache_2m:
                    entry = cache_2m.get(virtual_address >> 21)
                if entry is not None:
                    # Replay the exact side effects of the slow path's L1 hit.
                    page_base, physical_base, page_size, is_2m, entries, key = entry
                    l1_4k = self._l1d_4k
                    l1_4k._c_lookups[0] += 1
                    if is_2m:
                        l1_4k._c_misses[0] += 1
                        l1_2m = self._l1d_2m
                        l1_2m._c_lookups[0] += 1
                        l1_2m._c_hits[0] += 1
                    else:
                        l1_4k._c_hits[0] += 1
                    # The hit makes the entry its set's most recently used.
                    entries[key] = entries.pop(key)
                    self.tlbs._c_data_lookups[0] += 1
                    self._c_data_accesses[0] += 1
                    self._c_tlb_hits[0] += 1
                    latency = self._l1_latency
                    self.translation_latency_stats.add(latency)

                    physical_address = physical_base + (virtual_address - page_base)
                    memory = self.memory
                    data_latency = memory.access_value(physical_address, is_write, "data", pc)
                    self.fast_hits += 1

                    translation = self._scratch_translation
                    translation.virtual_address = virtual_address
                    translation.physical_address = physical_address
                    translation.latency = latency
                    translation.tlb_hit = True
                    translation.tlb_level = "L1"
                    translation.walked = False
                    translation.walk_latency = 0
                    translation.walk_memory_accesses = 0
                    translation.page_fault = False
                    translation.fault_latency = 0
                    translation.segfault = False
                    translation.frontend_latency = 0
                    translation.backend_latency = 0
                    translation.page_size = page_size
                    operation = self._scratch_op
                    operation.data_latency = data_latency
                    operation.served_by = memory.last_served_by
                    operation.total_latency = latency + data_latency
                    return operation
        return self.access_data(virtual_address, is_write, pc)

    def access_instruction(self, virtual_address: int, pc: int = 0) -> MemoryOperationResult:
        """Instruction-fetch translation and access (used per fetched line)."""
        if self.page_table is None:
            raise RuntimeError("MMU has no page table; call set_context() first")
        self._c_instruction_accesses[0] += 1
        translation = self._translate(virtual_address, instruction=True)
        if translation.segfault:
            return MemoryOperationResult(translation=translation,
                                         total_latency=translation.latency)
        memory = self.memory
        data_latency = memory.access_value(translation.physical_address, False,
                                           "instruction", pc)
        return MemoryOperationResult(translation=translation, data_latency=data_latency,
                                     served_by=memory.last_served_by,
                                     total_latency=translation.latency + data_latency)

    # ------------------------------------------------------------------ #
    # Conventional (TLB + walk) translation
    # ------------------------------------------------------------------ #
    def _translate(self, virtual_address: int, instruction: bool = False) -> TranslationResult:
        result = TranslationResult(virtual_address=virtual_address)
        lookup = (self.tlbs.lookup_instruction(virtual_address) if instruction
                  else self.tlbs.lookup_data(virtual_address))
        result.latency += lookup.latency

        if lookup.hit:
            result.tlb_hit = True
            result.tlb_level = lookup.level
            result.page_size = lookup.page_size
            result.physical_address = (lookup.physical_base
                                       + virtual_address % lookup.page_size)
            self._c_tlb_hits[0] += 1
            self.translation_latency_stats.add(result.latency)
            if not instruction and lookup.level == "L1":
                self._note_l1_data_hit(virtual_address, lookup)
            return result

        self._c_tlb_misses[0] += 1

        # Optional structures probed before the walk.
        if self.victima is not None:
            entry, latency = self.victima.lookup(virtual_address)
            result.latency += latency
            if entry is not None:
                physical_base, page_size = entry
                self._finish_walk_hit(result, virtual_address, physical_base, page_size,
                                      instruction)
                self.counters.add("victima_hits")
                return result
        if self.pom_tlb is not None:
            entry, latency = self.pom_tlb.lookup(virtual_address, self.memory)
            result.latency += latency
            if entry is not None:
                physical_base, page_size = entry
                self._finish_walk_hit(result, virtual_address, physical_base, page_size,
                                      instruction)
                self.counters.add("pom_tlb_hits")
                return result

        walk = self._walk(virtual_address)
        result.walked = True
        result.walk_latency += walk.latency
        result.walk_memory_accesses += walk.memory_accesses
        result.latency += walk.latency

        if not walk.found:
            fault_latency, handled = self._raise_page_fault(virtual_address)
            result.page_fault = True
            result.fault_latency = fault_latency
            result.latency += fault_latency
            if not handled:
                result.segfault = True
                self.counters.add("segfaults")
                self.translation_latency_stats.add(result.latency)
                return result
            walk = self._walk(virtual_address)
            result.walk_latency += walk.latency
            result.walk_memory_accesses += walk.memory_accesses
            result.latency += walk.latency
            if not walk.found:
                result.segfault = True
                self.counters.add("segfaults")
                self.translation_latency_stats.add(result.latency)
                return result

        self._finish_walk_hit(result, virtual_address, walk.physical_base, walk.page_size,
                              instruction)
        return result

    # ------------------------------------------------------------------ #
    # VPN translation cache maintenance
    # ------------------------------------------------------------------ #
    def _note_l1_data_hit(self, virtual_address: int, lookup: TLBLookupResult) -> None:
        """Memoise an L1 data-TLB hit so repeat accesses take the fast path."""
        if not self.vpn_cache_enabled:
            return
        source = self._vpn_pt_source
        if source is None:
            return
        page_size = lookup.page_size
        if page_size == PAGE_SIZE_4K:
            tlb = self._l1d_4k
            is_2m = False
        elif page_size == PAGE_SIZE_2M:
            tlb = self._l1d_2m
            is_2m = True
        else:
            return

        pt_version = source.version
        tlb_version = self._l1d_4k.version + self._l1d_2m.version
        cache = self._vpn_cache_2m if is_2m else self._vpn_cache
        if pt_version != self._vpn_pt_version or tlb_version != self._vpn_tlb_version:
            self._vpn_cache.clear()
            self._vpn_cache_2m.clear()
            self._vpn_pt_version = pt_version
            self._vpn_tlb_version = tlb_version
        elif len(cache) >= _VPN_CACHE_MAX_ENTRIES:
            cache.clear()

        vpn = virtual_address // page_size
        key = (vpn, page_size)
        entries = tlb._sets[vpn % tlb.num_sets]
        if key not in entries:
            return
        cache[vpn if is_2m else virtual_address >> 12] = \
            (vpn * page_size, lookup.physical_base, page_size, is_2m, entries, key)

    def fast_path_stats(self) -> Dict[str, int]:
        """Diagnostics for the VPN translation cache (not simulated state)."""
        return {
            "enabled": int(self.vpn_cache_enabled),
            "entries": len(self._vpn_cache) + len(self._vpn_cache_2m),
            "fast_hits": self.fast_hits,
            "core_index": self.core_index,
        }

    # ------------------------------------------------------------------ #
    # Walks, fills and faults
    # ------------------------------------------------------------------ #
    def _walk(self, virtual_address: int):
        if self.nested_unit is not None and self.extensions.nested_translation:
            nested = self.nested_unit.walk(virtual_address, self.memory)
            self._c_page_walks[0] += 1
            self._c_ptw_memory_accesses[0] += nested.memory_accesses
            self.ptw_latency_stats.add(nested.latency)
            # Attribute the two dimensions separately (a nested-TLB hit
            # walked neither table, so both shares are zero).
            self.guest_ptw_latency_stats.add(nested.guest_latency)
            self.host_ptw_latency_stats.add(nested.host_latency)
            return _NestedWalkAdapter(nested)
        walk = self.page_table.walk(virtual_address, self.memory)
        self._c_page_walks[0] += 1
        self._c_ptw_memory_accesses[0] += walk.memory_accesses
        self.ptw_latency_stats.add(walk.latency)
        return walk

    def _finish_walk_hit(self, result: TranslationResult, virtual_address: int,
                         physical_base: int, page_size: int, instruction: bool) -> None:
        result.page_size = page_size
        result.physical_address = physical_base + (virtual_address
                                                   - align_down(virtual_address, page_size))
        self._fill_tlbs(virtual_address, physical_base, page_size, instruction)
        self.translation_latency_stats.add(result.latency)

    def _fill_tlbs(self, virtual_address: int, physical_base: int, page_size: int,
                   instruction: bool) -> None:
        if self.victima is not None:
            # Capture the entry that the L2 TLB is about to evict.
            victim = self.tlbs.l2.victim(virtual_address, page_size)
            if victim is not None:
                self.victima.store_victim(*victim)
        self.tlbs.fill(virtual_address, physical_base, page_size, instruction=instruction)
        if self.pom_tlb is not None:
            self.pom_tlb.fill(virtual_address, physical_base, self.memory)
        if self.tlb_prefetcher is not None and self.page_table is not None:
            self.tlb_prefetcher.on_fill(virtual_address, page_size, self.page_table,
                                        self.tlbs, self.memory)

    def _raise_page_fault(self, virtual_address: int) -> Tuple[int, bool]:
        self.counters.add("page_faults")
        if self.fault_callback is None:
            return 0, False
        latency, handled = self.fault_callback(self.pid, virtual_address)
        self.fault_latency_stats.add(latency)
        return latency, handled

    # ------------------------------------------------------------------ #
    # Intermediate-address schemes (Midgard, VBI)
    # ------------------------------------------------------------------ #
    def _access_intermediate_scheme(self, virtual_address: int, is_write: bool,
                                    pc: int) -> MemoryOperationResult:
        page_table = self.page_table
        result = TranslationResult(virtual_address=virtual_address)

        intermediate, frontend_latency, _ = page_table.translate_frontend(virtual_address,
                                                                          self.memory)
        result.frontend_latency += frontend_latency
        result.latency += frontend_latency

        functional = page_table.translate_functional(virtual_address)
        if intermediate is None or functional is None:
            fault_latency, handled = self._raise_page_fault(virtual_address)
            result.page_fault = True
            result.fault_latency = fault_latency
            result.latency += fault_latency
            if not handled:
                result.segfault = True
                return MemoryOperationResult(translation=result, total_latency=result.latency)
            intermediate, frontend_latency, _ = page_table.translate_frontend(virtual_address,
                                                                              self.memory)
            result.frontend_latency += frontend_latency
            result.latency += frontend_latency
            functional = page_table.translate_functional(virtual_address)
            if functional is None:
                result.segfault = True
                return MemoryOperationResult(translation=result, total_latency=result.latency)

        result.physical_address = functional
        self.translation_latency_stats.add(result.latency)

        # The caches are indexed with the intermediate address in Midgard/VBI;
        # using the functional physical address as a proxy preserves hit/miss
        # behaviour because the mapping is one-to-one.
        memory = self.memory
        data_latency = memory.access_value(functional, is_write, "data", pc)
        served_by = memory.last_served_by
        backend_latency = 0
        if served_by == "DRAM" and intermediate is not None:
            _, backend_latency, accesses = page_table.translate_backend(intermediate, self.memory)
            result.backend_latency += backend_latency
            result.walk_memory_accesses += accesses
            self._c_page_walks[0] += 1
            self.ptw_latency_stats.add(backend_latency)
        result.latency += backend_latency

        self.counters.add("data_accesses_intermediate")
        total = result.latency + data_latency
        return MemoryOperationResult(translation=result, data_latency=data_latency,
                                     served_by=served_by, total_latency=total)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def l2_tlb_misses(self) -> int:
        """L2 TLB misses (numerator of the Fig. 10 MPKI metric)."""
        return self.tlbs.l2_misses()

    def average_ptw_latency(self) -> float:
        """Mean page-table-walk latency in cycles (Fig. 3 / Fig. 10 metric)."""
        return self.ptw_latency_stats.mean

    def total_ptw_latency(self) -> float:
        """Total cycles spent walking (Fig. 13 metric)."""
        return self.ptw_latency_stats.total

    def total_translation_latency(self) -> float:
        """Total translation cycles including TLB, walks and faults."""
        return self.translation_latency_stats.total

    def stats(self) -> Dict[str, object]:
        """Counter snapshot plus latency summaries."""
        stats: Dict[str, object] = {
            "counters": self.counters.as_dict(),
            "tlbs": self.tlbs.stats(),
            "avg_ptw_latency": self.average_ptw_latency(),
            "total_ptw_latency": self.total_ptw_latency(),
            "avg_translation_latency": self.translation_latency_stats.mean,
            "page_table": self.page_table.stats() if self.page_table is not None else {},
            "fast_path": self.fast_path_stats(),
        }
        if self.nested_unit is not None:
            # 2-D attribution: which dimension of the nested walk cost what.
            stats["nested"] = {
                "unit": self.nested_unit.stats(),
                "total_guest_ptw_latency": self.guest_ptw_latency_stats.total,
                "total_host_ptw_latency": self.host_ptw_latency_stats.total,
                "avg_guest_ptw_latency": self.guest_ptw_latency_stats.mean,
                "avg_host_ptw_latency": self.host_ptw_latency_stats.mean,
            }
        return stats
