"""Nested (two-dimensional) address translation for virtualised execution.

With hardware-assisted virtualisation, a guest virtual address is translated
by the guest page table into a guest-physical address, and every guest
page-table pointer (and the final guest-physical address) must itself be
translated by the host (extended/nested) page table.  A full 2-D walk of two
4-level radix tables costs up to 24 memory accesses; nested TLBs that cache
guest-virtual -> host-physical translations make most accesses cheap.

Virtuoso supports this by spawning two MimicOS instances — one for the guest
OS and one acting as the hypervisor — and coupling their page tables through
this unit (see :mod:`repro.mimicos.hypervisor`).

Invalidation
------------

A cached guest-virtual -> host-physical entry goes stale through *either*
dimension:

* guest-side remaps (guest khugepaged collapse, guest reclaim, munmap)
  change the guest-virtual -> guest-physical mapping — the engine's
  :meth:`~repro.mmu.mmu.MMU.invalidate_translation` forwards the guest
  kernel's TLB shootdown to :meth:`NestedTranslationUnit.invalidate`;
* host-side remaps (hypervisor swap-out of guest-RAM backing, restrictive-
  mapping evictions, host khugepaged collapse) change the guest-physical ->
  host-physical mapping without naming any guest-virtual address — those
  broadcast :meth:`NestedTranslationUnit.flush`, the INVEPT-style
  version-based whole-unit invalidation (real hardware likewise flushes all
  combined mappings on an EPT modification).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.addresses import PAGE_SIZE_4K
from repro.common.lru import lru_insert, lru_touch
from repro.common.stats import Counter
from repro.pagetables.base import MemoryInterface, PageTableBase, WalkResult


@dataclass
class NestedWalkResult:
    """Outcome of a two-dimensional walk."""

    found: bool
    latency: int
    memory_accesses: int
    host_physical_base: int = 0
    page_size: int = PAGE_SIZE_4K
    guest_fault: bool = False
    host_fault: bool = False
    #: The guest-dimension share of ``latency`` (the guest page-table walk).
    guest_latency: int = 0
    #: The host-dimension share of ``latency`` (the repeated host walks).
    host_latency: int = 0


class _NestedTLB:
    """A small cache of guest-virtual -> host-physical translations."""

    def __init__(self, entries: int = 64, latency: int = 2):
        self.entries = entries
        self.latency = latency
        #: Faulting 4 KB guest VPN -> (host physical base, page size), in
        #: LRU order (see repro.common.lru).
        self._store: Dict[int, Tuple[int, int]] = {}
        #: Bumped whenever the cached contents change (fill, invalidate,
        #: flush), mirroring :class:`repro.mmu.tlb.TLB.version`.
        self.version = 0

    def __len__(self) -> int:
        return len(self._store)

    def lookup(self, guest_virtual: int) -> Optional[Tuple[int, int]]:
        return lru_touch(self._store, guest_virtual // PAGE_SIZE_4K)

    def fill(self, guest_virtual: int, host_physical: int, page_size: int) -> None:
        self.version += 1
        lru_insert(self._store, guest_virtual // PAGE_SIZE_4K, (host_physical, page_size),
                   self.entries)

    def invalidate(self, guest_virtual: int) -> bool:
        """Drop every entry whose combined page covers ``guest_virtual``.

        Entries are keyed by the *faulting* 4 KB VPN, so one combined 2 MB
        translation can occupy many slots — one per subpage that walked.  A
        shootdown for any address inside the page must kill them all: a
        guest that reclaims a huge page invalidates its base address once,
        and leaving the sibling-keyed copies alive would keep serving the
        dead translation (the scenario fuzzer caught exactly that).
        """
        victims = [vpn for vpn, (_host, page_size) in self._store.items()
                   if (vpn * PAGE_SIZE_4K) // page_size * page_size
                   <= guest_virtual < (vpn * PAGE_SIZE_4K) // page_size * page_size + page_size]
        if not victims:
            return False
        for vpn in victims:
            del self._store[vpn]
        self.version += 1
        return True

    def flush(self) -> bool:
        """Drop every entry (the INVEPT analogue); True if any existed."""
        if not self._store:
            return False
        self._store.clear()
        self.version += 1
        return True


class NestedTranslationUnit:
    """Performs guest + host (2-D) walks with a nested TLB in front."""

    def __init__(self, guest_page_table: PageTableBase, host_page_table: PageTableBase,
                 nested_tlb_entries: int = 64):
        self.guest_page_table = guest_page_table
        self.host_page_table = host_page_table
        self.nested_tlb = _NestedTLB(nested_tlb_entries)
        self.counters = Counter()

    def walk(self, guest_virtual: int, memory: MemoryInterface) -> NestedWalkResult:
        """Translate a guest virtual address all the way to a host physical one."""
        self.counters.add("nested_walks")

        cached = self.nested_tlb.lookup(guest_virtual)
        if cached is not None:
            host_physical, page_size = cached
            self.counters.add("nested_tlb_hits")
            return NestedWalkResult(found=True, latency=self.nested_tlb.latency,
                                    memory_accesses=0, host_physical_base=host_physical,
                                    page_size=page_size)

        # Dimension 1: the guest walk.  Every guest page-table access would in
        # reality also be translated by the host table; we charge one host
        # walk per guest level by scaling the host walk performed at the end,
        # which keeps the 2-D cost profile (O(n*m) accesses) without walking
        # the host table n times functionally.
        guest_result = self.guest_page_table.walk(guest_virtual, memory)
        guest_latency = guest_result.latency
        latency = guest_latency
        accesses = guest_result.memory_accesses
        if not guest_result.found:
            self.counters.add("guest_faults")
            return NestedWalkResult(found=False, latency=latency, memory_accesses=accesses,
                                    guest_fault=True, guest_latency=guest_latency)

        guest_physical = guest_result.physical_base + (guest_virtual % guest_result.page_size)

        # Dimension 2: the host walk for the guest-physical address, repeated
        # once per guest level touched (the 2-D blow-up).
        host_latency = 0
        host_accesses = 0
        host_result: Optional[WalkResult] = None
        repetitions = max(1, guest_result.memory_accesses)
        for _ in range(repetitions):
            host_result = self.host_page_table.walk(guest_physical, memory)
            host_latency += host_result.latency
            host_accesses += host_result.memory_accesses
            if not host_result.found:
                break

        latency += host_latency
        accesses += host_accesses
        if host_result is None or not host_result.found:
            self.counters.add("host_faults")
            return NestedWalkResult(found=False, latency=latency, memory_accesses=accesses,
                                    host_fault=True, guest_latency=guest_latency,
                                    host_latency=host_latency)

        host_physical = (host_result.physical_base
                         + (guest_physical % host_result.page_size))
        page_size = min(guest_result.page_size, host_result.page_size)
        self.nested_tlb.fill(guest_virtual, host_physical - (guest_virtual % page_size),
                             page_size)
        self.counters.add("nested_walk_hits")
        return NestedWalkResult(found=True, latency=latency, memory_accesses=accesses,
                                host_physical_base=host_physical - (guest_virtual % page_size),
                                page_size=page_size, guest_latency=guest_latency,
                                host_latency=host_latency)

    # ------------------------------------------------------------------ #
    # Invalidation (see the module docstring for who calls what)
    # ------------------------------------------------------------------ #
    def invalidate(self, guest_virtual: int) -> None:
        """Guest-side shootdown: drop the cached entry for ``guest_virtual``."""
        if self.nested_tlb.invalidate(guest_virtual):
            self.counters.add("nested_tlb_invalidations")

    def flush(self) -> None:
        """Host-side (EPT) remap: drop every cached combined translation."""
        if self.nested_tlb.flush():
            self.counters.add("nested_tlb_flushes")

    def stats(self) -> Dict[str, int]:
        """Raw counter snapshot."""
        return self.counters.as_dict()
