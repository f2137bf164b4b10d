"""The x86-64 4-level radix page table with page-walk caches.

This is the ``Radix`` baseline of the paper's case studies: a 4-level tree
(PGD -> PUD -> PMD -> PTE) of 4 KB nodes with 512 eight-byte entries each,
walked by the hardware page-table walker with the help of three page-walk
caches (PWCs) that cache partial translations for the upper levels.  Huge
pages terminate the walk early: a 2 MB page is a leaf in the PMD level and a
1 GB page a leaf in the PUD level.

Inserting a 4 KB mapping may need up to three new page-table frames (from
the slab allocator) plus the leaf write — the reason the paper's Fig. 15
shows higher minor-fault latency for Radix than for the hash-based designs,
which allocate their tables in bulk up front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.addresses import (
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
    split_vpn_radix,
)
from repro.common.lru import lru_insert, lru_touch
from repro.common.stats import Counter
from repro.memhier.memory_system import MemoryAccessType
from repro.common.kernelops import KernelRoutineTrace
from repro.pagetables.base import MemoryInterface, PageTableBase, TranslationMapping, WalkResult

#: Bytes per page-table entry.
PTE_SIZE = 8
#: Entries per 4 KB page-table node.
ENTRIES_PER_NODE = 512


class PageWalkCache:
    """A small set-associative cache of partial translations for one tree level.

    A hit at coverage level ``skip_levels`` lets the walker skip that many
    upper-level memory accesses.  Keys are the virtual-address bits above the
    level's coverage (e.g. the PMD-level PWC is tagged with ``va >> 21``).
    """

    def __init__(self, name: str, entries: int = 32, associativity: int = 4,
                 latency: int = 2, coverage_shift: int = 21):
        if entries % associativity != 0:
            raise ValueError("PWC entries must be a multiple of associativity")
        self.name = name
        self.latency = latency
        self.coverage_shift = coverage_shift
        self.num_sets = entries // associativity
        self.associativity = associativity
        #: One dict per set in LRU order (see repro.common.lru): tag -> True.
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(self.num_sets)]
        self.counters = Counter()

    def _set_index(self, tag: int) -> int:
        return tag % self.num_sets

    def lookup(self, virtual_address: int) -> bool:
        """True on hit (the walker may skip the covered levels)."""
        tag = virtual_address >> self.coverage_shift
        if lru_touch(self._sets[self._set_index(tag)], tag):
            self.counters.add("hits")
            return True
        self.counters.add("misses")
        return False

    def fill(self, virtual_address: int) -> None:
        """Insert the partial translation for ``virtual_address``."""
        tag = virtual_address >> self.coverage_shift
        lru_insert(self._sets[self._set_index(tag)], tag, True, self.associativity)

    def invalidate(self, virtual_address: int) -> None:
        """Drop the entry covering ``virtual_address`` if present."""
        tag = virtual_address >> self.coverage_shift
        self._sets[self._set_index(tag)].pop(tag, None)

    def hit_rate(self) -> float:
        """Hit fraction over all lookups."""
        hits = self.counters.get("hits")
        total = hits + self.counters.get("misses")
        return hits / total if total else 0.0


@dataclass
class _RadixNode:
    """One 4 KB node of the radix tree."""

    physical_base: int
    #: index -> child node (interior) — leaves live in ``leaf_entries``.
    children: Dict[int, "_RadixNode"] = field(default_factory=dict)
    #: index -> (physical base, page size) for leaf entries at this level.
    leaf_entries: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    def entry_address(self, index: int) -> int:
        """Physical address of entry ``index`` in this node."""
        return self.physical_base + index * PTE_SIZE


class RadixPageTable(PageTableBase):
    """x86-64 4-level radix page table with three page-walk caches."""

    kind = "radix"

    #: Leaf level per page size: number of indices consumed before the leaf entry.
    _LEAF_DEPTH = {PAGE_SIZE_1G: 2, PAGE_SIZE_2M: 3, PAGE_SIZE_4K: 4}

    def __init__(self, frame_allocator: Optional[Callable[..., int]] = None,
                 pwc_entries: int = 32, pwc_associativity: int = 4, pwc_latency: int = 2,
                 enable_pwcs: bool = True):
        super().__init__(frame_allocator)
        self._root = _RadixNode(physical_base=self.frame_allocator(None))
        self.enable_pwcs = enable_pwcs
        # Three PWCs as in Table 4: covering PMD (skip 3), PUD (skip 2), PGD (skip 1).
        self.pwc_pmd = PageWalkCache("PWC-PMD", pwc_entries, pwc_associativity,
                                     pwc_latency, coverage_shift=21)
        self.pwc_pud = PageWalkCache("PWC-PUD", pwc_entries, pwc_associativity,
                                     pwc_latency, coverage_shift=30)
        self.pwc_pgd = PageWalkCache("PWC-PGD", pwc_entries, pwc_associativity,
                                     pwc_latency, coverage_shift=39)
        #: Number of page-table frames allocated (root excluded).
        self.allocated_frames = 0

    # ------------------------------------------------------------------ #
    # Software updates
    # ------------------------------------------------------------------ #
    def _insert_structure(self, virtual_base: int, physical_base: int, page_size: int,
                          trace: Optional[KernelRoutineTrace]) -> None:
        indices = split_vpn_radix(virtual_base)
        leaf_depth = self._LEAF_DEPTH[page_size]
        op = trace.new_op("radix_pt_update", work_units=leaf_depth) if trace is not None else None

        node = self._root
        for depth in range(leaf_depth - 1):
            index = indices[depth]
            child = node.children.get(index)
            if child is None:
                frame = self.frame_allocator(trace)
                child = _RadixNode(physical_base=frame)
                node.children[index] = child
                self.allocated_frames += 1
                self.counters.add("pt_frames_allocated")
                if op is not None:
                    op.work_units += 4
                    op.touch(node.entry_address(index), is_write=True)
            elif op is not None:
                op.touch(node.entry_address(index), is_write=False)
            node = child

        leaf_index = indices[leaf_depth - 1]
        node.leaf_entries[leaf_index] = (physical_base, page_size)
        if op is not None:
            op.touch(node.entry_address(leaf_index), is_write=True)

    def _remove_structure(self, mapping: TranslationMapping,
                          trace: Optional[KernelRoutineTrace]) -> None:
        indices = split_vpn_radix(mapping.virtual_base)
        leaf_depth = self._LEAF_DEPTH[mapping.page_size]
        node = self._root
        for depth in range(leaf_depth - 1):
            child = node.children.get(indices[depth])
            if child is None:
                return
            node = child
        node.leaf_entries.pop(indices[leaf_depth - 1], None)
        for pwc in (self.pwc_pmd, self.pwc_pud, self.pwc_pgd):
            pwc.invalidate(mapping.virtual_base)
        if trace is not None:
            op = trace.new_op("radix_pt_remove", work_units=leaf_depth)
            op.touch(node.entry_address(indices[leaf_depth - 1]), is_write=True)

    # ------------------------------------------------------------------ #
    # Hardware walk
    # ------------------------------------------------------------------ #
    def walk(self, virtual_address: int, memory: MemoryInterface) -> WalkResult:
        """Walk the tree, consulting the PWCs to skip upper levels."""
        indices = split_vpn_radix(virtual_address)
        self.counters.add("walks")

        latency = 0
        start_depth = 0
        if self.enable_pwcs:
            if self.pwc_pmd.lookup(virtual_address):
                start_depth, latency = 3, self.pwc_pmd.latency
            elif self.pwc_pud.lookup(virtual_address):
                start_depth, latency = 2, self.pwc_pud.latency
            elif self.pwc_pgd.lookup(virtual_address):
                start_depth, latency = 1, self.pwc_pgd.latency
            else:
                latency = self.pwc_pmd.latency  # all PWCs probed in parallel

        # Re-descend functionally to the node where the walk resumes.
        node = self._root
        valid_depth = 0
        for depth in range(start_depth):
            child = node.children.get(indices[depth])
            if child is None:
                break
            node = child
            valid_depth += 1
        start_depth = valid_depth

        accesses = 0
        depth = start_depth
        while depth < 4:
            index = indices[depth]
            latency += memory.access_address(node.entry_address(index), False,
                                             MemoryAccessType.PTW)
            accesses += 1
            leaf = node.leaf_entries.get(index)
            if leaf is not None:
                physical_base, page_size = leaf
                self._fill_pwcs(virtual_address, depth + 1)
                self.counters.add("walk_hits")
                self.counters.add("walk_memory_accesses", accesses)
                return WalkResult(found=True, latency=latency, memory_accesses=accesses,
                                  physical_base=physical_base, page_size=page_size,
                                  backend_latency=latency)
            child = node.children.get(index)
            if child is None:
                self.counters.add("walk_faults")
                self.counters.add("walk_memory_accesses", accesses)
                return WalkResult(found=False, latency=latency, memory_accesses=accesses,
                                  backend_latency=latency)
            node = child
            depth += 1

        # Descended through all four levels without finding a leaf: fault.
        self.counters.add("walk_faults")
        self.counters.add("walk_memory_accesses", accesses)
        return WalkResult(found=False, latency=latency, memory_accesses=accesses,
                          backend_latency=latency)

    def _fill_pwcs(self, virtual_address: int, resolved_depth: int) -> None:
        if not self.enable_pwcs:
            return
        if resolved_depth >= 2:
            self.pwc_pgd.fill(virtual_address)
        if resolved_depth >= 3:
            self.pwc_pud.fill(virtual_address)
        if resolved_depth >= 4:
            self.pwc_pmd.fill(virtual_address)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def page_table_frames(self) -> int:
        """Number of interior/leaf page-table frames allocated (root excluded)."""
        return self.allocated_frames

    def pwc_stats(self) -> Dict[str, float]:
        """Hit rates of the three page-walk caches."""
        return {
            "pwc_pmd_hit_rate": self.pwc_pmd.hit_rate(),
            "pwc_pud_hit_rate": self.pwc_pud.hit_rate(),
            "pwc_pgd_hit_rate": self.pwc_pgd.hit_rate(),
        }
