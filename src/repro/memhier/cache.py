"""Set-associative cache model with LRU and SRRIP replacement.

The cache is a tag store only: the simulator never stores data values, it
only needs hit/miss behaviour and latency.  Each cache level tracks hits,
misses, evictions and fills per request type (application data, page-table
walk, kernel/MimicOS data), which the experiments use to quantify the cache
pollution caused by OS routines and page-table accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.config import CacheConfig
from repro.common.stats import Counter


@dataclass(slots=True)
class CacheAccessResult:
    """Outcome of a single cache lookup."""

    hit: bool
    latency: int
    evicted_tag: Optional[int] = None
    evicted_dirty: bool = False


class _CacheLine:
    """One cache line's bookkeeping (tag, dirty bit, replacement state)."""

    __slots__ = ("tag", "valid", "dirty", "lru_stamp", "rrpv", "request_type")

    def __init__(self) -> None:
        self.tag = 0
        self.valid = False
        self.dirty = False
        self.lru_stamp = 0
        self.rrpv = 3
        self.request_type = "data"


class Cache:
    """A single set-associative cache level.

    Parameters come from :class:`repro.common.config.CacheConfig`.  The
    replacement policy is either true LRU or SRRIP (re-reference interval
    prediction, the paper's L2/L3 policy).
    """

    SRRIP_MAX_RRPV = 3
    SRRIP_INSERT_RRPV = 2

    def __init__(self, config: CacheConfig):
        self.config = config
        self.name = config.name
        self.latency = config.latency
        self.line_size = config.line_size
        self.num_sets = config.sets
        self.associativity = config.associativity
        self.replacement = config.replacement
        self._sets: List[List[_CacheLine]] = [
            [_CacheLine() for _ in range(self.associativity)] for _ in range(self.num_sets)
        ]
        #: Per-set tag -> line index of the *valid* lines, kept in lockstep
        #: with ``_sets`` so the hit path is a dict probe instead of an
        #: associativity-wide scan (16-way at L2/L3).  Replacement decisions
        #: still walk the ordered line list, so hit/miss/eviction statistics
        #: are unchanged.
        self._tag_maps: List[Dict[int, _CacheLine]] = [
            {} for _ in range(self.num_sets)
        ]
        self._access_clock = 0
        self.counters = Counter()
        #: request_type -> (accesses, hits, misses) hot counter cells;
        #: populated lazily so only the request classes that actually reach
        #: this level pay for cells (and no per-access f-string formatting).
        self._type_cells: Dict[str, Tuple[List[int], List[int], List[int]]] = {}
        self._fill_cells: Dict[str, List[int]] = {}
        self._pollution_cells: Dict[str, List[int]] = {}
        self._c_evictions = self.counters.hot("evictions")
        #: Identity of the line displaced by the most recent miss-fill.
        self.last_evicted_tag: Optional[int] = None
        self.last_evicted_dirty = False

    # ------------------------------------------------------------------ #
    # Address helpers
    # ------------------------------------------------------------------ #
    def _index_and_tag(self, address: int) -> Tuple[int, int]:
        block = address // self.line_size
        return block % self.num_sets, block // self.num_sets

    def _cells_for(self, request_type: str) -> Tuple[List[int], List[int], List[int]]:
        cells = (self.counters.hot("accesses_" + request_type),
                 self.counters.hot("hits_" + request_type),
                 self.counters.hot("misses_" + request_type))
        self._type_cells[request_type] = cells
        return cells

    # ------------------------------------------------------------------ #
    # Main access path
    # ------------------------------------------------------------------ #
    def access_bool(self, address: int, is_write: bool = False,
                    request_type: str = "data") -> bool:
        """Allocation-free access: True on a hit, False on a miss-and-fill.

        The access latency is always ``self.latency`` for this level; the
        memory hierarchy adds the next level's latency on a miss.
        """
        self._access_clock += 1
        block = address // self.line_size
        set_index = block % self.num_sets
        tag = block // self.num_sets

        cells = self._type_cells.get(request_type)
        if cells is None:
            cells = self._cells_for(request_type)
        cells[0][0] += 1
        line = self._tag_maps[set_index].get(tag)
        if line is not None:
            cells[1][0] += 1
            line.lru_stamp = self._access_clock
            line.rrpv = 0
            if is_write:
                line.dirty = True
            return True

        cells[2][0] += 1
        self._fill(set_index, tag, is_write, request_type)
        return False

    def access(self, address: int, is_write: bool = False,
               request_type: str = "data") -> CacheAccessResult:
        """Look up ``address``; on a miss the line is filled (allocate-on-miss).

        Object-returning wrapper around :meth:`access_bool` kept for callers
        that need the evicted line's identity (write-back modelling, tests).
        """
        if self.access_bool(address, is_write, request_type):
            return CacheAccessResult(hit=True, latency=self.latency)
        return CacheAccessResult(hit=False, latency=self.latency,
                                 evicted_tag=self.last_evicted_tag,
                                 evicted_dirty=self.last_evicted_dirty)

    def probe(self, address: int) -> bool:
        """Return True if ``address`` is present without disturbing state."""
        set_index, tag = self._index_and_tag(address)
        return tag in self._tag_maps[set_index]

    def fill(self, address: int, request_type: str = "prefetch") -> None:
        """Insert a line without counting it as a demand access (prefetch fill)."""
        set_index, tag = self._index_and_tag(address)
        if tag in self._tag_maps[set_index]:
            return
        cell = self._fill_cells.get(request_type)
        if cell is None:
            cell = self._fill_cells[request_type] = \
                self.counters.hot("fills_" + request_type)
        cell[0] += 1
        self._fill(set_index, tag, is_write=False, request_type=request_type)

    def invalidate(self, address: int) -> bool:
        """Invalidate the line holding ``address``; returns True if it was present."""
        set_index, tag = self._index_and_tag(address)
        line = self._tag_maps[set_index].pop(tag, None)
        if line is not None:
            line.valid = False
            self.counters.add("invalidations")
            return True
        return False

    def flush(self) -> None:
        """Invalidate every line (used between simulation regions)."""
        for lines in self._sets:
            for line in lines:
                line.valid = False
                line.dirty = False
        for tag_map in self._tag_maps:
            tag_map.clear()

    # ------------------------------------------------------------------ #
    # Replacement
    # ------------------------------------------------------------------ #
    def _fill(self, set_index: int, tag: int, is_write: bool,
              request_type: str) -> None:
        lines = self._sets[set_index]
        tag_map = self._tag_maps[set_index]
        victim = self._choose_victim(lines)
        evicted_tag: Optional[int] = None
        evicted_dirty = False
        if victim.valid:
            del tag_map[victim.tag]
            evicted_tag = victim.tag * self.num_sets + set_index
            evicted_dirty = victim.dirty
            self._c_evictions[0] += 1
            if victim.request_type != request_type:
                # A fill from one request class displaced another class's data:
                # this is the cache-pollution effect the paper highlights.
                cell = self._pollution_cells.get(request_type)
                if cell is None:
                    cell = self._pollution_cells[request_type] = \
                        self.counters.hot("pollution_evictions_by_" + request_type)
                cell[0] += 1
        victim.tag = tag
        victim.valid = True
        victim.dirty = is_write
        victim.lru_stamp = self._access_clock
        victim.rrpv = self.SRRIP_INSERT_RRPV
        victim.request_type = request_type
        tag_map[tag] = victim
        self.last_evicted_tag = evicted_tag
        self.last_evicted_dirty = evicted_dirty

    def _choose_victim(self, lines: List[_CacheLine]) -> _CacheLine:
        for line in lines:
            if not line.valid:
                return line
        if self.replacement == "lru":
            # First line with the minimum stamp (same tie-break as min()).
            # Stamps can tie here, so this cache cannot use the recency-
            # ordered dicts of repro.common.lru like the TLB-like structures
            # do: a prefetch fill() does not advance _access_clock and shares
            # its stamp with the same cycle's demand line, and the tie goes
            # to the lower way, not to the older use.
            victim = lines[0]
            best = victim.lru_stamp
            for line in lines:
                stamp = line.lru_stamp
                if stamp < best:
                    best = stamp
                    victim = line
            return victim
        # SRRIP: evict a line with the maximum re-reference interval,
        # aging all lines until one is found.
        while True:
            for line in lines:
                if line.rrpv >= self.SRRIP_MAX_RRPV:
                    return line
            for line in lines:
                line.rrpv += 1

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def hits(self, request_type: Optional[str] = None) -> int:
        """Total hits, optionally restricted to one request class."""
        return self._sum_counter("hits", request_type)

    def misses(self, request_type: Optional[str] = None) -> int:
        """Total misses, optionally restricted to one request class."""
        return self._sum_counter("misses", request_type)

    def accesses(self, request_type: Optional[str] = None) -> int:
        """Total demand accesses, optionally restricted to one request class."""
        return self._sum_counter("accesses", request_type)

    def miss_rate(self) -> float:
        """Demand miss rate across all request classes."""
        total = self.accesses()
        if total == 0:
            return 0.0
        return self.misses() / total

    def _sum_counter(self, prefix: str, request_type: Optional[str]) -> int:
        counts = self.counters.as_dict()
        if request_type is not None:
            return counts.get(f"{prefix}_{request_type}", 0)
        return sum(v for k, v in counts.items() if k.startswith(prefix + "_"))

    def stats(self) -> Dict[str, int]:
        """Raw counter snapshot."""
        return self.counters.as_dict()

    def __repr__(self) -> str:
        return (f"Cache({self.name}, {self.config.size_bytes // 1024}KB, "
                f"{self.associativity}-way, {self.replacement})")
