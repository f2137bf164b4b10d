"""The LRU primitive, and every structure built on it, keep the old stamp rule.

Before :mod:`repro.common.lru`, each TLB-like structure stamped
its entries with a private clock and evicted ``min(stamp)``.  The frozen
copies below are those implementations, trimmed to their replacement
logic.  Random operation streams drive each old copy and its replacement
side by side and demand the same hits, misses and evicted keys.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from repro.common.addresses import PAGE_SIZE_1G, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.common.config import CacheConfig, TLBConfig
from repro.common.lru import lru_insert, lru_touch, lru_victim
from repro.memhier.cache import Cache
from repro.mmu.nested import _NestedTLB
from repro.mmu.tlb import TLB
from repro.pagetables.midgard import _VMALookasideBuffer, _VMARange
from repro.pagetables.radix import PageWalkCache
from repro.pagetables.rmm import RangeLookasideBuffer, VirtualRange
from repro.pagetables.utopia import _SmallCache

STREAM = settings(max_examples=100, deadline=None)


# --------------------------------------------------------------------- #
# Reference model: per-entry stamps, victim = min stamp
# --------------------------------------------------------------------- #
class StampLRU:
    """Every use stamps the entry with a fresh clock; evict the minimum stamp."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.values: Dict[int, int] = {}
        self.stamps: Dict[int, int] = {}
        self.clock = 0

    def touch(self, key):
        self.clock += 1
        if key not in self.values:
            return None
        self.stamps[key] = self.clock
        return self.values[key]

    def victim(self, key):
        if key in self.values or len(self.values) < self.capacity:
            return None
        return min(self.stamps, key=self.stamps.get)

    def insert(self, key, value):
        evicted = self.victim(key)
        if evicted is not None:
            del self.values[evicted], self.stamps[evicted]
        self.clock += 1
        self.values[key] = value
        self.stamps[key] = self.clock
        return evicted

    def discard(self, key):
        self.values.pop(key, None)
        self.stamps.pop(key, None)

    def clear(self):
        self.values.clear()
        self.stamps.clear()


_LRU_OPS = st.lists(st.tuples(st.sampled_from(["touch", "insert", "victim", "discard", "clear"]),
                              st.integers(0, 9), st.integers(1, 1000)), min_size=10, max_size=200)


@given(st.integers(1, 6), _LRU_OPS)
@STREAM
def test_lru_primitive_matches_stamp_and_min(capacity, ops):
    lru, model = {}, StampLRU(capacity)
    for op, key, value in ops:
        if op == "touch":
            assert lru_touch(lru, key) == model.touch(key)
        elif op == "insert":
            assert lru_insert(lru, key, value, capacity) == model.insert(key, value)
        elif op == "victim":
            assert lru_victim(lru, key, capacity) == model.victim(key)
        elif op == "discard":
            lru.pop(key, None)
            model.discard(key)
        else:
            lru.clear()
            model.clear()
        assert lru == model.values
        # Recency order is stamp order: the first key is the minimum stamp.
        assert list(lru) == sorted(model.stamps, key=model.stamps.get)
        assert len(lru) <= capacity


# --------------------------------------------------------------------- #
# Frozen copies of the stamp-based structures
# --------------------------------------------------------------------- #
class OldTLB:
    def __init__(self, num_sets: int, associativity: int, page_sizes: Tuple[int, ...]):
        self.num_sets = num_sets
        self.associativity = associativity
        self.page_sizes = page_sizes
        self._sets: List[Dict[Tuple[int, int], Tuple[int, int, int]]] = \
            [dict() for _ in range(num_sets)]
        self._clock = 0
        self.evictions = 0

    def lookup(self, virtual_address):
        self._clock += 1
        for page_size in self.page_sizes:
            vpn = virtual_address // page_size
            entries = self._sets[vpn % self.num_sets]
            key = (vpn, page_size)
            entry = entries.get(key)
            if entry is not None:
                physical_base, size, _ = entry
                entries[key] = (physical_base, size, self._clock)
                return physical_base, size
        return None

    def fill(self, virtual_address, physical_base, page_size):
        """Returns the evicted (virtual base, physical base, page size) or None."""
        if page_size not in self.page_sizes:
            return None
        self._clock += 1
        vpn = virtual_address // page_size
        entries = self._sets[vpn % self.num_sets]
        key = (vpn, page_size)
        evicted = None
        if key not in entries and len(entries) >= self.associativity:
            victim = min(entries, key=lambda k: entries[k][2])
            victim_base, victim_size, _ = entries.pop(victim)
            evicted = (victim[0] * victim_size, victim_base, victim_size)
            self.evictions += 1
        entries[key] = (physical_base, page_size, self._clock)
        return evicted

    def invalidate(self, virtual_address):
        for page_size in self.page_sizes:
            vpn = virtual_address // page_size
            self._sets[vpn % self.num_sets].pop((vpn, page_size), None)

    def flush(self):
        for entries in self._sets:
            entries.clear()


class OldPWC:
    def __init__(self, entries: int, associativity: int, coverage_shift: int):
        self.coverage_shift = coverage_shift
        self.num_sets = entries // associativity
        self.associativity = associativity
        self._sets: List[Dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._clock = 0

    def lookup(self, virtual_address):
        tag = virtual_address >> self.coverage_shift
        entries = self._sets[tag % self.num_sets]
        self._clock += 1
        if tag in entries:
            entries[tag] = self._clock
            return True
        return False

    def fill(self, virtual_address):
        tag = virtual_address >> self.coverage_shift
        entries = self._sets[tag % self.num_sets]
        self._clock += 1
        if tag in entries:
            entries[tag] = self._clock
            return
        if len(entries) >= self.associativity:
            del entries[min(entries, key=entries.get)]
        entries[tag] = self._clock

    def invalidate(self, virtual_address):
        tag = virtual_address >> self.coverage_shift
        self._sets[tag % self.num_sets].pop(tag, None)


class OldSmallCache:
    def __init__(self, entries: int):
        self.entries = entries
        self._store: Dict[int, int] = {}
        self._clock = 0
        self.hits = 0
        self.misses = 0

    def lookup(self, key):
        self._clock += 1
        if key in self._store:
            self._store[key] = self._clock
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, key):
        self._clock += 1
        if key in self._store:
            self._store[key] = self._clock
            return
        if len(self._store) >= self.entries:
            del self._store[min(self._store, key=self._store.get)]
        self._store[key] = self._clock


class OldRangeBuffer:
    """The RLB and both VLBs (the VLBs lack ``invalidate``)."""

    def __init__(self, entries: int):
        self.entries = entries
        self._ranges: Dict[int, object] = {}
        self._lru: Dict[int, int] = {}
        self._clock = 0

    def lookup(self, virtual_address):
        self._clock += 1
        for key, candidate in self._ranges.items():
            if candidate.contains(virtual_address):
                self._lru[key] = self._clock
                return candidate
        return None

    def fill(self, entry):
        self._clock += 1
        key = entry.virtual_start
        if key not in self._ranges and len(self._ranges) >= self.entries:
            victim = min(self._lru, key=self._lru.get)
            self._ranges.pop(victim, None)
            self._lru.pop(victim, None)
        self._ranges[key] = entry
        self._lru[key] = self._clock

    def invalidate(self, virtual_start):
        if self._ranges.pop(virtual_start, None) is not None:
            self._lru.pop(virtual_start, None)


class OldNestedTLB:
    def __init__(self, entries: int):
        self.entries = entries
        self._store: Dict[int, Tuple[int, int]] = {}
        self._lru: Dict[int, int] = {}
        self._clock = 0

    def lookup(self, guest_virtual):
        self._clock += 1
        vpn = guest_virtual // PAGE_SIZE_4K
        entry = self._store.get(vpn)
        if entry is not None:
            self._lru[vpn] = self._clock
        return entry

    def fill(self, guest_virtual, host_physical, page_size):
        self._clock += 1
        vpn = guest_virtual // PAGE_SIZE_4K
        if vpn not in self._store and len(self._store) >= self.entries:
            victim = min(self._lru, key=self._lru.get)
            self._store.pop(victim, None)
            self._lru.pop(victim, None)
        self._store[vpn] = (host_physical, page_size)
        self._lru[vpn] = self._clock

    def invalidate(self, guest_virtual):
        victims = [vpn for vpn, (_host, page_size) in self._store.items()
                   if (vpn * PAGE_SIZE_4K) // page_size * page_size
                   <= guest_virtual < (vpn * PAGE_SIZE_4K) // page_size * page_size + page_size]
        for vpn in victims:
            del self._store[vpn]
            self._lru.pop(vpn, None)
        return bool(victims)

    def flush(self):
        had = bool(self._store)
        self._store.clear()
        self._lru.clear()
        return had


# --------------------------------------------------------------------- #
# Differential streams: old vs new, op by op
# --------------------------------------------------------------------- #
#: Addresses from two 2 MB pages x four 4 KB pages: few enough that hits,
#: refreshes and evictions all happen often in small structures.
_ADDRESSES = st.builds(lambda huge, small: huge * PAGE_SIZE_2M + small * PAGE_SIZE_4K,
                       st.integers(0, 1), st.integers(0, 3))


#: Lookups and fills dominate; shootdowns and flushes are occasional.
_TLB_OPS = st.sampled_from(["lookup"] * 4 + ["fill"] * 4 + ["invalidate", "flush"])


def _resident(sets) -> set:
    return {key for entries in sets for key in entries}


@given(st.lists(st.tuples(_TLB_OPS,
                          _ADDRESSES,
                          st.sampled_from([PAGE_SIZE_4K, PAGE_SIZE_2M, PAGE_SIZE_1G])),
                min_size=10, max_size=150))
@STREAM
def test_tlb_matches_stamp_implementation(ops):
    sizes = (PAGE_SIZE_4K, PAGE_SIZE_2M)
    new = TLB(TLBConfig("T", entries=4, associativity=2, latency=1, page_sizes=sizes))
    old = OldTLB(num_sets=2, associativity=2, page_sizes=sizes)
    for op, address, page_size in ops:
        if op == "lookup":
            assert new.lookup(address) == old.lookup(address)
        elif op == "fill":
            physical_base = (1 << 40) + address // page_size * page_size
            # The Victima capture asks for the victim before the fill.
            predicted = new.victim(address, page_size)
            assert predicted == old.fill(address, physical_base, page_size)
            new.fill(address, physical_base, page_size)
        elif op == "invalidate":
            new.invalidate(address)
            old.invalidate(address)
        else:
            new.flush()
            old.flush()
        assert _resident(new._sets) == _resident(old._sets)
    assert new.counters.get("evictions") == old.evictions


@given(st.lists(st.tuples(st.sampled_from(["lookup", "fill", "invalidate"]),
                          st.integers(0, 7)), min_size=10, max_size=150))
@STREAM
def test_page_walk_cache_matches_stamp_implementation(ops):
    new = PageWalkCache("PWC", entries=4, associativity=2, coverage_shift=21)
    old = OldPWC(entries=4, associativity=2, coverage_shift=21)
    for op, index in ops:
        address = index << 21
        if op == "lookup":
            assert new.lookup(address) == old.lookup(address)
        elif op == "fill":
            new.fill(address)
            old.fill(address)
        else:
            new.invalidate(address)
            old.invalidate(address)
        assert _resident(new._sets) == _resident(old._sets)


@given(st.lists(st.tuples(st.integers(0, 9), st.booleans()), min_size=10, max_size=150))
@STREAM
def test_sf_and_tar_caches_match_stamp_implementation(ops):
    """``access`` replaces both old call patterns: SF's lookup-then-fill and
    TAR's lookup-then-fill-on-miss."""
    new = _SmallCache(entries=4, latency=2)
    old = OldSmallCache(entries=4)
    for key, tar_pattern in ops:
        hit = old.lookup(key)
        if not (tar_pattern and hit):
            old.fill(key)
        assert new.access(key) == hit
        assert set(new._store) == set(old._store)
    assert (new.hits, new.misses) == (old.hits, old.misses)


_RANGE_OPS = st.lists(st.tuples(st.sampled_from(["lookup", "fill", "invalidate"]),
                                st.integers(0, 7), st.integers(1, 3)), min_size=10, max_size=150)


def _drive_range_buffer(new, old, make_range, ops, invalidate: bool) -> None:
    for op, start, pages in ops:
        if op == "lookup":
            got, want = new.lookup(start * PAGE_SIZE_4K), old.lookup(start * PAGE_SIZE_4K)
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.virtual_start, got.virtual_end) == \
                    (want.virtual_start, want.virtual_end)
        elif op == "fill":
            entry = make_range(start * PAGE_SIZE_4K, (start + pages) * PAGE_SIZE_4K)
            new.fill(entry)
            old.fill(entry)
        elif invalidate:
            new.invalidate(start * PAGE_SIZE_4K)
            old.invalidate(start * PAGE_SIZE_4K)
        # Lookup order (the first covering range wins) is insertion order.
        assert list(new._ranges) == list(old._ranges)
        assert set(new._lru) == set(old._lru)


@given(_RANGE_OPS)
@STREAM
def test_range_lookaside_buffer_matches_stamp_implementation(ops):
    _drive_range_buffer(RangeLookasideBuffer(entries=3), OldRangeBuffer(entries=3),
                        lambda lo, hi: VirtualRange(lo, hi, lo + (1 << 40)), ops,
                        invalidate=True)


@given(_RANGE_OPS)
@STREAM
def test_vma_lookaside_buffer_matches_stamp_implementation(ops):
    _drive_range_buffer(_VMALookasideBuffer(entries=3, latency=1), OldRangeBuffer(entries=3),
                        lambda lo, hi: _VMARange(lo, hi, lo + (1 << 40)), ops,
                        invalidate=False)


@given(st.lists(st.tuples(_TLB_OPS,
                          _ADDRESSES, st.sampled_from([PAGE_SIZE_4K, PAGE_SIZE_2M])),
                min_size=10, max_size=150))
@STREAM
def test_nested_tlb_matches_stamp_implementation(ops):
    new, old = _NestedTLB(entries=2), OldNestedTLB(entries=2)
    for op, address, page_size in ops:
        if op == "lookup":
            assert new.lookup(address) == old.lookup(address)
        elif op == "fill":
            host = (1 << 40) + address // page_size * page_size
            new.fill(address, host, page_size)
            old.fill(address, host, page_size)
        elif op == "invalidate":
            assert new.invalidate(address) == old.invalidate(address)
        else:
            assert new.flush() == old.flush()
        assert set(new._store) == set(old._store)


# --------------------------------------------------------------------- #
# The data cache keeps its stamps
# --------------------------------------------------------------------- #
def test_cache_stamp_tie_evicts_the_lower_way():
    """A prefetch fill shares the demand access's stamp; the lower way loses.

    Way 1 holds a line touched by a demand access; a prefetch in the same
    cycle lands in way 0 with the same stamp.  Recency order would call the
    demand line older, but the cache evicts the first minimum in way order.
    """
    cache = Cache(CacheConfig("tie", size_bytes=2 * 64, associativity=2, latency=1,
                              replacement="lru"))
    assert cache.num_sets == 1
    line_x, line_a, line_b, line_c = 0x0, 0x40, 0x80, 0xC0
    cache.access(line_x)            # way 0
    cache.access(line_a)            # way 1
    cache.invalidate(line_x)        # way 0 free again
    cache.access(line_a)            # demand hit: A stamped at this clock
    cache.fill(line_b)              # prefetch into way 0, same clock as A
    lines = cache._sets[0]
    assert (lines[0].tag, lines[1].tag) == (line_b // 64, line_a // 64)
    assert lines[0].lru_stamp == lines[1].lru_stamp
    result = cache.access(line_c)   # miss: evicts way 0 (B), not A
    assert result.evicted_tag == line_b // 64
    assert cache.probe(line_a) and not cache.probe(line_b)
