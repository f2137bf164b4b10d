"""The one LRU primitive behind every TLB-like structure.

An LRU structure is a plain ``dict`` kept in recency order: touching an
entry deletes and re-inserts it, so iteration runs from the least to the
most recently used key and the replacement victim is simply the first key.
The TLBs, page-walk caches, Utopia's SF/TAR caches, RMM's RLB, Midgard's
VLBs and the nested TLB all keep their entries this way, through the three
functions below.  They stay functions over an exact ``dict`` (not methods
of a subclass) because the interpreter's specialised dict opcodes only
apply to an exact ``dict``, and these are hot-loop structures.

This is the same rule as stamping every entry with a per-structure clock and
evicting the ``min`` stamp, provided that each clock tick stamps at most one
entry (true of every structure above): stamps are then unique, stamp order
equals recency order, and the unique minimum is the first key.  The data
caches (:class:`repro.memhier.cache.Cache`) do *not* meet that condition —
a prefetch fill shares its stamp with the same cycle's demand line — and
keep their own stamps.

Reads that must not change recency (``in``, ``get``, iteration) are the
ordinary dict operations; ``pop``/``clear`` drop entries without touching
the order of the rest.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional


def lru_touch(entries: Dict, key: Hashable) -> Any:
    """Mark ``key`` most recently used and return its value (None if absent).

    Values must not be ``None``, which is reserved for a miss.
    """
    value = entries.pop(key, None)
    if value is not None:
        entries[key] = value
    return value


def lru_victim(entries: Dict, key: Hashable, capacity: int) -> Optional[Hashable]:
    """The key :func:`lru_insert` of ``key`` would evict, or None.

    None when ``key`` is already resident (the insert only refreshes it)
    or there is room for one more entry.
    """
    if key in entries or len(entries) < capacity:
        return None
    return next(iter(entries))


def lru_insert(entries: Dict, key: Hashable, value: Any, capacity: int) -> Optional[Hashable]:
    """Store ``key`` as most recently used; return the evicted key or None."""
    evicted = None
    if key in entries:
        del entries[key]
    elif len(entries) >= capacity:
        evicted = next(iter(entries))
        del entries[evicted]
    entries[key] = value
    return evicted
