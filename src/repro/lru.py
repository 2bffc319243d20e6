"""The one least-recently-used cache behind every bounded cache.

Result answers, SQL-text plans, compiled AST plans, predicate masks,
join-side totals and eliminated network factors are each an
:class:`LRUCache`; the owning layer adds only what is its own (the mask
cache its relation, the network engine elimination on a miss).  What they share lives here once: recency order, hit / miss /
eviction counting, byte accounting and admission.

Byte accounting is governed-only.  Each cache names its entry-size function
(:func:`measured_bytes` unless told otherwise); entries are measured only
while a :class:`~repro.serving.governance.MemoryGovernor` is attached, and
attaching one measures everything the cache already holds, so an ungoverned
insert never pays a measurement and a governed ``byte_size`` is exact.

Every cache is safe to share between threads: each holds one lock, and every
method that reads or moves its entries runs under it.  The mask, join-side
and factor caches are shared by the facade and every session over a model,
and the facade's routed-plan cache by every session over a sample.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from collections.abc import Callable, Hashable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

#: Sentinel distinguishing "missing" from a cached ``None``/0.0 value.
_MISSING = object()


def measured_bytes(value: Any, _depth: int = 0) -> int:
    """A recursive RSS-proxy byte measurement of one cached value.

    Arrays report their exact buffer size (``ndarray.nbytes``); containers
    recurse with a depth guard; scalar python objects fall back to
    ``sys.getsizeof``-free flat estimates so the measurement stays cheap and
    deterministic across processes.  This is a *proxy*, not an allocator
    audit — the governor only needs monotone, comparable numbers.
    """
    if _depth > 6:
        return 64
    if value is None:
        return 16
    if isinstance(value, np.ndarray):
        return int(value.nbytes) + 96
    if isinstance(value, (np.generic,)):
        return int(value.nbytes) + 16
    if isinstance(value, (bool, int, float, complex)):
        return 32
    if isinstance(value, (str, bytes, bytearray)):
        return 49 + len(value)
    if isinstance(value, Mapping):
        total = 64
        for key, item in value.items():
            total += measured_bytes(key, _depth + 1)
            total += measured_bytes(item, _depth + 1)
        return total
    if isinstance(value, (Sequence, frozenset, set)):
        total = 56
        for item in value:
            total += measured_bytes(item, _depth + 1)
        return total
    inner = getattr(value, "__dict__", None)
    if inner:
        return 48 + measured_bytes(inner, _depth + 1)
    return 64


@dataclass
class CacheStatistics:
    """Hit/miss/eviction counters of one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of lookups (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        """A plain-dict snapshot (for reports and session statistics)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def snapshot(self) -> "CacheStatistics":
        """An immutable-by-convention copy of the counters as of now.

        The baseline half of per-window reporting: take a snapshot, serve a
        window of traffic, then :meth:`since` the snapshot to get the
        window's own hit rate (lifetime counters are never disturbed).
        """
        return CacheStatistics(
            hits=self.hits, misses=self.misses, evictions=self.evictions
        )

    def since(self, baseline: "CacheStatistics") -> "CacheStatistics":
        """Counters accumulated after ``baseline`` was snapshotted."""
        return CacheStatistics(
            hits=self.hits - baseline.hits,
            misses=self.misses - baseline.misses,
            evictions=self.evictions - baseline.evictions,
        )

    def reset(self) -> None:
        """Zero the counters (cached entries, wherever they live, are kept)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class LRUCache:
    """A bounded least-recently-used map with counters and byte accounting.

    ``size`` is the entry-size function the byte rule applies (default
    :func:`measured_bytes`).  While a ``governor`` is attached, every value
    is measured at insertion and offered to ``governor.admit(nbytes)``
    first; a refused value is not stored (it was already computed, only the
    memo is shed).
    """

    def __init__(self, capacity: int = 256, size: Callable[[Any], int] | None = None):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = int(capacity)
        self._size = size or measured_bytes
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        self._bytes = 0
        self._governor: Any | None = None
        self._lock = threading.Lock()
        self.statistics = CacheStatistics()
        _CACHES.add(self)

    @property
    def governor(self) -> Any | None:
        """The attached memory governor (``None``: nothing is measured)."""
        return self._governor

    @governor.setter
    def governor(self, governor: Any | None) -> None:
        # Attaching measures what the cache already holds, so byte_size is
        # exact however full the cache was; detaching forgets the sizes.
        with self._lock:
            self._governor = governor
            if governor is None:
                self._sizes = {}
            else:
                self._sizes = {key: self._size(value) for key, value in self._entries.items()}
            self._bytes = sum(self._sizes.values())

    @property
    def byte_size(self) -> int:
        """Measured bytes of every entry (0 while no governor is attached)."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Non-mutating, stat-free probe: the cached value, or ``default``.

        Unlike :meth:`get`, peeking neither promotes the entry in the
        recency order nor counts a hit/miss — it is how a caller inspects
        the cache without perturbing eviction behaviour or hit-rate
        statistics.
        """
        # acquire / release, not ``with``: on this path and get's, the lock
        # then costs half as much.
        lock = self._lock
        lock.acquire()
        try:
            return self._entries.get(key, default)
        finally:
            lock.release()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Fetch ``key``, marking it most recently used."""
        lock = self._lock
        lock.acquire()
        try:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.statistics.misses += 1
                return default
            self._entries.move_to_end(key)
            self.statistics.hits += 1
            return value
        finally:
            lock.release()

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``key`` as the most recently used entry, evicting the least
        recently used one beyond capacity.

        Any value already under ``key`` is dropped first, so a governor's
        refusal cannot leave an outdated memo behind.
        """
        with self._lock:
            if self._entries.pop(key, _MISSING) is not _MISSING:
                self._bytes -= self._sizes.pop(key, 0)
            if self._governor is not None:
                nbytes = self._size(value)
                if not self._governor.admit(nbytes):
                    return
                self._sizes[key] = nbytes
                self._bytes += nbytes
            self._entries[key] = value
            if len(self._entries) > self.capacity:
                # A full cache evicts on every insert: inline, not evict_entries(1).
                oldest, _ = self._entries.popitem(last=False)
                self._bytes -= self._sizes.pop(oldest, 0)
                self.statistics.evictions += 1

    def evict_entries(self, n: int) -> int:
        """Evict up to ``n`` least recently used entries; bytes freed."""
        freed = 0
        with self._lock:
            for _ in range(min(n, len(self._entries))):
                key, _ = self._entries.popitem(last=False)
                freed += self._sizes.pop(key, 0)
                self.statistics.evictions += 1
            self._bytes -= freed
        return freed

    def entries(self) -> list[tuple[Hashable, Any]]:
        """A ``(key, value)`` snapshot, least to most recently used.

        Non-mutating and stat-free, like :meth:`peek` — the observability
        probe serving statistics use to watch cache growth without
        perturbing eviction order or hit rates.
        """
        with self._lock:
            return list(self._entries.items())

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self._bytes = 0


#: Every live cache, so that a forked child can give each a fresh lock.
_CACHES: "weakref.WeakSet[LRUCache]" = weakref.WeakSet()


def _new_locks_in_child() -> None:
    # A thread of the parent may have held a cache's lock when it forked;
    # the child's copy would then never be released.
    for cache in list(_CACHES):
        cache._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_locks_in_child)
