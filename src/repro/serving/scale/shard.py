"""Consistent plan-key sharding.

Plan keys must land on the same shard in every process and every run —
shard caches only stay hot if the router is a pure function of the key.
Python's builtin ``hash()`` is salted per process (``PYTHONHASHSEED``), so
the router hashes the key's **canonical wire encoding** with blake2b
instead: :func:`stable_key_hash` is process- and platform-stable.

The ring is a classic consistent hash with virtual nodes: each shard owns
``replicas`` points on a 64-bit circle and a key belongs to the first point
clockwise from its hash.  Growing the pool from N to N+1 shards therefore
moves ~1/(N+1) of the key space instead of rehashing everything — warm
caches survive resizes.

The same walk gives failover for free: with a ``live`` shard set, points
owned by dead shards are skipped, so a down shard's keys spill onto the
next live shards around the circle (cold caches, same bits) and return
home deterministically once the shard is respawned.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from typing import AbstractSet

from ...plan.ir import PlanKey
from ...plan.wire import encode_value


def stable_key_hash(key: PlanKey) -> int:
    """A 64-bit hash of a canonical plan key, stable across processes.

    The key is first encoded with the wire value codec (tuples tagged, numpy
    scalars unwrapped) and rendered as canonical JSON, so equal keys hash
    equal regardless of which process — or which run — computes the hash.
    """
    text = json.dumps(encode_value(key), sort_keys=True, separators=(",", ":"))
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _ring_point(shard_id: int, replica: int) -> int:
    token = f"shard:{shard_id}:replica:{replica}".encode("ascii")
    digest = hashlib.blake2b(token, digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardRouter:
    """Consistent-hash router from plan keys to shard ids.

    Parameters
    ----------
    n_shards:
        Number of shards (worker processes) in the pool.
    replicas:
        Virtual nodes per shard.  More replicas smooth the key-space split
        (64 keeps the max/min shard load within ~2x for uniform keys).
    """

    def __init__(self, n_shards: int, replicas: int = 64):
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        if replicas < 1:
            raise ValueError(f"need at least one replica per shard, got {replicas}")
        self.n_shards = n_shards
        self.replicas = replicas
        points: list[tuple[int, int]] = []
        for shard_id in range(n_shards):
            for replica in range(replicas):
                points.append((_ring_point(shard_id, replica), shard_id))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    def shard_for_hash(
        self, key_hash: int, live: AbstractSet[int] | None = None
    ) -> int:
        """The shard owning one stable key hash.

        With a ``live`` set, dead shards are masked out of the ring: the key
        keeps walking clockwise past ring points owned by dead shards until
        it reaches one owned by a live shard.  Keys whose home shard is live
        are unaffected (the walk stops at the first point as before), and a
        key rerouted while its home shard was down returns home the moment
        the shard is back in ``live`` — failover is a pure function of
        ``(key, live set)``, never sticky state.

        Raises :class:`ValueError` when ``live`` is empty (no shard can own
        anything; the supervised pool degrades before routing).
        """
        index = bisect_right(self._points, key_hash)
        n_points = len(self._points)
        if live is None:
            return self._owners[index % n_points]
        for step in range(n_points):
            owner = self._owners[(index + step) % n_points]
            if owner in live:
                return owner
        raise ValueError("no live shard on the ring")

    def shard_for(
        self, key: PlanKey, live: AbstractSet[int] | None = None
    ) -> int:
        """The shard owning one canonical plan key (see :meth:`shard_for_hash`)."""
        return self.shard_for_hash(stable_key_hash(key), live=live)
