"""Shared content-addressed artifact store for the service.

The store *is* the two-tier :class:`~repro.core.cache.CompileCache`
(pickled programs + ``.vpcgen`` sidecars of marshalled jit bytecode,
already keyed by a content fingerprint and written atomically),
promoted to a shared multi-tenant resource.  Both file kinds are
specific to the Python release (the fingerprint and the sidecar's
magic number pin it), so a shard on another release misses instead of
replaying them:

* every worker shard opens the same directory with the same
  ``max_disk_bytes`` budget, so LRU eviction is enforced no matter
  which shard stores an artifact;
* the daemon holds a read-only probe over the directory for occupancy
  reporting (``stats`` replies, the ``compile.cache.disk_bytes``
  gauge) without ever compiling anything itself;
* per-request hit/miss/store/eviction/error deltas shipped home by the
  workers are folded into the daemon's registry under
  ``service.store.*`` so the shared store has one aggregate hit-rate
  across shards (each shard's private ``CacheStats`` only sees its own
  traffic).
"""

from __future__ import annotations

from typing import Optional

from ..core.cache import CacheStats, CompileCache

#: CacheStats fields shipped as per-request deltas by the workers.
STAT_FIELDS = ("memory_hits", "disk_hits", "misses", "stores",
               "errors", "evictions")


def stats_snapshot(stats: CacheStats) -> dict:
    return {name: getattr(stats, name) for name in STAT_FIELDS}


def stats_delta(before: dict, after: dict) -> dict:
    """The per-request store traffic between two snapshots (only the
    fields that moved, so idle requests ship an empty dict)."""
    delta = {}
    for name in STAT_FIELDS:
        moved = after.get(name, 0) - before.get(name, 0)
        if moved:
            delta[name] = moved
    return delta


class ArtifactStore:
    """The daemon's view of the shared store: configuration to hand to
    worker shards, plus occupancy probing for stats/metrics."""

    def __init__(self, directory: str,
                 max_bytes: Optional[int] = None):
        self.directory = directory
        self.max_bytes = max_bytes
        # memory_slots=0: the probe must never retain programs -- the
        # daemon process only reports, workers do the caching.
        self._probe = CompileCache(directory, memory_slots=0,
                                   max_disk_bytes=max_bytes)

    def occupancy(self) -> dict:
        entries, used = self._probe.disk_usage()
        payload = {"entries": entries, "bytes": used,
                   "max_bytes": self.max_bytes}
        if self.max_bytes:
            payload["fill"] = used / self.max_bytes
        return payload

    def absorb_delta(self, registry, delta: dict) -> None:
        """Fold one worker request's store traffic into the daemon
        registry (``service.store.*`` counters + occupancy gauges)."""
        if registry is None:
            return
        for name, moved in delta.items():
            registry.inc(f"service.store.{name}", moved)

    def publish_occupancy(self, registry) -> dict:
        occupancy = self.occupancy()
        if registry is not None:
            registry.gauge("service.store.entries",
                           occupancy["entries"])
            registry.gauge("service.store.bytes", occupancy["bytes"])
        return occupancy
