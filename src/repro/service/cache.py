"""The result cache: fingerprint-keyed, provably-correct hits (P8).

The scenario kernel's determinism contract is that a spec's JSON form
*is* its identity: two byte-identical specs produce byte-identical
:class:`~repro.scenario.result.ScenarioResult` JSON, whoever runs them
and wherever.  That turns caching from a heuristic into a theorem —
serving a stored result for a spec with the same
:meth:`~repro.scenario.spec.ScenarioSpec.fingerprint` is exactly as
correct as re-running it, and infinitely cheaper.  The service fronts
its worker pool with this cache, and the CI smoke test pins the
contract end to end: a re-submitted spec must come back cached with
the identical digest.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["ResultCache"]


class ResultCache:
    """LRU cache of result JSON keyed by spec fingerprint.

    Args:
        capacity: Maximum retained results; the least recently used
            entry is evicted beyond it.

    Entries are also indexed by their result digest, so clients can
    fetch telemetry-bearing results by the digest a report quoted
    (``GET /v1/results/<digest>``) long after the job id expired.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[str, tuple[str, str]] = OrderedDict()
        self._by_digest: dict[str, str] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, fingerprint: str) -> str | None:
        """The cached result JSON for ``fingerprint``, or ``None``."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.hits += 1
        return entry[0]

    def put(self, fingerprint: str, result_json: str,
            digest: str) -> None:
        """Store one result under its spec fingerprint and digest."""
        if fingerprint in self._entries:
            self._entries.move_to_end(fingerprint)
            return
        self._entries[fingerprint] = (result_json, digest)
        self._by_digest[digest] = fingerprint
        if len(self._entries) > self.capacity:
            evicted, (_, old_digest) = self._entries.popitem(last=False)
            self._by_digest.pop(old_digest, None)
            self.evictions += 1

    def by_digest(self, digest: str) -> str | None:
        """The cached result JSON whose digest is ``digest``, or None.

        Refreshes the entry's LRU position but counts neither a hit
        nor a miss: the statistics describe submission lookups.
        """
        fingerprint = self._by_digest.get(digest)
        if fingerprint is None:
            return None
        self._entries.move_to_end(fingerprint)
        return self._entries[fingerprint][0]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def statistics(self) -> dict[str, float]:
        """Hit/miss/eviction counts and current size."""
        lookups = self.hits + self.misses
        return {
            "size": float(len(self._entries)),
            "capacity": float(self.capacity),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "evictions": float(self.evictions),
            "hit_fraction": self.hits / lookups if lookups else 0.0,
        }
