"""Bucket-chained hash table — the paper's time-overhead straw man.

Storing access history in a chained hash table keeps answers exact with
bounded bucket count, but when several addresses land in the same bucket the
chain must be *searched* on every access.  The paper measures this as
1.5–3.7x slower than the signature; ``benchmarks/test_hashtable_vs_signature``
reproduces the comparison with this implementation.
"""

from __future__ import annotations

import numpy as np

from repro.sigmem.hashing import hash_address
from repro.sigmem.signature import AccessRecord, AccessTracker


class ChainedHashTable(AccessTracker):
    """Fixed bucket array; each bucket is an association list addr->record."""

    def __init__(self, n_buckets: int, salt: int = 0) -> None:
        if n_buckets <= 0:
            raise ValueError("n_buckets must be positive")
        self.n_buckets = int(n_buckets)
        self.salt = int(salt)
        self._buckets: list[list[tuple[int, AccessRecord]] | None] = (
            [None] * self.n_buckets
        )
        self._n = 0

    def _bucket_of(self, addr: int) -> int:
        return hash_address(addr, self.n_buckets, self.salt)

    def insert(self, addr: int, record: AccessRecord) -> None:
        b = self._bucket_of(addr)
        chain = self._buckets[b]
        if chain is None:
            self._buckets[b] = [(addr, record)]
            self._n += 1
            return
        for i, (a, _) in enumerate(chain):
            if a == addr:
                chain[i] = (addr, record)
                return
        chain.append((addr, record))
        self._n += 1

    def lookup(self, addr: int) -> AccessRecord | None:
        chain = self._buckets[self._bucket_of(addr)]
        if chain is None:
            return None
        for a, r in chain:
            if a == addr:
                return r
        return None

    def remove(self, addr: int) -> None:
        b = self._bucket_of(addr)
        chain = self._buckets[b]
        if chain is None:
            return
        for i, (a, _) in enumerate(chain):
            if a == addr:
                chain.pop(i)
                self._n -= 1
                if not chain:
                    self._buckets[b] = None
                return

    def remove_range(self, lo: int, hi: int, stride: int = 8) -> None:
        for addr in range(lo, hi, stride):
            self.remove(addr)

    def clear(self) -> None:
        self._buckets = [None] * self.n_buckets
        self._n = 0

    def occupied(self) -> int:
        return self._n

    def conflicted_addrs(self) -> np.ndarray:
        """Addresses sharing a bucket with another address — the entries
        paying chain-search cost (the signature would conflate these)."""
        addrs = [
            a
            for chain in self._buckets
            if chain is not None and len(chain) > 1
            for a, _ in chain
        ]
        return np.asarray(addrs, dtype=np.int64)

    @property
    def max_chain_length(self) -> int:
        return max((len(c) for c in self._buckets if c), default=0)

    @property
    def memory_bytes(self) -> int:
        # bucket pointer array + (addr, record) pairs; rough but honest.
        return 8 * self.n_buckets + self._n * 120
