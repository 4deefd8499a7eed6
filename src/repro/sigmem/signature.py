"""The fixed-size array signature and the common tracker protocol.

Every memory tracker stores, per address, the payload of the *last* access of
one kind (read or write): source location, variable id, thread id, and access
timestamp.  That payload is exactly what Algorithm 1 needs to build a
dependence when a later access hits the same address.

:class:`ArraySignature` is the paper's structure: ``n_slots`` entries, one
hash function, no chaining.  Two different addresses hashing to the same slot
*overwrite* each other — by design.  The paper stores only the source line
in a 3–4 byte slot; we keep the full record the profiler reports (line,
variable, thread, timestamp), which changes the constant but not the
semantics or the collision behaviour.
"""

from __future__ import annotations

import abc
from typing import NamedTuple

import numpy as np

from repro.obs.metrics import Counter
from repro.sigmem.hashing import hash_address, hash_addresses

#: Marks an empty slot in the ``loc`` plane.
EMPTY = -2


class AccessRecord(NamedTuple):
    """Payload remembered for the last access to an address (or slot)."""

    loc: int  # encoded source location
    var: int  # interned variable id (-1 unknown)
    tid: int  # target thread id
    ts: int  # access timestamp


class AccessTracker(abc.ABC):
    """Protocol shared by signatures, shadow memory, and hash tables."""

    @abc.abstractmethod
    def insert(self, addr: int, record: AccessRecord) -> None:
        """Remember ``record`` as the last access to ``addr``."""

    @abc.abstractmethod
    def lookup(self, addr: int) -> AccessRecord | None:
        """Membership check + payload: ``None`` means "not present"."""

    @abc.abstractmethod
    def remove(self, addr: int) -> None:
        """Remove one address (variable-lifetime analysis)."""

    @abc.abstractmethod
    def remove_range(self, lo: int, hi: int, stride: int = 8) -> None:
        """Remove every address in ``[lo, hi)`` stepping by ``stride``."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Empty the tracker."""

    @property
    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Actual bytes held by this tracker's state."""

    @abc.abstractmethod
    def occupied(self) -> int:
        """Number of non-empty entries."""

    def contains(self, addr: int) -> bool:
        return self.lookup(addr) is not None

    def suspect_source(self, addr: int) -> bool:
        """True when a record looked up for ``addr`` may belong to a
        *different* address (hash-collision conflation) — the Eq. 2
        false-positive mechanism.  Exact trackers can never conflate, so
        the default is ``False``; :class:`ArraySignature` overrides it when
        conflict tracking is on."""
        return False


#: Accounted bytes per slot: the paper's slots store a packed record (we
#: account the full loc+var+tid+ts payload: 4+4+4+8).
SLOT_BYTES = 20


class ArraySignature(AccessTracker):
    """The paper's signature: fixed-size array + one hash function.

    One fixed-length slot list holds the payload records (``None`` marks a
    free slot); slot storage is a plain Python list because the hot path is
    *scalar* probe/insert — a single index into a list beats four boxed
    numpy scalar reads by a wide margin, which matters for the
    hashtable-vs-signature time comparison the paper makes.  Batch
    operations (``slots_of``, ``remove_range``) still hash vectorized.

    Removal may evict an unrelated address that shares the slot — an
    accepted imprecision of single-hash signatures that variable-lifetime
    analysis tolerates (it only ever *reduces* stale state).

    This is the reference engine's tracker and the executable spec of the
    pipeline's :class:`~repro.sigmem.SlotPlaneTracker`, including the
    eviction and suspect-source rules below.
    """

    def __init__(
        self,
        n_slots: int,
        salt: int = 0,
        eviction_counter: "Counter | None" = None,
        track_conflicts: bool = False,
    ) -> None:
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        self.n_slots = int(n_slots)
        self.salt = int(salt)
        self._slots: list[AccessRecord | None] = [None] * self.n_slots
        # Occupancy is maintained incrementally so fill gauges are O(1) to
        # scrape (a full-slot scan per sample would dwarf the profiling).
        self._filled = 0
        # Optional telemetry: count inserts that *replace a different
        # address* (hash-conflict evictions).  Needs a parallel owner-address
        # plane, so it is only kept when a counter or ``track_conflicts``
        # (dependence-provenance mode) asks for it — the uninstrumented hot
        # path stays exactly as before.
        self.eviction_counter = eviction_counter
        track = eviction_counter is not None or track_conflicts
        self._slot_addrs: list[int] | None = [0] * self.n_slots if track else None
        #: Slots that ever had a colliding overwrite; provenance consults
        #: this to flag dependences built from a contested slot.
        self._evicted_slots: set[int] | None = set() if track else None

    # -- core ops ---------------------------------------------------------
    def slot_of(self, addr: int) -> int:
        return hash_address(addr, self.n_slots, self.salt)

    def slots_of(self, addrs: np.ndarray) -> np.ndarray:
        return hash_addresses(addrs, self.n_slots, self.salt)

    def insert(self, addr: int, record: AccessRecord) -> None:
        i = self.slot_of(addr)
        slots = self._slots
        if slots[i] is None:
            self._filled += 1
        elif self._slot_addrs is not None and self._slot_addrs[i] != addr:
            self._evicted_slots.add(i)  # type: ignore[union-attr]
            if self.eviction_counter is not None:
                self.eviction_counter.inc()
        if self._slot_addrs is not None:
            self._slot_addrs[i] = addr
        slots[i] = record

    def lookup(self, addr: int) -> AccessRecord | None:
        return self._slots[self.slot_of(addr)]

    def remove(self, addr: int) -> None:
        i = self.slot_of(addr)
        if self._slots[i] is not None:
            self._filled -= 1
        self._slots[i] = None

    def remove_range(self, lo: int, hi: int, stride: int = 8) -> None:
        if hi <= lo:
            return
        addrs = np.arange(lo, hi, stride, dtype=np.int64)
        slots = self._slots
        for i in np.unique(self.slots_of(addrs)).tolist():
            if slots[i] is not None:
                self._filled -= 1
            slots[i] = None

    def clear(self) -> None:
        self._slots = [None] * self.n_slots
        self._filled = 0
        if self._slot_addrs is not None:
            self._slot_addrs = [0] * self.n_slots
            self._evicted_slots = set()

    def suspect_source(self, addr: int) -> bool:
        """Is a lookup of ``addr`` possibly answering for another address?

        True when the slot's current owner is a different address (a live
        collision — the looked-up record definitely belongs to someone
        else) or when the slot has a recorded eviction (the record lineage
        passed through a contested slot).  Only meaningful with conflict
        tracking on; otherwise conservatively ``False``.
        """
        if self._slot_addrs is None:
            return False
        i = self.slot_of(addr)
        if self._slots[i] is not None and self._slot_addrs[i] != addr:
            return True
        return i in self._evicted_slots  # type: ignore[operator]

    def occupied(self) -> int:
        return self._filled

    def fill_ratio(self) -> float:
        """Fraction of slots holding a record (the signature fill gauge)."""
        return self._filled / self.n_slots

    @property
    def memory_bytes(self) -> int:
        return self.n_slots * SLOT_BYTES
