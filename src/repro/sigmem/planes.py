"""Column-plane access trackers for the vectorized Algorithm-1 kernel.

The scalar trackers (:class:`~repro.sigmem.ArraySignature`,
:class:`~repro.sigmem.PerfectSignature`) store one boxed record per entry —
ideal for the event-at-a-time reference engine, hostile to array code.  The
chunk kernel instead keeps the *same* state as parallel numpy planes
(``loc``/``var``/``tid``/``ts`` plus a presence mask) indexed by a
*tracking key*, so a whole chunk can gather its carry-in state and scatter
its carry-out state in a handful of array operations.

Two key spaces mirror the two scalar trackers:

* :class:`SlotPlaneTracker` — keys are hash slots of the paper's array
  signature (same hash, same conflation-on-collision, same removal
  semantics, same eviction and suspect-source rules), so a pipeline worker
  with ``n`` slots is bit-for-bit equivalent to a reference engine over an
  ``ArraySignature`` of ``n`` slots.
* :class:`DensePlaneTracker` — keys are dense indices handed out by a
  :class:`DenseKeySpace` (one per kernel, shared by its read and write
  planes so both sides agree on every key).  Over raw addresses it is
  equivalent to the collision-free :class:`~repro.sigmem.PerfectSignature`;
  over a *hashed* key space (addresses first mapped to ``n_slots`` hash
  slots) it is equivalent to an ``ArraySignature`` of ``n_slots`` slots
  while its planes grow only with the slots actually touched — which is
  how one-shot profiling affords the paper's "sufficiently large" Table II
  signatures.

Every tracker derives the keys a FREE kills (:meth:`kill_keys`) itself and
reuses that derivation in ``remove_range``, so the kernel never needs to
know which key space it runs over.

Both implement the :class:`~repro.sigmem.AccessTracker` protocol, so
signature migration during load balancing and the sampler's occupancy/fill
gauges work unchanged.  Built with a :class:`~repro.sigmem.BankGeometry`
they also speak the *bank protocol* — per-bank occupancy
(``bank_occupancy``) and bank-granularity state migration
(``export_bank`` / ``import_bank``) — which lets the load balancer move a
hot address range between workers with its signature state instead of
dropping it.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.sigmem.banks import BankGeometry, records_payload, slots_payload
from repro.sigmem.hashing import hash_address, hash_addresses
from repro.sigmem.signature import SLOT_BYTES, AccessRecord, AccessTracker


def _require_geometry(tracker: Any) -> BankGeometry:
    geo = tracker.bank_geometry
    if geo is None:
        raise ValueError(
            f"{type(tracker).__name__} was built without a BankGeometry; "
            "bank operations need config.signature_banks > 0"
        )
    return geo


class _PlaneStore:
    """The shared plane mechanics: presence mask + four payload columns."""

    def __init__(self, capacity: int) -> None:
        self._present = np.zeros(capacity, dtype=bool)
        self._loc = np.zeros(capacity, dtype=np.int64)
        self._var = np.zeros(capacity, dtype=np.int64)
        self._tid = np.zeros(capacity, dtype=np.int64)
        self._ts = np.zeros(capacity, dtype=np.int64)
        self._filled = 0

    # -- batch ops (the kernel's hot path) --------------------------------
    def gather(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Presence + payload columns for ``keys`` (payload is garbage where
        not present; callers mask)."""
        return (
            self._present[keys],
            self._loc[keys],
            self._var[keys],
            self._tid[keys],
            self._ts[keys],
        )

    def set_rows(
        self,
        keys: np.ndarray,
        loc: np.ndarray,
        var: np.ndarray,
        tid: np.ndarray,
        ts: np.ndarray,
    ) -> None:
        """Scatter records at unique ``keys`` (last-access payload)."""
        if len(keys) == 0:
            return
        self._filled += int(np.count_nonzero(~self._present[keys]))
        self._present[keys] = True
        self._loc[keys] = loc
        self._var[keys] = var
        self._tid[keys] = tid
        self._ts[keys] = ts

    def clear_keys(self, keys: np.ndarray) -> None:
        """Remove records at unique ``keys`` (variable-lifetime kills)."""
        if len(keys) == 0:
            return
        self._filled -= int(np.count_nonzero(self._present[keys]))
        self._present[keys] = False

    # -- scalar ops (migration / lifetime support) ------------------------
    def get(self, key: int) -> AccessRecord | None:
        if not self._present[key]:
            return None
        return AccessRecord(
            int(self._loc[key]),
            int(self._var[key]),
            int(self._tid[key]),
            int(self._ts[key]),
        )

    def put(self, key: int, record: AccessRecord) -> None:
        if not self._present[key]:
            self._filled += 1
            self._present[key] = True
        self._loc[key] = record.loc
        self._var[key] = record.var
        self._tid[key] = record.tid
        self._ts[key] = record.ts

    def drop(self, key: int) -> None:
        if self._present[key]:
            self._filled -= 1
            self._present[key] = False

    def wipe(self) -> None:
        self._present[:] = False
        self._filled = 0

    def grow_to(self, capacity: int) -> None:
        old = len(self._present)
        if capacity <= old:
            return
        cap = max(old * 2, capacity, 16)
        for name in ("_present", "_loc", "_var", "_tid", "_ts"):
            arr = getattr(self, name)
            new = np.zeros(cap, dtype=arr.dtype)
            new[:old] = arr
            setattr(self, name, new)


class SlotPlaneTracker(AccessTracker):
    """Array-signature state as numpy planes (key = hash slot).

    Identical observable behaviour to :class:`~repro.sigmem.ArraySignature`:
    colliding addresses overwrite one another, ``remove`` clears the slot
    regardless of owner, and ``remove_range`` clears the slots of every
    stride-aligned address in the range.

    With ``track_addrs`` an extra owner-address plane records which address
    last wrote each slot, enabling end-of-run occupancy attribution
    (:meth:`occupied_addrs`) at the cost of one extra scatter per carry-out.

    With ``track_conflicts`` (dependence provenance) the tracker also keeps
    an evicted-bit plane — the plane form of ``ArraySignature``'s
    ``track_conflicts`` — so the kernel can flag suspect sources and count
    hash-conflict evictions.  An eviction is an insert into an occupied
    slot owned by a different address; the kernel detects them in bulk and
    reports them through :meth:`note_evictions`, the scalar :meth:`insert`
    (signature migration) applies the same rule, and :meth:`import_bank`
    counts none.  ``on_evict`` receives the evicting addresses (eviction
    counters, conflict heat).

    With a ``geometry`` the slot planes are sharded into per-address-range
    banks (``key = bank * bank_slots + h(addr) % bank_slots``), so a bank is
    one contiguous plane slice and :meth:`export_bank`/:meth:`import_bank`
    move it with a handful of array ops.  Banking implies the owner-address
    plane — the payload must carry owners so the importer's attribution
    stays exact.
    """

    def __init__(
        self,
        n_slots: int,
        salt: int = 0,
        track_addrs: bool = False,
        geometry: BankGeometry | None = None,
        track_conflicts: bool = False,
        on_evict: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        self.bank_geometry = geometry
        self.bank_slots = (
            geometry.bank_slots(n_slots) if geometry is not None else 0
        )
        self.n_slots = (
            geometry.round_slots(n_slots) if geometry is not None else int(n_slots)
        )
        self.salt = int(salt)
        self._store = _PlaneStore(self.n_slots)
        if geometry is not None or track_conflicts:
            track_addrs = True
        self._addrs: np.ndarray | None = (
            np.zeros(self.n_slots, dtype=np.int64) if track_addrs else None
        )
        self._evicted: np.ndarray | None = (
            np.zeros(self.n_slots, dtype=bool) if track_conflicts else None
        )
        self.on_evict = on_evict

    @property
    def tracks_conflicts(self) -> bool:
        """True when the kernel must derive suspect sources and evictions."""
        return self._evicted is not None

    @property
    def wants_addrs(self) -> bool:
        """True when the kernel should thread the address column through
        ``set_rows`` (owner-address plane present)."""
        return self._addrs is not None

    # -- key derivation ----------------------------------------------------
    def key_of(self, addr: int) -> int:
        if self.bank_geometry is None:
            return hash_address(addr, self.n_slots, self.salt)
        bank = self.bank_geometry.bank_of(addr)
        return bank * self.bank_slots + hash_address(
            addr, self.bank_slots, self.salt
        )

    def keys_of(self, addrs: np.ndarray) -> np.ndarray:
        if self.bank_geometry is None:
            return hash_addresses(addrs, self.n_slots, self.salt)
        banks = self.bank_geometry.banks_of(addrs)
        return banks * self.bank_slots + hash_addresses(
            addrs, self.bank_slots, self.salt
        )

    # -- batch ops ---------------------------------------------------------
    def gather(self, keys: np.ndarray):
        return self._store.gather(keys)

    def set_rows(self, keys, loc, var, tid, ts, addr=None) -> None:
        self._store.set_rows(keys, loc, var, tid, ts)
        if self._addrs is not None and addr is not None and len(keys):
            self._addrs[keys] = addr

    def clear_keys(self, keys: np.ndarray) -> None:
        self._store.clear_keys(keys)

    # -- conflict tracking (provenance) -------------------------------------
    def conflict_state(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Owner address and evicted bit per key (``track_conflicts`` only)."""
        assert self._addrs is not None and self._evicted is not None
        return self._addrs[keys], self._evicted[keys]

    def note_evictions(self, keys: np.ndarray, addrs: np.ndarray) -> None:
        """Record evictions: inserts of ``addrs`` that displaced another
        address's record in slots ``keys``."""
        if len(keys) == 0:
            return
        self._evicted[keys] = True  # type: ignore[index]
        if self.on_evict is not None:
            self.on_evict(addrs)

    # -- AccessTracker protocol --------------------------------------------
    def insert(self, addr: int, record: AccessRecord) -> None:
        key = self.key_of(addr)
        owners = self._addrs
        if (
            self._evicted is not None
            and self._store._present[key]
            and owners[key] != addr  # type: ignore[index]
        ):
            self.note_evictions(
                np.array([key], dtype=np.int64), np.array([addr], dtype=np.int64)
            )
        self._store.put(key, record)
        if owners is not None:
            owners[key] = addr

    def lookup(self, addr: int) -> AccessRecord | None:
        return self._store.get(self.key_of(addr))

    def remove(self, addr: int) -> None:
        self._store.drop(self.key_of(addr))

    def kill_keys(self, lo: int, hi: int, stride: int = 8) -> np.ndarray:
        """Unique slots of every stride-aligned address in ``[lo, hi)``."""
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        return np.unique(self.keys_of(np.arange(lo, hi, stride, dtype=np.int64)))

    def remove_range(self, lo: int, hi: int, stride: int = 8) -> None:
        self._store.clear_keys(self.kill_keys(lo, hi, stride))

    def clear(self) -> None:
        self._store.wipe()
        if self._evicted is not None:
            self._evicted[:] = False

    def occupied(self) -> int:
        return self._store._filled

    def fill_ratio(self) -> float:
        return self._store._filled / self.n_slots

    def occupied_addrs(self) -> np.ndarray | None:
        """Owner addresses of the occupied slots (current owner where
        conflated, matching :class:`~repro.sigmem.ArraySignature`).  Needs
        the ``track_addrs`` plane; ``None`` without it."""
        if self._addrs is None:
            return None
        return self._addrs[self._store._present]

    @property
    def memory_bytes(self) -> int:
        # Same accounting as ArraySignature: the configured slot count is the
        # committed footprint whether or not the planes are resident.
        return self.n_slots * SLOT_BYTES

    # -- bank protocol ------------------------------------------------------
    def bank_occupancy(self) -> np.ndarray | None:
        geo = self.bank_geometry
        if geo is None:
            return None
        present = self._store._present[: self.n_slots]
        return present.reshape(geo.n_banks, self.bank_slots).sum(axis=1)

    def export_bank(self, bank: int) -> dict:
        """Extract-and-clear one bank: a contiguous plane slice, vectorized."""
        geo = _require_geometry(self)
        if not (0 <= bank < geo.n_banks):
            raise ValueError(f"bank {bank} out of range [0, {geo.n_banks})")
        base = bank * self.bank_slots
        present = self._store._present[base : base + self.bank_slots]
        local = np.flatnonzero(present).astype(np.int64)
        keys = base + local
        owners = self._addrs
        payload = slots_payload(
            bank,
            self.bank_slots,
            local,
            self._store._loc[keys],
            self._store._var[keys],
            self._store._tid[keys],
            self._store._ts[keys],
            None if owners is None else owners[keys],
        )
        self._store.clear_keys(keys)
        return payload

    def import_bank(self, payload: dict) -> None:
        """Merge a bank payload, newest access winning per slot."""
        geo = _require_geometry(self)
        if payload["format"] != "slots":
            raise ValueError(
                f"{type(self).__name__} imports slots-format bank payloads, "
                f"got {payload['format']!r}"
            )
        if int(payload["bank_slots"]) != self.bank_slots:
            raise ValueError(
                f"bank payload has {payload['bank_slots']} slots/bank, "
                f"this tracker has {self.bank_slots}"
            )
        bank = int(payload["bank"])
        if not (0 <= bank < geo.n_banks):
            raise ValueError(f"bank {bank} out of range [0, {geo.n_banks})")
        keys = bank * self.bank_slots + payload["slot"]
        present, _, _, _, ts = self._store.gather(keys)
        win = ~present | (ts < payload["ts"])
        if not win.any():
            return
        keep = keys[win]
        self._store.set_rows(
            keep,
            payload["loc"][win],
            payload["var"][win],
            payload["tid"][win],
            payload["ts"][win],
        )
        if self._addrs is not None and payload["addr"] is not None:
            self._addrs[keep] = payload["addr"][win]


class DenseKeySpace:
    """Tracking-id -> dense-key mapping shared by one kernel's plane pair.

    The tracking id is the address itself, or — with ``n_slots`` — the
    address's array-signature hash slot (same hash and salt as
    :class:`~repro.sigmem.ArraySignature`), so colliding addresses share a
    key exactly as they share a slot.  Keys are handed out on first sight
    and never recycled: a freed id keeps its key so later reuse maps to the
    same plane row (whose presence bit the kill cleared) — matching
    dict-of-address semantics without per-event dict churn in the kernel.
    """

    def __init__(self, n_slots: int | None = None, salt: int = 0) -> None:
        if n_slots is not None and n_slots <= 0:
            raise ValueError("n_slots must be positive")
        self.n_slots = n_slots
        self.salt = int(salt)
        self._index: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._index)

    def _id(self, addr: int) -> int:
        if self.n_slots is None:
            return addr
        return hash_address(addr, self.n_slots, self.salt)

    def get(self, addr: int) -> int | None:
        return self._index.get(self._id(addr))

    def key_for(self, addr: int) -> int:
        index = self._index
        i = self._id(addr)
        k = index.get(i)
        if k is None:
            k = index[i] = len(index)
        return k

    def keys_for(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`key_for`: one dict probe per *unique* id."""
        if self.n_slots is not None:
            addrs = hash_addresses(addrs, self.n_slots, self.salt)
        uniq, inv = np.unique(addrs, return_inverse=True)
        index = self._index
        if not index:
            # First sight of everything: keys are the sorted-unique ranks.
            index.update(zip(uniq.tolist(), range(len(uniq))))
            return inv.astype(np.int64, copy=False)
        keys = np.empty(len(uniq), dtype=np.int64)
        for j, a in enumerate(uniq.tolist()):
            k = index.get(a)
            if k is None:
                k = len(index)
                index[a] = k
            keys[j] = k
        return keys[inv]

    def probe_keys(self, lo: int, hi: int, stride: int) -> np.ndarray:
        """Known keys of the stride-aligned addresses in ``[lo, hi)``.

        Mirrors ``remove_range`` of the matching scalar tracker.  Hashed:
        the unique slots of the range (``ArraySignature``).  Raw addresses
        (``PerfectSignature``): probe the range when it is small, scan the
        index when the range dwarfs it — either way only addresses aligned
        to ``lo`` modulo ``stride`` are affected.
        """
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        index = self._index
        if self.n_slots is not None:
            addrs = np.arange(lo, hi, stride, dtype=np.int64)
            ids = np.unique(hash_addresses(addrs, self.n_slots, self.salt)).tolist()
            keys = [k for i in ids if (k := index.get(i)) is not None]
        elif -(-(hi - lo) // stride) <= len(index):
            keys = [
                k
                for addr in range(lo, hi, stride)
                if (k := index.get(addr)) is not None
            ]
        else:
            keys = [
                k
                for addr, k in index.items()
                if lo <= addr < hi and (addr - lo) % stride == 0
            ]
        return np.asarray(keys, dtype=np.int64)


class DensePlaneTracker(AccessTracker):
    """Tracking as numpy planes over a :class:`DenseKeySpace`.

    Over raw addresses it is equivalent to
    :class:`~repro.sigmem.PerfectSignature`, and memory accounting follows
    the same ~88-bytes-per-live-entry model.  Over a hashed key space it is
    equivalent to :class:`~repro.sigmem.ArraySignature` and reports the
    same committed ``n_slots * SLOT_BYTES`` footprint, although only
    touched slots are resident.

    Dense keys have no bank structure, so a ``geometry`` enables the
    record-format bank protocol: exports are exact per-address payloads
    recovered through the key space's inverse map, imports re-insert
    newest-wins (raw-address key spaces only).  Exact tracking never
    conflates, so it never reports a conflict.
    """

    tracks_conflicts = False

    def __init__(
        self, space: DenseKeySpace, geometry: BankGeometry | None = None
    ) -> None:
        self.space = space
        self.bank_geometry = geometry
        self._store = _PlaneStore(16)

    # -- batch ops ---------------------------------------------------------
    def keys_of(self, addrs: np.ndarray) -> np.ndarray:
        keys = self.space.keys_for(addrs)
        self._store.grow_to(len(self.space))
        return keys

    def gather(self, keys: np.ndarray):
        self._store.grow_to(len(self.space))
        return self._store.gather(keys)

    def set_rows(self, keys, loc, var, tid, ts, addr=None) -> None:
        # ``addr`` accepted for kernel-signature parity; the dense key space
        # already knows every key's owner, so no extra plane is kept.
        self._store.grow_to(len(self.space))
        self._store.set_rows(keys, loc, var, tid, ts)

    def clear_keys(self, keys: np.ndarray) -> None:
        self._store.grow_to(len(self.space))
        self._store.clear_keys(keys)

    # -- AccessTracker protocol --------------------------------------------
    def insert(self, addr: int, record: AccessRecord) -> None:
        key = self.space.key_for(addr)
        self._store.grow_to(len(self.space))
        self._store.put(key, record)

    def lookup(self, addr: int) -> AccessRecord | None:
        key = self.space.get(addr)
        if key is None or key >= len(self._store._present):
            return None
        return self._store.get(key)

    def remove(self, addr: int) -> None:
        key = self.space.get(addr)
        if key is not None and key < len(self._store._present):
            self._store.drop(key)

    def kill_keys(self, lo: int, hi: int, stride: int = 8) -> np.ndarray:
        """Known keys removed by freeing ``[lo, hi)``."""
        return self.space.probe_keys(lo, hi, stride)

    def remove_range(self, lo: int, hi: int, stride: int = 8) -> None:
        keys = self.kill_keys(lo, hi, stride)
        if len(keys):
            self._store.grow_to(len(self.space))
            self._store.clear_keys(keys)

    def clear(self) -> None:
        self._store.wipe()

    def occupied(self) -> int:
        return self._store._filled

    def occupied_addrs(self) -> np.ndarray | None:
        """Owner addresses of the live entries, recovered from the key
        space (keys never recycle, so the inverse map is exact).  ``None``
        over a hashed key space, whose ids are slots, not owners."""
        if self.space.n_slots is not None:
            return None
        present = self._store._present
        n = len(present)
        addrs = [
            a for a, k in self.space._index.items() if k < n and present[k]
        ]
        return np.asarray(addrs, dtype=np.int64)

    @property
    def memory_bytes(self) -> int:
        if self.space.n_slots is not None:
            return self.space.n_slots * SLOT_BYTES
        return 64 + self._store._filled * 88

    # -- bank protocol (record format) --------------------------------------
    def bank_occupancy(self) -> np.ndarray | None:
        """Live-entry count per bank, binned from the owner addresses."""
        geo = self.bank_geometry
        if geo is None:
            return None
        addrs = self.occupied_addrs()
        if addrs is None:
            return None
        return np.bincount(geo.banks_of(addrs), minlength=geo.n_banks)

    def export_bank(self, bank: int) -> dict[str, Any]:
        """Extract *and clear* every live address of one bank, with its
        full payload, so migration is lossless."""
        geo = _require_geometry(self)
        addrs = self.occupied_addrs()
        if addrs is None:
            raise ValueError(
                "a hashed DenseKeySpace cannot export banks: owner addresses "
                "are unknown"
            )
        sel = addrs[geo.banks_of(addrs) == bank]
        n = len(sel)
        loc = np.empty(n, dtype=np.int64)
        var = np.empty(n, dtype=np.int64)
        tid = np.empty(n, dtype=np.int64)
        ts = np.empty(n, dtype=np.int64)
        for j, addr in enumerate(sel.tolist()):
            rec = self.lookup(addr)
            assert rec is not None  # it came from occupied_addrs
            loc[j], var[j], tid[j], ts[j] = rec
            self.remove(addr)
        return records_payload(bank, sel, loc, var, tid, ts)

    def import_bank(self, payload: dict[str, Any]) -> None:
        """Merge an exported bank (newest access wins).

        Several source workers may export the same bank (its addresses were
        modulo-spread before the first bank rule); the per-address
        ts-compare keeps exactly the record Algorithm 1 would have kept had
        the bank lived here all along.
        """
        _require_geometry(self)
        if payload["format"] != "records":
            raise ValueError(
                f"{type(self).__name__} imports record-format bank payloads, "
                f"got {payload['format']!r}"
            )
        loc, var, tid, ts = (
            payload["loc"], payload["var"], payload["tid"], payload["ts"],
        )
        for j, addr in enumerate(payload["addrs"].tolist()):
            mine = self.lookup(addr)
            if mine is None or mine.ts < int(ts[j]):
                self.insert(
                    addr,
                    AccessRecord(
                        int(loc[j]), int(var[j]), int(tid[j]), int(ts[j])
                    ),
                )
