"""Sharded signature banks: geometry, occupancy, export/import migration."""

import numpy as np
import pytest

from repro.sigmem import (
    BankGeometry,
    DenseKeySpace,
    DensePlaneTracker,
    SlotPlaneTracker,
    payload_size,
)
from repro.sigmem.signature import AccessRecord

GEO = BankGeometry(n_banks=4, shift=12)

#: The pipeline's banked trackers: exact dense planes (record-format banks),
#: lossy slot planes (slots-format banks), and slot planes carrying the
#: array signature's conflict tracking (owner + evicted-bit planes, as on
#: provenance runs).
KINDS = ["array", "dense", "slots"]


def make_trackers(geo=GEO):
    return {
        "array": SlotPlaneTracker(64, geometry=geo, track_conflicts=True),
        "dense": DensePlaneTracker(DenseKeySpace(), geometry=geo),
        "slots": SlotPlaneTracker(64, geometry=geo),
    }


def fill(tracker, addrs, ts0=0):
    for i, a in enumerate(addrs):
        tracker.insert(a, AccessRecord(loc=100 + i, var=i, tid=0, ts=ts0 + i))


class TestBankGeometry:
    def test_bank_of_stripes_addresses(self):
        g = BankGeometry(n_banks=4, shift=12)
        assert g.bank_of(0) == 0
        assert g.bank_of((1 << 12) - 8) == 0  # same 4 KiB stripe
        assert g.bank_of(1 << 12) == 1
        assert g.bank_of(4 << 12) == 0  # wraps modulo n_banks

    def test_banks_of_vectorized_matches_scalar(self):
        g = BankGeometry(n_banks=3, shift=4)
        addrs = np.arange(0, 512, 8, dtype=np.int64)
        banks = g.banks_of(addrs)
        assert [g.bank_of(int(a)) for a in addrs] == banks.tolist()

    def test_bank_slots_rounding(self):
        g = BankGeometry(n_banks=4, shift=12)
        assert g.bank_slots(10) == 2
        assert g.round_slots(10) == 8


class TestBankOccupancy:
    @pytest.mark.parametrize("kind", KINDS)
    def test_occupancy_attributes_to_the_right_bank(self, kind):
        t = make_trackers()[kind]
        # three addresses in bank 1's stripe, one in bank 2's
        fill(t, [1 << 12, (1 << 12) + 8, (1 << 12) + 16, 2 << 12])
        occ = t.bank_occupancy()
        assert occ is not None and len(occ) == GEO.n_banks
        assert occ[1] == 3 and occ[2] == 1
        assert occ[0] == 0 and occ[3] == 0

    def test_unbanked_tracker_has_no_occupancy(self):
        assert DensePlaneTracker(DenseKeySpace()).bank_occupancy() is None
        assert SlotPlaneTracker(64, track_addrs=True).bank_occupancy() is None


class TestExportImport:
    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_moves_state(self, kind):
        trackers = make_trackers()
        src, dst = trackers[kind], make_trackers()[kind]
        addrs = [1 << 12, (1 << 12) + 8, 2 << 12]
        fill(src, addrs)
        payload = src.export_bank(1)
        assert payload_size(payload) == 2
        # export clears the source's bank 1 but leaves bank 2 alone
        assert src.lookup(1 << 12) is None
        assert src.lookup(2 << 12) is not None
        dst.import_bank(payload)
        rec = dst.lookup((1 << 12) + 8)
        assert rec is not None and rec.loc == 101

    @pytest.mark.parametrize("kind", KINDS)
    def test_import_is_newest_wins(self, kind):
        trackers = make_trackers()
        a, b = trackers[kind], make_trackers()[kind]
        addr = 1 << 12
        a.insert(addr, AccessRecord(loc=1, var=0, tid=0, ts=5))
        b.insert(addr, AccessRecord(loc=2, var=0, tid=0, ts=50))
        b.import_bank(a.export_bank(1))  # older record must not clobber
        assert b.lookup(addr).ts == 50
        # and the newer one wins when shipped the other way
        b2 = make_trackers()[kind]
        b2.insert(addr, AccessRecord(loc=2, var=0, tid=0, ts=50))
        a2 = make_trackers()[kind]
        a2.insert(addr, AccessRecord(loc=1, var=0, tid=0, ts=5))
        a2.import_bank(b2.export_bank(1))
        assert a2.lookup(addr).ts == 50

    def test_array_migration_not_counted_as_eviction(self):
        """Importing a bank over an occupied slot replaces its owner without
        an eviction, as ``ArraySignature``'s migration merge did; the scalar
        migration ``insert`` applies the eviction rule."""
        evicted = []
        src = SlotPlaneTracker(64, geometry=GEO, track_conflicts=True)
        dst = SlotPlaneTracker(
            64, geometry=GEO, track_conflicts=True, on_evict=evicted.extend
        )
        addr = 1 << 12
        rival = next(
            a
            for a in range(addr + 8, 2 << 12, 8)
            if dst.key_of(a) == dst.key_of(addr)
        )
        dst.insert(rival, AccessRecord(loc=1, var=0, tid=0, ts=1))
        fill(src, [addr], ts0=10)
        dst.import_bank(src.export_bank(1))  # newer record, other owner
        assert dst.lookup(rival).ts == 10
        assert evicted == []
        assert not dst.conflict_state(np.arange(dst.n_slots))[1].any()
        dst.insert(rival, AccessRecord(loc=2, var=0, tid=0, ts=20))
        assert evicted == [rival]
        assert dst.conflict_state(np.array([dst.key_of(rival)]))[1].all()

    def test_export_requires_geometry(self):
        with pytest.raises(ValueError):
            DensePlaneTracker(DenseKeySpace()).export_bank(0)
        with pytest.raises(ValueError):
            SlotPlaneTracker(64).export_bank(0)
