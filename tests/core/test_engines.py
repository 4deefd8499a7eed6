"""Semantic tests of Algorithm 1, run against BOTH engines.

Every test in ``TestAlgorithmSemantics`` is parameterized over the reference
and vectorized engines — they must agree on everything down to instance
counts.
"""

import pytest

from repro.common.config import ProfilerConfig
from repro.core import DepType, profile_trace
from repro.core.deps import Dependence

from tests.trace_helpers import loc, seq_trace

PERFECT = ProfilerConfig(perfect_signature=True)
ENGINES = ["reference", "vectorized"]


@pytest.fixture(params=ENGINES)
def engine(request):
    return request.param


def deps_of(result, dep_type):
    return {
        (d.sink_loc, d.source_loc, d.var)
        for d in result.store
        if d.dep_type == dep_type
    }


class TestAlgorithmSemantics:
    def test_raw(self, engine):
        batch = seq_trace([("w", 0x100, 1, "x"), ("r", 0x100, 2, "x")])
        res = profile_trace(batch, PERFECT, engine)
        assert deps_of(res, DepType.RAW) == {(loc(2), loc(1), 0)}

    def test_war_requires_prior_write(self, engine):
        """Algorithm 1 suppresses the WAR a *first* write would form: the
        INIT branch returns early (see the pseudocode's else-structure)."""
        batch = seq_trace([("r", 0x100, 1, "x"), ("w", 0x100, 2, "x")])
        res = profile_trace(batch, PERFECT, engine)
        assert deps_of(res, DepType.WAR) == set()
        assert deps_of(res, DepType.INIT) == {(loc(2), -1, -1)}

    def test_war_after_init(self, engine):
        batch = seq_trace(
            [("w", 0x100, 1, "x"), ("r", 0x100, 2, "x"), ("w", 0x100, 3, "x")]
        )
        res = profile_trace(batch, PERFECT, engine)
        assert deps_of(res, DepType.WAR) == {(loc(3), loc(2), 0)}
        assert deps_of(res, DepType.WAW) == {(loc(3), loc(1), 0)}

    def test_waw(self, engine):
        batch = seq_trace([("w", 0x100, 1, "x"), ("w", 0x100, 2, "x")])
        res = profile_trace(batch, PERFECT, engine)
        assert deps_of(res, DepType.WAW) == {(loc(2), loc(1), 0)}

    def test_init_only_for_first_write(self, engine):
        batch = seq_trace([("w", 0x100, 1), ("w", 0x100, 2), ("w", 0x200, 3)])
        res = profile_trace(batch, PERFECT, engine)
        assert deps_of(res, DepType.INIT) == {(loc(1), -1, -1), (loc(3), -1, -1)}

    def test_rar_ignored(self, engine):
        batch = seq_trace([("r", 0x100, 1), ("r", 0x100, 2)])
        res = profile_trace(batch, PERFECT, engine)
        assert len(res.store) == 0

    def test_raw_source_is_last_write(self, engine):
        batch = seq_trace(
            [("w", 0x100, 1, "x"), ("w", 0x100, 2, "x"), ("r", 0x100, 3, "x")]
        )
        res = profile_trace(batch, PERFECT, engine)
        assert deps_of(res, DepType.RAW) == {(loc(3), loc(2), 0)}

    def test_war_source_is_last_read(self, engine):
        batch = seq_trace(
            [
                ("w", 0x100, 1, "x"),
                ("r", 0x100, 2, "x"),
                ("r", 0x100, 3, "x"),
                ("w", 0x100, 4, "x"),
            ]
        )
        res = profile_trace(batch, PERFECT, engine)
        assert deps_of(res, DepType.WAR) == {(loc(4), loc(3), 0)}

    def test_addresses_independent(self, engine):
        batch = seq_trace([("w", 0x100, 1), ("r", 0x200, 2)])
        res = profile_trace(batch, PERFECT, engine)
        assert deps_of(res, DepType.RAW) == set()

    def test_dep_instances_counted(self, engine):
        ops = [("w", 0x100, 1)] + [("r", 0x100, 2)] * 50
        res = profile_trace(seq_trace(ops), PERFECT, engine)
        assert res.stats.dep_instances[DepType.RAW] == 50
        assert len(res.store) == 2  # one INIT + one merged RAW
        assert res.merge_reduction_factor > 20

    def test_variable_name_from_source_access(self, engine):
        batch = seq_trace([("w", 0x100, 1, "alpha"), ("r", 0x100, 2, "beta")])
        res = profile_trace(batch, PERFECT, engine)
        (d,) = [d for d in res.store if d.dep_type == DepType.RAW]
        assert res.var_name(d.var) == "alpha"

    def test_stats_counts(self, engine):
        batch = seq_trace([("w", 0x100, 1), ("r", 0x100, 2), ("r", 0x200, 3)])
        res = profile_trace(batch, PERFECT, engine)
        assert res.stats.n_writes == 1
        assert res.stats.n_reads == 2
        assert res.stats.n_accesses == 3
        assert res.stats.n_unique_addresses == 2


class TestLifetimeAnalysis:
    def test_free_breaks_dependences_across_lifetimes(self, engine):
        """After free(), a reused address must not link to the old variable
        (Section III-B variable lifetime analysis)."""
        batch = seq_trace(
            [
                ("alloc", 0x1000, 64, 1),
                ("w", 0x1000, 2, "a"),
                ("free", 0x1000, 64, 3),
                ("alloc", 0x1000, 64, 4),
                ("r", 0x1000, 5, "b"),  # fresh lifetime: no RAW from line 2
            ]
        )
        res = profile_trace(batch, PERFECT, engine)
        assert deps_of(res, DepType.RAW) == set()

    def test_free_applies_to_whole_range(self, engine):
        ops = [("w", 0x1000 + 8 * i, 1) for i in range(8)]
        ops.append(("free", 0x1000, 64, 2))
        ops += [("w", 0x1000 + 8 * i, 3) for i in range(8)]
        res = profile_trace(seq_trace(ops), PERFECT, engine)
        # Second round of writes are INITs again, not WAWs.
        assert deps_of(res, DepType.WAW) == set()
        assert deps_of(res, DepType.INIT) == {(loc(1), -1, -1), (loc(3), -1, -1)}

    def test_free_outside_range_keeps_deps(self, engine):
        batch = seq_trace(
            [
                ("w", 0x1000, 1, "a"),
                ("free", 0x2000, 64, 2),  # different range
                ("r", 0x1000, 3, "a"),
            ]
        )
        res = profile_trace(batch, PERFECT, engine)
        assert deps_of(res, DepType.RAW) == {(loc(3), loc(1), 0)}

    def test_lifetime_disabled_keeps_stale_deps(self, engine):
        cfg = PERFECT.with_(track_lifetime=False)
        batch = seq_trace(
            [("w", 0x1000, 1, "a"), ("free", 0x1000, 64, 2), ("r", 0x1000, 3, "b")]
        )
        res = profile_trace(batch, cfg, engine)
        assert deps_of(res, DepType.RAW) == {(loc(3), loc(1), 0)}


class TestLoopCarried:
    def test_carried_raw_across_iterations(self, engine):
        # for i: { read s (line 11); write s (line 12) }  -- s carried
        ops = [("L+", 10)]
        for _ in range(3):
            ops += [("Li", 10), ("r", 0x100, 11, "s"), ("w", 0x100, 12, "s")]
        ops += [("L-", 10)]
        res = profile_trace(seq_trace(ops), PERFECT, engine)
        raws = [d for d in res.store if d.dep_type == DepType.RAW]
        assert len(raws) == 1
        assert raws[0].carried == frozenset({loc(10)})

    def test_intra_iteration_dep_not_carried(self, engine):
        # for i: { write t (line 11); read t (line 12) } -- t private-ish
        ops = [("L+", 10)]
        for it in range(3):
            addr = 0x100  # same address but written before read each iter
            ops += [("Li", 10), ("w", addr, 11, "t"), ("r", addr, 12, "t")]
        ops += [("L-", 10)]
        res = profile_trace(seq_trace(ops), PERFECT, engine)
        raws = [d for d in res.store if d.dep_type == DepType.RAW]
        assert len(raws) == 1
        assert raws[0].carried == frozenset()
        # but the write-after-read ACROSS iterations is carried:
        wars = [d for d in res.store if d.dep_type == DepType.WAR]
        assert len(wars) == 1
        assert wars[0].carried == frozenset({loc(10)})

    def test_independent_iterations_produce_no_carried_deps(self, engine):
        ops = [("L+", 10)]
        for it in range(4):
            addr = 0x100 + 8 * it  # disjoint element per iteration
            ops += [("Li", 10), ("w", addr, 11, "a"), ("r", addr, 12, "a")]
        ops += [("L-", 10)]
        res = profile_trace(seq_trace(ops), PERFECT, engine)
        assert all(d.carried == frozenset() for d in res.store)

    def test_nested_loops_carried_on_correct_level(self, engine):
        # outer loop 10, inner loop 20; dep crosses inner iterations only.
        ops = [("L+", 10)]
        for _ in range(2):
            ops += [("Li", 10), ("L+", 20)]
            for _ in range(2):
                ops += [("Li", 20), ("r", 0x100, 21, "s"), ("w", 0x100, 22, "s")]
            ops += [("L-", 20)]
        ops += [("L-", 10)]
        res = profile_trace(seq_trace(ops), PERFECT, engine)
        raws = [d for d in res.store if d.dep_type == DepType.RAW]
        carried_sets = {d.carried for d in raws}
        # Reads in inner iteration 2 see the write of inner iteration 1:
        # carried w.r.t. the inner loop only.
        assert frozenset({loc(20)}) in carried_sets
        # The first read of the second outer iteration sees the write of the
        # previous OUTER iteration; the inner loop was re-entered after that
        # write, so the dep is carried w.r.t. the outer loop only.
        assert frozenset({loc(10)}) in carried_sets
        # WARs pair each write with the same-iteration read: never carried.
        wars = [d for d in res.store if d.dep_type == DepType.WAR]
        assert {d.carried for d in wars} == {frozenset()}

    def test_dep_to_preloop_source_not_carried(self, engine):
        ops = [("w", 0x100, 1, "s"), ("L+", 10), ("Li", 10), ("r", 0x100, 11, "s"), ("L-", 10)]
        res = profile_trace(seq_trace(ops), PERFECT, engine)
        (d,) = [d for d in res.store if d.dep_type == DepType.RAW]
        assert d.carried == frozenset()

    def test_loop_info_iteration_counts(self, engine):
        ops = [("L+", 10)]
        for _ in range(7):
            ops += [("Li", 10), ("r", 0x8, 11)]
        ops += [("L-", 10)]
        res = profile_trace(seq_trace(ops), PERFECT, engine)
        assert res.loops[loc(10)].total_iterations == 7


class TestMultithreadedTargets:
    def test_cross_thread_dep_records_tids(self, engine):
        batch = seq_trace(
            [("tid", 1), ("w", 0x100, 1, "g"), ("tid", 2), ("r", 0x100, 2, "g")]
        )
        res = profile_trace(batch, PERFECT.with_(multithreaded_target=True), engine)
        (d,) = [d for d in res.store if d.dep_type == DepType.RAW]
        assert (d.sink_tid, d.source_tid) == (2, 1)
        assert res.multithreaded

    def test_timestamp_reversal_flags_race(self, engine):
        from repro.trace import TraceRecorder

        r = TraceRecorder()
        v = r.intern_var("flag")
        ts1 = r.next_ts()  # thread 1's access happens first...
        ts2 = r.next_ts()  # ...then thread 2's...
        r.write(0x8, loc=loc(5), var=v, tid=2, ts=ts2)  # ...but pushes first
        r.read(0x8, loc=loc(6), var=v, tid=1, ts=ts1)
        res = profile_trace(r.build(), PERFECT.with_(multithreaded_target=True), engine)
        (d,) = [d for d in res.store if d.dep_type == DepType.RAW]
        assert d.race
        assert res.stats.races_flagged == 1

    def test_ordered_pushes_not_flagged(self, engine):
        batch = seq_trace(
            [("tid", 1), ("w", 0x8, 5, "f"), ("tid", 2), ("r", 0x8, 6, "f")]
        )
        res = profile_trace(batch, PERFECT.with_(multithreaded_target=True), engine)
        assert res.stats.races_flagged == 0
        assert all(not d.race for d in res.store)


class TestSignatureMode:
    def test_large_signature_matches_perfect(self, engine):
        ops = []
        for i in range(40):
            ops.append(("w", 0x1000 + 8 * i, 1, "arr"))
            ops.append(("r", 0x1000 + 8 * i, 2, "arr"))
        batch = seq_trace(ops)
        sig = profile_trace(batch, ProfilerConfig(signature_slots=1 << 20), engine)
        per = profile_trace(batch, PERFECT, engine)
        assert sig.store == per.store

    def test_tiny_signature_conflates(self, engine):
        """With one slot everything collides: reads see the last write to
        *any* address (false positives, Table I mechanism)."""
        batch = seq_trace([("w", 0x100, 1, "a"), ("r", 0x999000, 2, "b")])
        res = profile_trace(batch, ProfilerConfig(signature_slots=1), engine)
        assert deps_of(res, DepType.RAW) == {(loc(2), loc(1), 0)}

    def test_reported_memory_is_the_committed_slot_footprint(self, engine):
        """Both signatures report 2 x slots x SLOT_BYTES, although one-shot
        vectorized planes hold rows only for the touched slots."""
        from repro.sigmem.signature import SLOT_BYTES

        batch = seq_trace([("w", 0x100, 1, "a"), ("r", 0x100, 2, "a")])
        res = profile_trace(batch, ProfilerConfig(signature_slots=1 << 20), engine)
        assert res.stats.tracker_memory_bytes == 2 * (1 << 20) * SLOT_BYTES

    def test_empty_trace(self, engine):
        from repro.trace import TraceBuilder

        res = profile_trace(TraceBuilder().build(), PERFECT, engine)
        assert len(res.store) == 0
        assert res.stats.n_accesses == 0


def test_unknown_engine_rejected():
    from repro.common.errors import ProfilerError
    from repro.core import DependenceProfiler

    with pytest.raises(ProfilerError):
        DependenceProfiler(engine="quantum")


def nest_ops(depth):
    """``depth`` nested loops with a read-then-write of ``s`` innermost.

    The outermost loop iterates twice, every inner loop once, so the second
    read sees the first write across an outermost iteration: carried at the
    outermost level only.
    """
    body = [("r", 0x100, 10, "s"), ("w", 0x100, 11, "s")]
    for d in reversed(range(1, depth)):
        site = 1000 + d
        body = [("L+", site), ("Li", site)] + body + [("L-", site)]
    outer = [("L+", 1000)]
    for _ in range(2):
        outer += [("Li", 1000)] + body
    return outer + [("L-", 1000)]


class TestLoopDepthLimit:
    """One limit for every vectorized path: ``MAX_SNAPSHOT_DEPTH``."""

    def test_limit_is_the_snapshot_depth(self):
        from repro.core.controlflow import MAX_SNAPSHOT_DEPTH

        assert MAX_SNAPSHOT_DEPTH == 63

    def test_deep_nest_within_limit_matches_reference(self):
        batch = seq_trace(nest_ops(40))
        vec = profile_trace(batch, PERFECT, "vectorized")
        ref = profile_trace(batch, PERFECT, "reference")
        assert vec.store == ref.store
        assert vec.store.instances == ref.store.instances
        assert vec.stats.dep_instances == ref.stats.dep_instances
        (raw,) = [d for d in vec.store if d.dep_type == DepType.RAW]
        assert raw.carried == frozenset({loc(1000)})

    def test_nest_beyond_limit_rejected_one_shot_and_pipeline(self):
        from repro.common.errors import ProfilerError
        from repro.parallel import ParallelProfiler

        batch = seq_trace(nest_ops(64))
        with pytest.raises(ProfilerError, match="loop nest depth 64"):
            profile_trace(batch, PERFECT, "vectorized")
        with pytest.raises(ProfilerError, match="loop nest depth 64"):
            ParallelProfiler(PERFECT.with_(workers=2)).profile(batch)
