"""High-level profiler facade.

Wires a :class:`~repro.common.ProfilerConfig` to trackers and an engine, so
callers profile a trace in one line::

    result = DependenceProfiler(ProfilerConfig(signature_slots=10**7)).profile(batch)

Engines:

* ``"vectorized"`` (default) — one :class:`~repro.core.vectorized.ChunkKernel`
  pass over the whole trace, the same kernel the pipeline workers run;
  identical output, fast.
* ``"reference"``  — Algorithm 1 event-at-a-time; the executable spec.

Telemetry: pass a :class:`~repro.obs.metrics.MetricsRegistry` to record an
``engine`` span, access/dependence counters, and signature occupancy
gauges for the run; with no registry the engines run uninstrumented.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.common.config import ProfilerConfig
from repro.common.errors import ProfilerError
from repro.core.reference import ReferenceEngine
from repro.core.result import ProfileResult
from repro.core.vectorized import ChunkKernel
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceCollector
from repro.sigmem import ArraySignature, PerfectSignature
from repro.sigmem.signature import AccessTracker
from repro.trace import TraceBatch

ENGINES = ("vectorized", "reference")


def make_trackers(
    config: ProfilerConfig,
    registry: MetricsRegistry | None = None,
    track_conflicts: bool = False,
) -> tuple[AccessTracker, AccessTracker]:
    """Build the (read, write) tracker pair a configuration calls for.

    With a registry, array signatures count hash-conflict evictions into
    ``sigmem.evictions{kind=...}`` counters.  ``track_conflicts`` turns on
    the owner-address plane that :meth:`ArraySignature.suspect_source`
    needs — provenance collection asks for it even without a registry.
    """
    if config.perfect_signature:
        return PerfectSignature(), PerfectSignature()

    def signature(kind: str) -> ArraySignature:
        return ArraySignature(
            config.signature_slots,
            config.hash_salt,
            eviction_counter=(
                registry.counter("sigmem.evictions", kind=kind)
                if registry is not None
                else None
            ),
            track_conflicts=track_conflicts,
        )

    return signature("read"), signature("write")


class DependenceProfiler:
    """Profile traces under one configuration."""

    def __init__(
        self,
        config: ProfilerConfig | None = None,
        engine: str = "vectorized",
        registry: MetricsRegistry | None = None,
        provenance: ProvenanceCollector | None = None,
    ) -> None:
        if engine not in ENGINES:
            raise ProfilerError(f"unknown engine {engine!r}; pick from {ENGINES}")
        self.config = config if config is not None else ProfilerConfig()
        # One-shot provenance runs on the reference engine, whose
        # signatures carry the conflict tracking it reports (the pipeline's
        # chunk kernel records provenance itself), so a collector selects
        # "reference".
        self.engine_name = "reference" if provenance is not None else engine
        self.registry = registry
        self.provenance = provenance

    def profile(self, batch: TraceBatch) -> ProfileResult:
        """Run the configured engine over ``batch`` and return the result."""
        reg = self.registry
        span = (
            reg.span("engine", engine=self.engine_name)
            if reg is not None
            else nullcontext()
        )
        with span:
            if self.engine_name == "vectorized":
                result = ChunkKernel.one_shot(self.config).run(batch)
            else:
                prov = self.provenance
                read_tracker, write_tracker = make_trackers(
                    self.config, reg, track_conflicts=prov is not None
                )
                result = ReferenceEngine(
                    self.config, read_tracker, write_tracker, provenance=prov
                ).run(batch)
                if reg is not None:
                    pair = (("read", read_tracker), ("write", write_tracker))
                    for kind, tracker in pair:
                        reg.gauge_fn("sigmem.occupied", tracker.occupied, kind=kind)
                    if isinstance(read_tracker, ArraySignature):
                        for kind, tracker in pair:
                            reg.gauge_fn(
                                "sigmem.fill_ratio", tracker.fill_ratio, kind=kind
                            )
        if reg is None:
            return result
        result.stats.publish(reg)
        reg.gauge("engine.unique_addresses").set(result.stats.n_unique_addresses)
        reg.gauge("deps.merged_entries").set(result.store.n_entries)
        return result


def profile_trace(
    batch: TraceBatch,
    config: ProfilerConfig | None = None,
    engine: str = "vectorized",
    registry: MetricsRegistry | None = None,
    provenance: ProvenanceCollector | None = None,
) -> ProfileResult:
    """Convenience one-shot profiling call."""
    return DependenceProfiler(config, engine, registry, provenance).profile(batch)
