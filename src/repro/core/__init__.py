"""The data-dependence profiler core (Sections III and V of the paper).

The profiler consumes a :class:`~repro.trace.TraceBatch` and produces a
:class:`ProfileResult`: merged pair-wise dependences (RAW/WAR/WAW plus INIT
for first writes), runtime control-flow information (loop regions with
iteration counts), and bookkeeping statistics.

Two engines implement identical semantics:

* :class:`ReferenceEngine` — Algorithm 1 transcribed event-at-a-time; the
  executable specification.
* ``"vectorized"`` — :class:`~repro.core.vectorized.ChunkKernel`, a numpy
  formulation that sorts accesses by (tracking key, stream position) and
  derives each access's previous read/write via segmented cumulative
  maxima.  One-shot profiling runs it once over the whole trace, pipeline
  workers chunk by chunk; it is differentially tested against the
  reference on random and delayed-push multithreaded traces.

Both are exposed through the :class:`DependenceProfiler` facade, which picks
trackers from a :class:`~repro.common.ProfilerConfig` (array signature or
perfect signature) and renders results in the paper's output format.
"""

from repro.core.deps import (
    DepType,
    Dependence,
    DependenceStore,
    instance_rates,
    set_rates,
)
from repro.core.controlflow import LoopInfo, extract_loop_info
from repro.core.result import ProfileResult, ProfileStats
from repro.core.reference import ReferenceEngine
from repro.core.profiler import DependenceProfiler, profile_trace
from repro.core.output import (
    OutputDiff,
    diff_outputs,
    format_dependences,
    parse_dependences,
)

__all__ = [
    "DepType",
    "Dependence",
    "DependenceProfiler",
    "DependenceStore",
    "LoopInfo",
    "OutputDiff",
    "ProfileResult",
    "ProfileStats",
    "ReferenceEngine",
    "diff_outputs",
    "extract_loop_info",
    "format_dependences",
    "instance_rates",
    "parse_dependences",
    "profile_trace",
    "set_rates",
]
