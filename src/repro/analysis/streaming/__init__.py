"""Streaming DSCG reconstruction, anomaly detection and causal ranking.

The offline analyzer reconstructs chains after the run completes; this
package runs the same Figure-4 state machine *while the system runs*:

- :class:`StreamingReconstructor` — the repo's one live engine: an
  incremental DSCG state machine over the collector drain path (or any
  live record stream). Whenever event numbers are unique per chain (any
  fault-free stream, or any subset of one in any arrival order) its
  :meth:`~StreamingReconstructor.finalize` output is bit-identical to
  the batch analyzer's :func:`~repro.analysis.reconstruct` — both run
  through the shared :class:`~repro.analysis.statemachine.ChainBuilder`
  transitions. The detector below and
  :class:`~repro.analysis.online.OnlineMonitor` (live latency stats and
  alerts behind ``repro metrics``) both consume it.
- :class:`StreamingDetector` — rolling per-(interface, operation)
  latency baselines (windowed median/MAD), robust z-score spike
  detection with persistence filtering, and incident life-cycle
  management layered on top of the reconstructor.
- :class:`CausalRanker` — scores which component most likely caused an
  incident: anomaly x resource contribution x temporal correlation over
  the live chains (the spike-detector / ranker pipeline shape of
  RCA-style monitors).
- :class:`IncidentReport` — the structured, JSON-serializable outcome;
  deterministic byte-for-byte given a seed and a record stream.
- :func:`run_seeded_delay_scenario` / :func:`seeded_incident_report` —
  a seeded three-tier fault workload used by the CLI demo, the CI
  determinism gate, the regression tests and the benchmark.
"""

from repro.analysis.streaming.baselines import BaselineStat, RollingBaseline
from repro.analysis.streaming.detector import DetectionConfig, StreamingDetector
from repro.analysis.streaming.incident import (
    CauseScore,
    IncidentReport,
    incident_from_dict,
    incidents_from_json,
    incidents_to_json,
)
from repro.analysis.streaming.ranker import CausalRanker, WindowCompletion
from repro.analysis.streaming.reconstructor import StreamingReconstructor
from repro.analysis.streaming.scenario import (
    detect_run,
    run_seeded_delay_scenario,
    seeded_incident_report,
)

__all__ = [
    "BaselineStat",
    "CausalRanker",
    "CauseScore",
    "DetectionConfig",
    "IncidentReport",
    "RollingBaseline",
    "StreamingDetector",
    "StreamingReconstructor",
    "WindowCompletion",
    "detect_run",
    "incident_from_dict",
    "incidents_from_json",
    "incidents_to_json",
    "run_seeded_delay_scenario",
    "seeded_incident_report",
]
