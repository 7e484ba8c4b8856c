"""Task-specific trust for device-to-device offloading.

A server-side teacher agent distills per-(device, task type) trust semantics
from collaboration history, matches tasks to collaborators through a
short-circuit feasibility chain, and ships small candidate bundles to
device-side students that make the final pick. See README.md for the tour.
"""

from .domain import (
    COMM_METRICS,
    COMP_METRICS,
    DEFAULT_TASK_TYPES,
    FACE_RECOGNITION,
    TEXT_WORD_COUNT,
    VIDEO_TRANSCODING,
    DeviceId,
    PerformanceRecord,
    ResourceProfile,
    Task,
    TaskType,
    TimestampMs,
    Trend,
    TrustSemantics,
    TrustState,
    Verdict,
)
from .errors import (
    ConfigError,
    DuplicateRecordError,
    HeterogeneousInputError,
    MalformedFrameError,
    ProtocolError,
    RemoteEngineError,
    SchemaViolationError,
    StaleUpdateError,
    TwoTsdError,
    UnknownKindError,
    UnsortedInputError,
    ValidationError,
    VersionMismatchError,
)
from .matching import MatchConfig, MatchVerdict, Stage, StageResult, evaluate_chain
from .memory import HistoryQuery, HistoryStore, MemoryModule, ResourceStore, SemanticsTree
from .semantics import (
    DeterministicEngine,
    SemanticsEngine,
    StateConfig,
    TrendConfig,
    aggregate_state,
    detect_trend,
    extract_semantics,
)
from .simulation import LatencyModel, RunResult, ScenarioConfig, run_scenario
from .student import DecisionPolicy, PolicyKind, decide, default_adverse_map
from .teacher import Candidate, CandidateBundle, TeacherAgent, TeacherConfig

__version__ = "0.1.0"

__all__ = [
    "COMM_METRICS",
    "COMP_METRICS",
    "DEFAULT_TASK_TYPES",
    "FACE_RECOGNITION",
    "TEXT_WORD_COUNT",
    "VIDEO_TRANSCODING",
    "Candidate",
    "CandidateBundle",
    "ConfigError",
    "DecisionPolicy",
    "DeterministicEngine",
    "DeviceId",
    "DuplicateRecordError",
    "HeterogeneousInputError",
    "HistoryQuery",
    "HistoryStore",
    "LatencyModel",
    "MalformedFrameError",
    "MatchConfig",
    "MatchVerdict",
    "MemoryModule",
    "PerformanceRecord",
    "PolicyKind",
    "ProtocolError",
    "RemoteEngineError",
    "ResourceProfile",
    "ResourceStore",
    "RunResult",
    "ScenarioConfig",
    "SchemaViolationError",
    "SemanticsEngine",
    "SemanticsTree",
    "Stage",
    "StageResult",
    "StaleUpdateError",
    "StateConfig",
    "Task",
    "TaskType",
    "TeacherAgent",
    "TeacherConfig",
    "TimestampMs",
    "Trend",
    "TrendConfig",
    "TrustSemantics",
    "TrustState",
    "TwoTsdError",
    "UnknownKindError",
    "UnsortedInputError",
    "ValidationError",
    "Verdict",
    "VersionMismatchError",
    "aggregate_state",
    "decide",
    "default_adverse_map",
    "detect_trend",
    "evaluate_chain",
    "extract_semantics",
    "run_scenario",
    "__version__",
]
