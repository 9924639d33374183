"""Core Kishu machinery: VarGraphs, co-variables, delta detection, the
checkpoint graph, incremental checkout, and fallback recomputation."""

from repro.analysis import ReadOnlyCellAnalyzer
from repro.core.covariable import (
    CoVariable,
    CoVariablePool,
    CoVarKey,
    covar_key,
    group_into_components,
)
from repro.core.delta import DeltaDetector, StateDelta, fold_deltas
from repro.core.graph import (
    CheckpointGraph,
    CheckpointNode,
    PayloadInfo,
    ROOT_ID,
    StateDifference,
)
from repro.core.hashing import digest_array, digest_bytes, fnv1a64
from repro.core.objectwalk import DEFAULT_POLICY, TraversalPolicy, Visit
from repro.core.planner import CheckoutPlan, CheckoutPlanner, PlannedLoad
from repro.core.restore import CheckoutReport, DataRestorer, StateLoader
from repro.core.retry import NO_RETRY, RetryPolicy
from repro.core.serialization import (
    Blocklist,
    FallbackPickler,
    PrimaryPickler,
    SerializerChain,
)
from repro.core.session import CellCheckpointMetrics, KishuSession, LogEntry
from repro.core.storage import (
    CheckpointStore,
    InMemoryCheckpointStore,
    RecoveryReport,
    SQLiteCheckpointStore,
    StoredNode,
    StoredPayload,
)
from repro.core.vargraph import (
    GraphNode,
    SubtreeCache,
    VarGraph,
    VarGraphBuilder,
    graphs_equal,
)
from repro.core.versioning import SessionState, VersionedCoVariable

__all__ = [
    "CoVariable",
    "CoVariablePool",
    "CoVarKey",
    "covar_key",
    "group_into_components",
    "DeltaDetector",
    "StateDelta",
    "fold_deltas",
    "CheckpointGraph",
    "CheckpointNode",
    "PayloadInfo",
    "ROOT_ID",
    "StateDifference",
    "digest_array",
    "digest_bytes",
    "fnv1a64",
    "DEFAULT_POLICY",
    "TraversalPolicy",
    "Visit",
    "CheckoutPlan",
    "CheckoutPlanner",
    "PlannedLoad",
    "CheckoutReport",
    "DataRestorer",
    "StateLoader",
    "NO_RETRY",
    "RetryPolicy",
    "ReadOnlyCellAnalyzer",
    "Blocklist",
    "FallbackPickler",
    "PrimaryPickler",
    "SerializerChain",
    "CellCheckpointMetrics",
    "KishuSession",
    "LogEntry",
    "CheckpointStore",
    "InMemoryCheckpointStore",
    "RecoveryReport",
    "SQLiteCheckpointStore",
    "StoredNode",
    "StoredPayload",
    "GraphNode",
    "SubtreeCache",
    "VarGraph",
    "VarGraphBuilder",
    "graphs_equal",
    "SessionState",
    "VersionedCoVariable",
]
