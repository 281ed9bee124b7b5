"""Hash-partitioned parallel execution of the quality-driven pipeline.

Scale-out layer over the single-operator framework: a
:class:`~repro.parallel.router.KeyRouter` hash-partitions the input by
equi-join key through a virtual-slot table, each shard runs a complete
:class:`~repro.core.pipeline.QualityDrivenPipeline`, two interchangeable
executors drive the shards — in-process serial (deterministic) or
per-shard worker processes with batched IPC — and an optional
:class:`~repro.parallel.rebalancer.Rebalancer` repairs load skew at
runtime by migrating slot state between shards.  A third executor,
:class:`~repro.parallel.supervision.SupervisedExecutor`, wraps the
process executor in heartbeat supervision, periodic checkpoints and
bounded-replay recovery so worker crashes and hangs surface as typed
:class:`~repro.parallel.shard.ShardFailure` (and, with recovery armed,
heal byte-identically).  Ingestion can be pipelined off the caller's
thread (:class:`~repro.parallel.ingest.PipelinedIngest`) with
credit-based backpressure, and the process executors can carry their
block frames through per-shard shared-memory rings
(:data:`~repro.parallel.shard.TRANSPORT_SHM`,
:class:`~repro.parallel.shm.ShmRing`) instead of the pipe.  See
:mod:`repro.parallel.pipeline` for the exactness semantics.
"""

from .executors import (
    DEFAULT_BATCH_SIZE,
    MultiprocessingExecutor,
    SerialExecutor,
    ShardExecutor,
)
from .ingest import DEFAULT_MAX_PENDING, PipelinedIngest
from .pipeline import (
    DEFAULT_REBALANCE_INTERVAL,
    PartitionedPipeline,
    run_partitioned,
)
from .rebalancer import MigrationSpec, Rebalancer, load_imbalance
from .router import DEFAULT_SLOTS_PER_SHARD, KeyRouter, stable_hash
from .shard import (
    TRANSPORT_BLOCKS,
    TRANSPORT_SHM,
    TRANSPORT_SOCKET,
    TRANSPORTS,
    FailoverState,
    ShardFailure,
    ShardOutcome,
)
from .shm import (
    DEFAULT_RING_BYTES,
    RingAborted,
    RingError,
    RingIntegrityError,
    RingTimeout,
    ShmRing,
)
from .supervision import SupervisedExecutor, SupervisionConfig

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_REBALANCE_INTERVAL",
    "DEFAULT_RING_BYTES",
    "DEFAULT_SLOTS_PER_SHARD",
    "FailoverState",
    "KeyRouter",
    "MigrationSpec",
    "MultiprocessingExecutor",
    "PartitionedPipeline",
    "PipelinedIngest",
    "Rebalancer",
    "RingAborted",
    "RingError",
    "RingIntegrityError",
    "RingTimeout",
    "SerialExecutor",
    "ShardExecutor",
    "ShardFailure",
    "ShardOutcome",
    "ShmRing",
    "SupervisedExecutor",
    "SupervisionConfig",
    "TRANSPORT_BLOCKS",
    "TRANSPORT_SHM",
    "TRANSPORT_SOCKET",
    "TRANSPORTS",
    "load_imbalance",
    "run_partitioned",
    "stable_hash",
]
