"""Shard executors: one submission interface, two execution strategies.

* :class:`SerialExecutor` — every shard pipeline lives in-process and is
  driven synchronously.  Deterministic and zero-overhead; the reference
  executor the invariance tests run against.
* :class:`MultiprocessingExecutor` — one worker process per shard with
  batched tuple transfer: the parent buffers up to ``batch_size`` tuples
  per shard before each send, amortizing pickling and syscalls.  Every
  batch travels as one columnar :class:`~repro.core.blocks.TupleBlock`
  (one small flat object per message, schema negotiated once per shard
  and attribute set); ``transport`` only picks the carrier — the pipe
  itself or a shared-memory ring.  Results and metrics ride back once
  per shard at :meth:`~ShardExecutor.finish`, collected results as a
  :class:`~repro.core.blocks.ResultBlock`.

Both present the same lifecycle so
:class:`~repro.parallel.pipeline.PartitionedPipeline` treats them
uniformly: ``submit_batch(shard, batch)`` per routed burst in arrival
order, optional ``migrate``/``adopt``
barrier pairs when the rebalancer moves slot state between shards, then
``finish()`` exactly once.

Window-store selection (:attr:`~repro.core.pipeline.PipelineConfig.store`)
rides inside the config both executors construct shard pipelines from —
a :class:`~repro.join.store.StoreSpec` is plain picklable data, so the
same spec reaches fork/spawn workers and in-process shards alike, and the
per-store state-size peaks each shard samples come back merged through
:meth:`~repro.core.pipeline.PipelineMetrics.merge` like every other
metric.  The migration barrier is store-agnostic too: tiered shards hand
cold segments over as already-encoded blocks inside the same
:class:`~repro.core.blocks.StateBlock` envelope.
"""

from __future__ import annotations

import multiprocessing
import pickle
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.blocks import PICKLE_PROTOCOL, BlockDecoder, BlockEncoder, StateBlock
from ..core.pipeline import PipelineConfig, QualityDrivenPipeline
from ..core.tuples import StreamTuple
from .rebalancer import MigrationSpec
from .shard import (
    MSG_ABORT,
    MSG_BATCH,
    MSG_CREDIT,
    MSG_FLUSH,
    MSG_MIGRATE_IN,
    MSG_MIGRATE_OUT,
    MSG_RING,
    MSG_RING_REPLY,
    TRANSPORT_BLOCKS,
    TRANSPORT_SHM,
    TRANSPORTS,
    Outputs,
    RingDescriptors,
    ShardFailure,
    ShardOutcome,
    adopt_shard_state,
    empty_outputs,
    extract_shard_state,
    shard_worker,
)
from .shm import DEFAULT_RING_BYTES, RingAborted, RingError, ShmRing

#: Tuples buffered per shard before one IPC dispatch.  Amortizes the
#: per-message pickling/pipe cost; raise it for throughput, lower it for
#: bounded parent-side buffering.
DEFAULT_BATCH_SIZE = 256

#: Parent-side poll interval while awaiting a worker reply.  Small
#: enough that death detection feels immediate; large enough that an
#: awaited multi-second drain doesn't spin.
POLL_INTERVAL_S = 0.05


class ShardExecutor(ABC):
    """Owns N shard pipelines and feeds them routed tuples.

    ``submit_batch`` returns whatever results the shard makes available
    *immediately*: the serial executor returns them per call, the
    multiprocessing executor returns an empty batch and delivers
    everything with the shard's :class:`~repro.parallel.shard.ShardOutcome`
    at :meth:`finish`.  Accumulating all ``submit_batch`` returns plus
    the outcome outputs therefore yields the same multiset under either
    executor.
    """

    def __init__(self, config: PipelineConfig, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.config = config
        self.num_shards = num_shards
        #: Tuples submitted per shard — the executor-side load counters
        #: (the router keeps the slot-grained ones the rebalancer plans
        #: from; these are the coarse cross-check and broadcast-mode
        #: fallback, where no routing counters exist).
        self.submitted: List[int] = [0] * num_shards
        #: Shards retired mid-stream by :meth:`retire_shard`, mapped to
        #: the outcome captured at retirement.  ``finish`` folds these
        #: back in at their shard index; no message ever targets a
        #: retired shard again (the router stopped pointing slots at it
        #: before retirement).
        self._retired: Dict[int, ShardOutcome] = {}

    def add_shard(self) -> int:
        """Grow the shard pool by one mid-stream; return the new shard id.

        Elastic-resize hook: executors that support node join extend
        their per-shard bookkeeping and start a fresh worker.  The new
        shard owns no slots until the caller migrates state to it and
        repoints the router — adding a worker is pure lifecycle until
        then.
        """
        raise RuntimeError(
            f"{type(self).__name__} does not support elastic resize"
        )

    def retire_shard(self, shard: int) -> None:
        """Flush ``shard`` early and drop it from the pool (node leave).

        The caller must have migrated every slot the shard owned to
        survivors first; retirement then flushes the (state-empty)
        pipeline, stashes its outcome for :meth:`finish`, and releases
        the worker.
        """
        raise RuntimeError(
            f"{type(self).__name__} does not support elastic resize"
        )

    @abstractmethod
    def submit_batch(self, shard: int, batch: Sequence[StreamTuple]) -> Outputs:
        """Feed a routed batch to ``shard`` in arrival order; return
        results available now."""

    def migrate(
        self, shard: int, spec: MigrationSpec
    ) -> Tuple[Outputs, List[StateBlock]]:
        """Source leg of the rebalancing barrier: drain ``shard`` to the
        spec's beacon and carve out the moved slots' state.

        Returns ``(outputs, states)`` — results the barrier drain makes
        available immediately (empty under the process executor, which
        defers all results to :meth:`finish`) and one
        :class:`~repro.core.blocks.StateBlock` per destination shard.
        Executors that do not implement the drain/handoff protocol keep
        this default, which refuses rebalancing.
        """
        raise RuntimeError(
            f"{type(self).__name__} does not support state migration"
        )

    def adopt(self, shard: int, state: StateBlock) -> Outputs:
        """Destination leg of the barrier: absorb migrated state into
        ``shard``; returns immediately-available results (serial only).
        """
        raise RuntimeError(
            f"{type(self).__name__} does not support state migration"
        )

    @abstractmethod
    def finish(self) -> List[ShardOutcome]:
        """Flush every shard; return per-shard outcomes (call once)."""

    def close(self) -> None:
        """Release shard resources without collecting outcomes.

        For abandoning a run mid-stream (error paths, context-manager
        exit before flush).  Idempotent; a no-op after :meth:`finish`.
        """


class SerialExecutor(ShardExecutor):
    """All shards in-process, driven synchronously — deterministic."""

    def __init__(self, config: PipelineConfig, num_shards: int) -> None:
        super().__init__(config, num_shards)
        self.pipelines = [
            QualityDrivenPipeline(config) for _ in range(num_shards)
        ]

    def submit_batch(self, shard: int, batch: Sequence[StreamTuple]) -> Outputs:
        self.submitted[shard] += len(batch)
        return self.pipelines[shard].process_batch(batch)

    def migrate(
        self, shard: int, spec: MigrationSpec
    ) -> Tuple[Outputs, List[StateBlock]]:
        """In-process barrier: drain + extract synchronously, unencoded."""
        return extract_shard_state(
            self.pipelines[shard], shard, spec, encode=False
        )

    def adopt(self, shard: int, state: StateBlock) -> Outputs:
        return adopt_shard_state(self.pipelines[shard], state, decode=False)

    def add_shard(self) -> int:
        shard = self.num_shards
        self.num_shards += 1
        self.submitted.append(0)
        self.pipelines.append(QualityDrivenPipeline(self.config))
        return shard

    def retire_shard(self, shard: int) -> None:
        if shard in self._retired:
            raise RuntimeError(f"shard {shard} already retired")
        pipeline = self.pipelines[shard]
        self._retired[shard] = ShardOutcome(
            shard,
            pipeline.flush(),
            pipeline.metrics,
            pipeline.join.stats.as_dict(),
        )

    def finish(self) -> List[ShardOutcome]:
        return [
            self._retired[shard]
            if shard in self._retired
            else ShardOutcome(
                shard,
                pipeline.flush(),
                pipeline.metrics,
                pipeline.join.stats.as_dict(),
            )
            for shard, pipeline in enumerate(self.pipelines)
        ]


class MultiprocessingExecutor(ShardExecutor):
    """One worker process per shard, batched tuple transfer over pipes.

    Each outgoing batch is encoded as one columnar
    :class:`~repro.core.blocks.TupleBlock` through a per-shard
    schema-negotiating :class:`~repro.core.blocks.BlockEncoder`, and the
    worker ships collected results back as one
    :class:`~repro.core.blocks.ResultBlock`.  ``transport`` picks the
    carrier: :data:`TRANSPORT_BLOCKS` (default) sends every message down
    the pipe, :data:`TRANSPORT_SHM` writes bulky ones into a per-shard
    shared-memory ring.  Messages leave through ``send_bytes`` with
    pickle protocol ``5`` — serialization happens exactly once, in
    :meth:`_send`.

    Prefers the ``fork`` start method so non-picklable join conditions
    (theta lambdas) reach the children by inheritance; under ``spawn``
    the :class:`~repro.core.pipeline.PipelineConfig` must pickle.  Worker
    failures surface as a typed
    :class:`~repro.parallel.shard.ShardFailure` (a ``RuntimeError``
    subclass) carrying the shard id: a broken pipe raises from
    :meth:`_send` at the next dispatch, and the reply paths poll with
    ``Process.exitcode`` checks instead of blocking in ``recv()``, so a
    crashed worker can never deadlock the parent.
    """

    def __init__(
        self,
        config: PipelineConfig,
        num_shards: int,
        batch_size: int = DEFAULT_BATCH_SIZE,
        start_method: Optional[str] = None,
        transport: str = TRANSPORT_BLOCKS,
        credit_window: Optional[int] = None,
        ring_bytes: int = DEFAULT_RING_BYTES,
    ) -> None:
        super().__init__(config, num_shards)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if transport not in TRANSPORTS:
            raise ValueError(
                f"transport must be one of {TRANSPORTS}, got {transport!r}"
            )
        if credit_window is not None and credit_window < 1:
            raise ValueError(
                f"credit_window must be >= 1, got {credit_window}"
            )
        self.batch_size = batch_size
        self.transport = transport
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        # Retained for worker (re)spawns: the supervised subclass starts
        # replacement workers long after construction.
        self._context = multiprocessing.get_context(start_method)
        self._batches: List[List[StreamTuple]] = [[] for _ in range(num_shards)]
        self._encoders = [BlockEncoder() for _ in range(num_shards)]
        #: Credit-based backpressure: with a window of W, at most W
        #: dispatched-but-unconfirmed batches may be in flight per shard
        #: (the worker confirms each processed batch with MSG_CREDIT).
        #: ``None`` disables both the stall and the worker-side grants —
        #: the synchronous driver's behavior, where pipe buffering is
        #: the only in-flight bound.
        self._credit_window = credit_window
        self._dispatched: List[int] = [0] * num_shards
        self._credited: List[int] = [0] * num_shards
        self._ring_bytes = ring_bytes
        # Per-shard shared-memory ring pairs (shm transport only):
        # parent→worker data ring and worker→parent reply ring.  Created
        # fresh per worker incarnation in _spawn_worker; unlinked on
        # every unwind path (_release_rings).
        self._rings: List[Optional[ShmRing]] = []
        self._reply_rings: List[Optional[ShmRing]] = []
        self._connections = []
        self._processes = []
        self._finished = False
        # Worker startup can fail mid-loop (fd exhaustion, fork limits);
        # without the unwind the already-started workers would sit in
        # recv() forever holding their pipe fds.  close() handles the
        # partially-built executor: lists are appended as resources are
        # created, so whatever exists is released.
        try:
            for shard in range(num_shards):
                self._spawn_worker(shard)
        except BaseException:
            self.close()
            raise

    def _fault_plan_for(self, shard: int):
        """Fault plan handed to ``shard``'s next incarnation (subclass
        hook — the base executor injects nothing)."""
        return None

    def _ring_descriptors(self, shard: int) -> Optional[RingDescriptors]:
        """The shard's ring pair as picklable worker args, or ``None``."""
        if not self._rings or self._rings[shard] is None:
            return None
        ring, reply = self._rings[shard], self._reply_rings[shard]
        assert ring is not None and reply is not None
        return (ring.descriptor, reply.descriptor)

    def _worker_args(self, shard: int) -> tuple:
        """``shard_worker`` args after the connection (subclass hook)."""
        return (
            shard,
            self.config,
            self._fault_plan_for(shard),
            self._ring_descriptors(shard),
            self._credit_window is not None,
        )

    def _spawn_worker(self, shard: int) -> None:
        """Start ``shard``'s worker on a fresh pipe.

        Appends on first spawn; replaces in place when the supervised
        subclass respawns a worker (whose caller has already retired the
        previous incarnation's process and connection).  A fresh pipe —
        and, under the shm transport, a fresh ring pair — per
        incarnation means no stale message or frame from a dead epoch
        can ever be read back, and keeps each incarnation's ring
        sequence numbers starting from 1 (mirroring the supervisor's
        per-epoch seq accounting).
        """
        if self.transport == TRANSPORT_SHM:
            while len(self._rings) <= shard:
                self._rings.append(None)
                self._reply_rings.append(None)
            for stale in (self._rings[shard], self._reply_rings[shard]):
                if stale is not None:  # retired incarnation's segments
                    stale.close()
                    stale.unlink()
            self._rings[shard] = ShmRing.create(self._ring_bytes)
            self._reply_rings[shard] = ShmRing.create(self._ring_bytes)
        self._dispatched[shard] = 0
        self._credited[shard] = 0
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        # The worker's decoder starts empty, so the connection's schema
        # negotiation must restart from scratch too.
        self._encoders[shard] = BlockEncoder()
        if shard < len(self._connections):
            self._connections[shard] = parent_conn
        else:
            self._connections.append(parent_conn)
        try:
            process = self._context.Process(
                target=shard_worker,
                args=(child_conn,) + self._worker_args(shard),
                daemon=True,
            )
            process.start()
        finally:
            child_conn.close()
        if shard < len(self._processes):
            self._processes[shard] = process
        else:
            self._processes.append(process)

    def submit_batch(self, shard: int, batch: Sequence[StreamTuple]) -> Outputs:
        """Queue a whole routed batch with one extend per call.

        The pending buffer drains in ``batch_size`` index windows — one
        pipe message per ``batch_size`` tuples whatever the routed burst
        size, and a parent-side buffering bound of ``batch_size`` — and
        the leftover head is removed in place (``del pending[:start]``),
        so a large routed batch costs one ``extend`` plus one compaction
        instead of repeated backlog slices.  Each window is encoded
        straight from the buffer (no intermediate sub-lists at all).
        """
        if self._finished:
            raise RuntimeError("executor already finished")
        self.submitted[shard] += len(batch)
        pending = self._batches[shard]
        pending.extend(batch)
        size = self.batch_size
        if len(pending) >= size:
            start = 0
            total = len(pending)
            while total - start >= size:
                self._dispatch(shard, pending, start, start + size)
                start += size
            del pending[:start]
        return empty_outputs(self.config.collect_results)

    def _dispatch(
        self, shard: int, pending: Sequence[StreamTuple], start: int, stop: int
    ) -> None:
        """Send ``pending[start:stop]`` as one MSG_BATCH message."""
        if self._credit_window is not None:
            self._await_credit(shard)
        payload = self._encoders[shard].encode(pending, start, stop)
        self._send_message(shard, (MSG_BATCH, payload))
        self._dispatched[shard] += 1

    def _flush_pending(self, shard: int) -> None:
        """Ship whatever sits in ``shard``'s parent-side batch buffer.

        The rebalancing barrier calls this before a migration message so
        the worker has consumed every tuple routed to it first — pipe
        ordering then guarantees the barrier lands at a consistent
        point in the shard's input sequence.
        """
        pending = self._batches[shard]
        if pending:
            self._dispatch(shard, pending, 0, len(pending))
            self._batches[shard] = []

    def migrate(
        self, shard: int, spec: MigrationSpec
    ) -> Tuple[Outputs, List[StateBlock]]:
        """Synchronous barrier leg: request extraction, block on reply.

        Blocking on the worker's ``("state", ...)`` reply is what makes
        the whole rebalance a barrier — no new tuple is routed anywhere
        until the source has drained and handed its state over.  Drain
        results stay in the worker's accumulator (returned at
        :meth:`finish`), so the outputs half of the return is empty.
        """
        if self._finished:
            raise RuntimeError("executor already finished")
        self._flush_pending(shard)
        self._send(shard, (MSG_MIGRATE_OUT, spec))
        tag, payload = self._await_reply(shard)
        if tag != "state":
            raise ShardFailure(
                shard, f"state migration failed: {payload}", recoverable=False
            )
        return empty_outputs(self.config.collect_results), payload

    def adopt(self, shard: int, state: StateBlock) -> Outputs:
        """Forward migrated state; the worker absorbs it in pipe order."""
        if self._finished:
            raise RuntimeError("executor already finished")
        self._flush_pending(shard)
        # Migrated state can be arbitrarily large — ride the ring when
        # one is armed, like any bulky message.
        self._send_message(shard, (MSG_MIGRATE_IN, state))
        return empty_outputs(self.config.collect_results)

    def add_shard(self) -> int:
        """Elastic grow: extend the per-shard bookkeeping, spawn a worker.

        The new shard starts with an empty pipeline and owns no routing
        slots; the pipeline layer migrates state to it and repoints the
        router afterwards, so grow-then-migrate is byte-identical to
        having started with the larger pool.
        """
        if self._finished:
            raise RuntimeError("executor already finished")
        shard = self.num_shards
        self.num_shards += 1
        self.submitted.append(0)
        self._batches.append([])
        self._dispatched.append(0)
        self._credited.append(0)
        self._encoders.append(BlockEncoder())
        self._spawn_worker(shard)
        return shard

    def retire_shard(self, shard: int) -> None:
        """Elastic shrink: flush the (already slot-less) shard and stash
        its outcome for :meth:`finish`; release its worker and rings."""
        if self._finished:
            raise RuntimeError("executor already finished")
        if shard in self._retired:
            raise RuntimeError(f"shard {shard} already retired")
        self._flush_pending(shard)
        self._send(shard, (MSG_FLUSH, None))
        tag, payload = self._await_reply(shard)
        if tag != "ok":
            raise ShardFailure(shard, str(payload), recoverable=False)
        if self.config.collect_results:
            payload.outputs = BlockDecoder().decode_results(payload.outputs)
        self._retired[shard] = payload
        self._connections[shard].close()
        process = self._processes[shard]
        process.join(timeout=30)
        if process.is_alive():  # pragma: no cover - defensive
            process.terminate()
            process.join(timeout=5)
        if self._rings and self._rings[shard] is not None:
            reply_ring = self._reply_rings[shard]
            for ring in (self._rings[shard], reply_ring):
                if ring is not None:
                    ring.close()
                    ring.unlink()
            self._rings[shard] = None
            self._reply_rings[shard] = None

    def _send(self, shard: int, message) -> None:
        # Serialize exactly once (protocol 5) and ship raw bytes.  A
        # broken pipe means the worker is gone: surface it as a typed
        # failure right here — preferring the worker's own buffered
        # ("error", ...) report when one exists — instead of letting a
        # later blocking recv() deadlock on a reply that can never come.
        try:
            self._connections[shard].send_bytes(
                pickle.dumps(message, protocol=PICKLE_PROTOCOL)
            )
        except OSError as exc:
            raise self._dead_worker(shard, str(exc)) from exc

    def _send_message(self, shard: int, message) -> None:
        """Ship one bulky parent → worker message by the armed transport.

        Under the shm transport the pickled message is written once into
        the shard's inbound ring and only a ``(MSG_RING, seq)`` doorbell
        crosses the pipe; frames the ring can never hold fall back to
        the pipe whole.  Other transports go straight through
        :meth:`_send`.  The doorbell travels the same pipe as every
        other message, so FIFO ordering — and with it the supervised
        epoch/seq accounting — is untouched by which carrier the bytes
        took.
        """
        ring = self._rings[shard] if self._rings else None
        if ring is None:
            self._send(shard, message)
            return
        frame = pickle.dumps(message, protocol=PICKLE_PROTOCOL)
        if not ring.fits(len(frame)):
            try:
                self._connections[shard].send_bytes(frame)
            except OSError as exc:
                raise self._dead_worker(shard, str(exc)) from exc
            return
        process = self._processes[shard] if shard < len(self._processes) else None

        def worker_dead() -> bool:
            return process is not None and process.exitcode is not None

        try:
            seq = ring.write_frame(frame, should_abort=worker_dead)
        except RingAborted as exc:
            raise self._dead_worker(shard, str(exc)) from exc
        self._send(shard, (MSG_RING, seq))

    def _absorb_credit(self, shard: int, tag, payload) -> bool:
        """Fold one ``(MSG_CREDIT, n)`` grant into the shard's counter."""
        if tag != MSG_CREDIT:
            return False
        if payload > self._credited[shard]:
            self._credited[shard] = payload
        return True

    def _await_credit(self, shard: int) -> None:
        """Stall until the shard's in-flight batch count drops below the
        credit window.

        This is the backpressure point of the pipelined feeder: a slow
        worker simply stops granting, and dispatch to that shard blocks
        here — bounded memory, no deadlock (a *dead* worker surfaces as
        a typed failure through the same checks ``_await_reply`` uses;
        a merely stalled one is legal slowness, so there is no timeout).
        """
        window = self._credit_window
        assert window is not None
        conn = self._connections[shard]
        process = self._processes[shard] if shard < len(self._processes) else None
        while self._dispatched[shard] - self._credited[shard] >= window:
            try:
                ready = conn.poll(POLL_INTERVAL_S)
            except OSError as exc:
                exitcode = None if process is None else process.exitcode
                raise ShardFailure(
                    shard,
                    f"worker pipe broken (exit code {exitcode}): {exc}",
                ) from None
            if ready:
                try:
                    tag, payload = conn.recv()
                except (EOFError, OSError):
                    raise ShardFailure(
                        shard,
                        "worker died holding "
                        f"{self._dispatched[shard] - self._credited[shard]} "
                        "uncredited batches",
                    ) from None
                if tag == "error":
                    raise ShardFailure(shard, str(payload), recoverable=False)
                if not self._absorb_credit(shard, tag, payload):
                    raise ShardFailure(
                        shard,
                        f"unexpected {tag!r} message while awaiting credit",
                    )
                continue
            if process is not None and process.exitcode is not None:
                try:
                    buffered = conn.poll(0)
                except OSError:
                    buffered = False
                if not buffered:
                    raise ShardFailure(
                        shard,
                        f"worker exited with code {process.exitcode} "
                        "before granting credit",
                    )

    def _read_ring_reply(self, shard: int, seq: int):
        """Resolve a ``(MSG_RING_REPLY, seq)`` doorbell into the framed
        reply from the shard's outbound ring."""
        ring = self._reply_rings[shard]
        assert ring is not None
        try:
            # The worker writes the frame before ringing the doorbell,
            # so the read never truly waits; the timeout is a torn-state
            # backstop, not a liveness mechanism.
            frame = ring.read_frame(seq, timeout_s=60.0)
        except RingError as exc:
            raise ShardFailure(shard, f"reply ring failed: {exc}") from exc
        return pickle.loads(frame)

    def _dead_worker(self, shard: int, cause: str) -> ShardFailure:
        """Build the typed failure for a pipe that broke under a send.

        A worker whose pipeline raised reports ``("error", text)`` and
        exits, closing its pipe end; the *next* send then breaks.  Drain
        whatever the dead worker left buffered so that report — the real
        diagnosis — wins over the generic broken-pipe symptom.
        """
        conn = self._connections[shard]
        try:
            while conn.poll(0):
                tag, payload = conn.recv()
                if tag == "error":
                    return ShardFailure(shard, str(payload), recoverable=False)
        except (EOFError, OSError):
            pass
        # During constructor unwind the connection may exist without its
        # process (spawn failed between the two appends).
        exitcode = (
            self._processes[shard].exitcode
            if shard < len(self._processes)
            else None
        )
        return ShardFailure(
            shard, f"worker pipe closed (exit code {exitcode}): {cause}"
        )

    def _await_reply(self, shard: int, timeout: Optional[float] = None):
        """Receive one worker reply with death (and hang) detection.

        Polls instead of blocking in ``recv()``: a dead worker surfaces
        as a typed :class:`ShardFailure` via pipe EOF or its exitcode,
        and — when ``timeout`` is given — a worker that is alive but
        unresponsive surfaces as a failure too, instead of deadlocking
        the parent forever.  A reply already buffered by a worker that
        exited afterwards is still delivered (writes complete before
        exit, so observing a non-``None`` exitcode means everything the
        worker ever sent is pollable).
        """
        conn = self._connections[shard]
        process = self._processes[shard]
        waited = 0.0
        while True:
            try:
                ready = conn.poll(POLL_INTERVAL_S)
            except OSError as exc:
                # A SIGKILLed peer resets the pipe: poll() itself raises.
                raise ShardFailure(
                    shard,
                    f"worker pipe broken (exit code {process.exitcode}): "
                    f"{exc}",
                ) from None
            if ready:
                try:
                    tag, payload = conn.recv()
                except (EOFError, OSError):
                    raise ShardFailure(
                        shard,
                        "worker died without reporting "
                        f"(exit code {process.exitcode})",
                    ) from None
                if self._absorb_credit(shard, tag, payload):
                    continue  # late grant interleaved with the reply
                if tag == MSG_RING_REPLY:
                    return self._read_ring_reply(shard, payload)
                return tag, payload
            if process.exitcode is not None:
                try:
                    buffered = conn.poll(0)
                except OSError:
                    buffered = False
                if not buffered:
                    raise ShardFailure(
                        shard,
                        f"worker exited with code {process.exitcode} "
                        "before replying",
                    )
            waited += POLL_INTERVAL_S
            if timeout is not None and waited >= timeout:
                raise ShardFailure(
                    shard,
                    f"no reply within {timeout:.1f}s "
                    "(worker alive but unresponsive)",
                )

    def _release_rings(self) -> None:
        """Close and unlink every owned ring segment.  Idempotent; part
        of every unwind path (finish, close, constructor failure) so no
        ``/dev/shm`` segment outlives the executor."""
        for ring in self._rings + self._reply_rings:
            if ring is not None:
                ring.close()
                ring.unlink()
        self._rings = []
        self._reply_rings = []

    def finish(self) -> List[ShardOutcome]:
        if self._finished:
            raise RuntimeError("executor already finished")
        self._finished = True
        outcomes: List[ShardOutcome] = []
        try:
            for shard in range(self.num_shards):
                if shard in self._retired:
                    continue
                if self._batches[shard]:
                    pending = self._batches[shard]
                    self._dispatch(shard, pending, 0, len(pending))
                    self._batches[shard] = []
                self._send(shard, (MSG_FLUSH, None))
            for shard in range(self.num_shards):
                if shard in self._retired:
                    # Flushed (and decoded) at retirement; fold the
                    # stashed outcome in at its shard index.
                    outcomes.append(self._retired[shard])
                    continue
                tag, payload = self._await_reply(shard)
                if tag != "ok":
                    raise ShardFailure(
                        shard, str(payload), recoverable=False
                    )
                if self.config.collect_results:
                    # Each worker encoded with its own fresh encoder, so
                    # each outcome block carries its schema inline; a
                    # fresh decoder per outcome keeps the pairing exact.
                    payload.outputs = BlockDecoder().decode_results(
                        payload.outputs
                    )
                outcomes.append(payload)
        finally:
            for conn in self._connections:
                conn.close()
            for process in self._processes:
                process.join(timeout=30)
                if process.is_alive():  # pragma: no cover - defensive
                    process.terminate()
                    process.join(timeout=5)
            self._release_rings()
        return outcomes

    def close(self) -> None:
        """Terminate workers without collecting outcomes (abandoned run).

        Without this, a pipeline dropped before ``flush()`` would leave
        every worker blocked in ``recv`` (plus its pipe fds) until the
        host process exits — daemon workers bound the damage at exit, but
        long-lived hosts need the explicit release.  Also the unwind path
        for a constructor that failed mid-startup, where connections may
        outnumber started processes.

        Per-shard aborts are best-effort: an abort bound for a worker
        that already died raises the typed dead-worker failure, and
        propagating it here would skip aborting/joining every *later*
        worker — exactly the leak this method exists to prevent — so
        send failures are swallowed and the join sweep always runs.
        """
        already_finished = self._finished
        self._finished = True
        if not already_finished:
            for shard in range(len(self._connections)):
                if shard in self._retired:
                    continue  # worker already flushed and joined
                try:
                    self._send(shard, (MSG_ABORT, None))
                except ShardFailure:
                    continue
        for conn in self._connections:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if already_finished:
            self._release_rings()  # no-op after finish, real after close
            return  # finish() already joined the workers
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=5)
        self._release_rings()
