"""Supervised shard execution: heartbeats, checkpoint/replay recovery.

:class:`SupervisedExecutor` wraps the multiprocessing executor's worker
protocol in a supervision loop so a crashed, killed, or hung worker is
an *event*, not the end of the run:

* **Liveness** — every dispatch path runs through the polling
  ``_await_reply`` (pipe EOF + ``Process.exitcode`` + timeout) and a
  configurable heartbeat cadence sends ``MSG_PING`` probes whose
  ``MSG_PONG`` echo, by pipe ordering, acknowledges every batch
  dispatched before it.  Crashes and hangs surface as a typed
  :class:`~repro.parallel.shard.ShardFailure` within the heartbeat
  timeout instead of deadlocking a blocking ``recv()``.

* **Checkpoint/replay recovery** — every ``checkpoint_interval``
  dispatched batches the parent requests a ``MSG_CHECKPOINT``: the
  worker snapshots its full state through the migration extraction path
  (tier-aware, observationally a no-op — see
  :func:`~repro.parallel.shard.checkpoint_shard_state`) into a
  CRC-checked :class:`~repro.core.blocks.CheckpointFrame`, and ships
  the *delta* of results since the previous checkpoint plus cumulative
  stats/metrics snapshots.  The parent keeps, per shard: the last
  *accepted* checkpoint, a bounded replay log of everything dispatched
  after it (tuple batches and adopted state blocks, keyed by ``seq``),
  and the admitted output deltas.  On failure: kill the incarnation,
  back off exponentially, respawn on a **fresh pipe** under a new
  ``epoch``, restore the checkpoint via ``MSG_MIGRATE_IN``, replay the
  log in ``seq`` order, and confirm with a ping.  Each result reaches
  the parent exactly once — either inside an admitted checkpoint delta
  or inside the final outcome of the incarnation that survives — so a
  recovered run's output sequence *and* ``JoinStatistics`` are
  byte-identical to an undisturbed run's.

* **Epoch/seq dedup** — a checkpoint record is admitted only if its
  ``(epoch, seq)`` matches the request and its frame passes CRC.  A
  rejected record (stale epoch, corrupt frame) is treated as never
  having existed — including its output delta, which the replay of the
  covered batches regenerates under the next epoch — and immediately
  triggers recovery from the previous good checkpoint.

* **Graceful degradation** — when a shard exhausts its respawn budget,
  its :class:`~repro.parallel.shard.FailoverState` (checkpoint state in
  adoptable form + replay batches) travels up inside the terminal
  ``ShardFailure``; the partitioned pipeline repartitions it across the
  surviving shards through the ordinary migration machinery.

Design invariants worth knowing when editing:

* The replay log is **bounded** by the checkpoint cadence: admitting a
  checkpoint at ``seq`` trims every entry ``<= seq`` (the frame covers
  batches ``1..seq`` by pipe ordering).
* ``migrate``/``adopt`` barrier legs force a checkpoint right after
  they complete, so recovery never has to re-run a half-done barrier
  from the log: a crash *during* a migrate leg recovers to the
  pre-migrate state and re-extracts (deterministic — identical state
  blocks); a crash after the forced checkpoint needs no barrier replay
  at all.
* Raw tuple batches (not encoded blocks) go into the log: a respawned
  worker negotiates schemas from scratch, so replay re-encodes with the
  incarnation's fresh encoder.
* Worker ``("error", ...)`` replies are *non-recoverable*: the shard
  pipeline raised deterministically, and replaying the same input would
  raise the same way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.blocks import (
    BlockDecoder,
    CheckpointFrame,
    CheckpointIntegrityError,
    ColdSegment,
    StateBlock,
    WindowPayload,
    WindowStateItem,
    decode_state,
    encode_state,
    segment_column,
    thaw_segment,
    verify_checkpoint,
    unframe_checkpoint,
)
from ..core.pipeline import (
    Outputs,
    PipelineConfig,
    PipelineMetrics,
    empty_outputs,
    merge_outputs,
)
from ..core.tuples import StreamTuple
from ..faults import FaultPlan
from .executors import DEFAULT_BATCH_SIZE, MultiprocessingExecutor
from .shm import DEFAULT_RING_BYTES
from .rebalancer import MigrationSpec
from .shard import (
    MSG_BATCH,
    MSG_CHECKPOINT,
    MSG_FLUSH,
    MSG_MIGRATE_IN,
    MSG_MIGRATE_OUT,
    MSG_PING,
    MSG_PONG,
    CheckpointRequest,
    FailoverState,
    ShardFailure,
    ShardOutcome,
    TRANSPORT_BLOCKS,
    slot_classifier,
    value_classifier,
)

#: Replay-log entry kinds (the payload is a raw tuple list or a
#: StateBlock respectively).
KIND_BATCH = "batch-entry"
KIND_ADOPT = "adopt-entry"


@dataclass(frozen=True)
class SupervisionConfig:
    """Supervision/recovery knobs of :class:`SupervisedExecutor`.

    Intervals are counted in *dispatched batches per shard* — the unit
    the replay log is keyed in — not wall time: a stalled input stream
    should not burn heartbeats or churn checkpoints.
    """

    #: Dispatched batches between ``MSG_PING`` liveness probes
    #: (0 disables pings; checkpoints still act as liveness probes).
    heartbeat_interval: int = 16
    #: Seconds a worker gets to answer a synchronous request (ping,
    #: checkpoint, migrate) before it is declared hung.
    heartbeat_timeout_s: float = 10.0
    #: Dispatched batches between checkpoints (0 disables checkpointing;
    #: recovery then degrades to full-input replay being impossible —
    #: failures become terminal unless the failure precedes any batch).
    checkpoint_interval: int = 64
    #: Respawn budget per shard across the whole run.
    max_respawns: int = 3
    #: Base of the exponential backoff between respawns (doubles per
    #: consecutive respawn of the same shard).
    backoff_base_s: float = 0.05
    #: Master switch: ``False`` turns every failure terminal — the mode
    #: that proves a crash surfaces as a typed error within the
    #: heartbeat timeout instead of a deadlock.
    recover: bool = True
    #: Attach a :class:`~repro.parallel.shard.FailoverState` to the
    #: terminal failure of a budget-exhausted shard so the pipeline can
    #: fail its slots over to survivors instead of aborting.
    failover: bool = True

    def __post_init__(self) -> None:
        if self.heartbeat_interval < 0:
            raise ValueError("heartbeat_interval must be >= 0")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        if self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be > 0")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")


@dataclass
class _Checkpoint:
    """Parent-side record of a shard's last *accepted* checkpoint."""

    epoch: int
    seq: int
    frame: CheckpointFrame
    #: Absolute join stats as of this checkpoint (incarnation base +
    #: the record's cumulative snapshot).
    stats: Dict[str, int]
    #: Absolute metrics as of this checkpoint, same accounting.
    metrics: PipelineMetrics


def _add_stats(base: Dict[str, int], delta: Dict[str, int]) -> Dict[str, int]:
    total = dict(base)
    for key, value in delta.items():
        total[key] = total.get(key, 0) + value
    return total


def partition_failover_state(
    window: Sequence[WindowStateItem],
    pending: Sequence[StreamTuple],
    spec: MigrationSpec,
) -> List[StateBlock]:
    """Split a dead shard's recovered state into per-survivor blocks.

    The same classification the migration barrier uses
    (:func:`~repro.parallel.shard.slot_classifier` /
    :func:`~repro.parallel.shard.value_classifier`), applied parent-side
    to checkpoint state instead of worker-side to live state.  Cold
    segments whose partition-attribute column classifies uniformly move
    still-frozen; mixed segments are thawed and classified per tuple.
    The spec's moves cover every slot the dead shard owned, so every
    item classifies to some survivor; anything that doesn't (a tuple
    whose key hashed outside the moved slots would indicate router
    drift) is routed to the first destination rather than dropped.
    """
    classify = slot_classifier(spec)
    classify_value = value_classifier(spec)
    destinations = sorted(set(spec.moves.values()))
    fallback = destinations[0]
    per_dest_window: Dict[int, List[WindowStateItem]] = {}
    per_dest_pending: Dict[int, List[StreamTuple]] = {}
    for item in window:
        if isinstance(item, ColdSegment):
            attr = spec.attr_by_stream[item.stream()]
            groups = set()
            if attr is not None:
                for value in segment_column(item, attr):
                    groups.add(classify_value(value))
            if len(groups) == 1:
                only = next(iter(groups))
                dest = fallback if only is None else only
                per_dest_window.setdefault(dest, []).append(item)
            else:
                for t in thaw_segment(item):
                    dest = classify(t)
                    per_dest_window.setdefault(
                        fallback if dest is None else dest, []
                    ).append(t)
        else:
            dest = classify(item)
            per_dest_window.setdefault(
                fallback if dest is None else dest, []
            ).append(item)
    for t in pending:
        dest = classify(t)
        per_dest_pending.setdefault(
            fallback if dest is None else dest, []
        ).append(t)
    slots_by_dest: Dict[int, List[int]] = {}
    for slot, dest in sorted(spec.moves.items()):
        slots_by_dest.setdefault(dest, []).append(slot)
    states: List[StateBlock] = []
    for dest in destinations:
        window_leg: WindowPayload = []
        window_leg.extend(per_dest_window.get(dest, []))
        pending_leg = per_dest_pending.get(dest, [])
        slots = tuple(slots_by_dest.get(dest, []))
        states.append(encode_state(-1, dest, slots, window_leg, pending_leg))
    return states


class SupervisedExecutor(MultiprocessingExecutor):
    """Multiprocessing executor with supervision + checkpoint recovery.

    See the module docstring for the protocol.  Observability counters
    (``respawns``, ``checkpoints_taken``, ``checkpoints_rejected``,
    ``replayed_batches``, ``failed_over``) are plain attributes the soak
    harness and the benchmarks read after the run.
    """

    def __init__(
        self,
        config: PipelineConfig,
        num_shards: int,
        batch_size: int = DEFAULT_BATCH_SIZE,
        start_method: Optional[str] = None,
        transport: str = TRANSPORT_BLOCKS,
        supervision: Optional[SupervisionConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        credit_window: Optional[int] = None,
        ring_bytes: int = DEFAULT_RING_BYTES,
    ) -> None:
        self.supervision = supervision if supervision is not None else SupervisionConfig()
        self._fault_plan = fault_plan
        # Per-shard supervision state — initialized before super() so
        # the base constructor's _spawn_worker calls (which consult
        # _worker_args and _epoch) see it.
        self._epoch: List[int] = [0] * num_shards
        self._seq: List[int] = [0] * num_shards
        self._since_ping: List[int] = [0] * num_shards
        self._since_ckpt: List[int] = [0] * num_shards
        self._respawns: List[int] = [0] * num_shards
        self._replay: List[List[Tuple[int, str, Any]]] = [
            [] for _ in range(num_shards)
        ]
        self._checkpoints: List[Optional[_Checkpoint]] = [None] * num_shards
        #: Output deltas admitted from checkpoints, per shard (decoded).
        self._deltas: List[Outputs] = [
            empty_outputs(config.collect_results) for _ in range(num_shards)
        ]
        #: Stats/metrics of the *current incarnation's* spawn point —
        #: worker counters restart at zero after a respawn, so absolute
        #: accounting is base + the incarnation's cumulative snapshot.
        self._stats_base: List[Dict[str, int]] = [{} for _ in range(num_shards)]
        self._metrics_base: List[Optional[PipelineMetrics]] = [None] * num_shards
        #: Stats/metrics synthesized for budget-exhausted shards.
        self._dead_records: List[Optional[_Checkpoint]] = [None] * num_shards
        self.respawns = 0
        self.checkpoints_taken = 0
        self.checkpoints_rejected = 0
        self.replayed_batches = 0
        self.failed_over: Set[int] = set()
        super().__init__(
            config,
            num_shards,
            batch_size=batch_size,
            start_method=start_method,
            transport=transport,
            credit_window=credit_window,
            ring_bytes=ring_bytes,
        )

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------

    def add_shard(self) -> int:
        """Elastic grow under supervision: extend the per-shard
        supervision state first so the spawned worker's ``_worker_args``
        (which consults ``_epoch``) sees it."""
        self._epoch.append(0)
        self._seq.append(0)
        self._since_ping.append(0)
        self._since_ckpt.append(0)
        self._respawns.append(0)
        self._replay.append([])
        self._checkpoints.append(None)
        self._deltas.append(empty_outputs(self.config.collect_results))
        self._stats_base.append({})
        self._metrics_base.append(None)
        self._dead_records.append(None)
        return super().add_shard()

    def retire_shard(self, shard: int) -> None:
        """Voluntary shrink is unsupported under supervision (stitching a
        mid-run retirement into the delta/replay accounting is not
        implemented); involuntary departure is what failover handles."""
        raise RuntimeError(
            "supervised executors do not support retire_shard; "
            "use failover for involuntary node departure"
        )

    def _fault_plan_for(self, shard: int):
        plan = self._fault_plan
        if plan is not None and self._epoch[shard] > 0:
            # One-shot faults already fired in a previous incarnation;
            # re-arming them would make recovery impossible by design.
            plan = plan.respawn_plan(shard)
        return plan

    def _send_batch(self, shard: int, window: Sequence[StreamTuple]) -> None:
        """Encode + ship one logged batch window.

        Every supervised batch send — live dispatch, replay during
        restore, the final pending flush — funnels through here: waits
        for credit when a window is armed, encodes with the *current
        incarnation's* encoder (a respawned worker negotiates schemas
        from scratch), and rides the shm ring when one is armed.
        """
        if self._credit_window is not None:
            self._await_credit(shard)
        payload = self._encoders[shard].encode(window)
        self._send_message(shard, (MSG_BATCH, payload))
        self._dispatched[shard] += 1

    def _terminate_worker(self, shard: int) -> None:
        """Retire an incarnation: close its pipe, make sure it is dead."""
        try:
            self._connections[shard].close()
        except OSError:  # pragma: no cover - already closed
            pass
        process = self._processes[shard]
        if process.is_alive():
            process.terminate()
            process.join(timeout=2)
            if process.is_alive():  # pragma: no cover - defensive
                process.kill()
                process.join(timeout=2)

    def _recover(self, shard: int, failure: ShardFailure) -> None:
        """Respawn → restore → replay, or escalate to a terminal failure.

        Loops because the restore/replay itself can fail (a persistent
        fault, a second crash): each attempt burns one unit of the
        shard's respawn budget; exhausting the budget raises the
        terminal failure, carrying :class:`FailoverState` when failover
        is enabled and a recovery point exists.
        """
        sup = self.supervision
        while True:
            if not failure.recoverable or not sup.recover:
                self._terminate_worker(shard)
                raise failure
            if self._respawns[shard] >= sup.max_respawns:
                self._terminate_worker(shard)
                raise self._exhausted(shard, failure)
            self._respawns[shard] += 1
            self.respawns += 1
            self._terminate_worker(shard)
            time.sleep(sup.backoff_base_s * (2 ** (self._respawns[shard] - 1)))
            self._epoch[shard] += 1
            self._since_ping[shard] = 0
            self._since_ckpt[shard] = 0
            self._spawn_worker(shard)
            try:
                self._restore(shard)
                return
            except ShardFailure as exc:
                failure = exc

    def _restore(self, shard: int) -> None:
        """Bring a fresh incarnation up to date: checkpoint + replay log.

        The incarnation's stats/metrics bases move to the checkpoint's
        absolute values (its counters restart at zero); replayed batches
        are re-encoded by the fresh per-connection encoder; a final ping
        confirms the worker consumed everything — without it a restore
        that crashed mid-replay would be discovered only at the next
        dispatch, attributing the failure to the wrong batch.
        """
        ckpt = self._checkpoints[shard]
        if ckpt is not None:
            state = unframe_checkpoint(ckpt.frame)
            self._send_message(shard, (MSG_MIGRATE_IN, state))
            self._stats_base[shard] = dict(ckpt.stats)
            self._metrics_base[shard] = ckpt.metrics
        else:
            self._stats_base[shard] = {}
            self._metrics_base[shard] = None
        for seq, kind, payload in self._replay[shard]:
            if kind == KIND_BATCH:
                self._send_batch(shard, payload)
                self.replayed_batches += 1
            else:
                self._send_message(shard, (MSG_MIGRATE_IN, payload))
        self._confirm(shard)

    def _confirm(self, shard: int) -> None:
        """Ping exchange proving the worker consumed the restore stream."""
        nonce = ("restore", self._epoch[shard], self._seq[shard])
        self._send(shard, (MSG_PING, nonce))
        tag, payload = self._await_reply(
            shard, self.supervision.heartbeat_timeout_s
        )
        if tag == "error":
            raise ShardFailure(shard, str(payload), recoverable=False)
        if tag != MSG_PONG or payload != nonce:
            raise ShardFailure(
                shard,
                f"bad restore acknowledgement: ({tag!r}, {payload!r})",
                recoverable=False,
            )

    def _exhausted(self, shard: int, failure: ShardFailure) -> ShardFailure:
        """Terminal failure of a budget-spent shard (+ failover payload)."""
        self.failed_over.add(shard)
        ckpt = self._checkpoints[shard]
        self._dead_records[shard] = ckpt
        payload: Optional[FailoverState] = None
        if self.supervision.failover:
            window: List[WindowStateItem] = []
            pending: List[StreamTuple] = []
            replay: List[List[StreamTuple]] = []
            if ckpt is not None:
                window_items, pending_items = decode_state(
                    unframe_checkpoint(ckpt.frame)
                )
                window.extend(window_items)
                pending.extend(pending_items)
            for seq, kind, entry in self._replay[shard]:
                if kind == KIND_BATCH:
                    replay.append(list(entry))
                else:
                    # Adopted state that never made it into a checkpoint
                    # folds into the window/pending legs (it is already
                    # in adoptable form once decoded).
                    w, p = decode_state(entry)
                    window.extend(w)
                    pending.extend(p)
            # Tuples buffered parent-side but never dispatched belong to
            # the replay stream too.
            if self._batches[shard]:
                replay.append(list(self._batches[shard]))
                self._batches[shard] = []
            payload = FailoverState(window=window, pending=pending, replay=replay)
        return ShardFailure(
            shard,
            f"respawn budget exhausted after "
            f"{self._respawns[shard]} respawns: {failure.reason}",
            recoverable=False,
            failover=payload,
        )

    # ------------------------------------------------------------------
    # dispatch paths (all logged + supervised)
    # ------------------------------------------------------------------

    def submit_batch(self, shard: int, batch: Sequence[StreamTuple]) -> Outputs:
        if self._finished:
            raise RuntimeError("executor already finished")
        self._assert_live(shard)
        self.submitted[shard] += len(batch)
        pending = self._batches[shard]
        pending.extend(batch)
        size = self.batch_size
        # Unlike the base executor's in-place windowing, each window is
        # carved out *before* dispatch: if dispatch escalates to a
        # terminal failure, the window lives in the replay log and the
        # buffer holds only never-dispatched tuples — no double count in
        # the failover stream.
        while len(pending) >= size:
            window = pending[:size]
            del pending[:size]
            self._dispatch_window(shard, window)
        return empty_outputs(self.config.collect_results)

    def _flush_pending(self, shard: int) -> None:
        pending = self._batches[shard]
        if pending:
            self._batches[shard] = []
            self._dispatch_window(shard, pending)

    def _assert_live(self, shard: int) -> None:
        if shard in self.failed_over:
            raise ShardFailure(
                shard,
                "shard already failed over; the router should no longer "
                "route to it",
                recoverable=False,
            )

    def _dispatch_window(self, shard: int, window: List[StreamTuple]) -> None:
        """Log + send one batch window, then run the supervision cadence.

        The log entry is appended *before* the send so no dispatched
        batch can ever be absent from the replay stream, whatever point
        the send or the cadence fails at.
        """
        self._seq[shard] += 1
        self._replay[shard].append((self._seq[shard], KIND_BATCH, window))
        try:
            self._send_batch(shard, window)
            self._cadence(shard)
        except ShardFailure as failure:
            self._recover(shard, failure)

    def _cadence(self, shard: int) -> None:
        """Checkpoint/ping bookkeeping after one dispatched batch."""
        sup = self.supervision
        self._since_ckpt[shard] += 1
        self._since_ping[shard] += 1
        if sup.checkpoint_interval and self._since_ckpt[shard] >= sup.checkpoint_interval:
            self._checkpoint(shard)
        elif sup.heartbeat_interval and self._since_ping[shard] >= sup.heartbeat_interval:
            self._ping(shard)

    def _ping(self, shard: int) -> None:
        """Liveness probe: ``MSG_PING`` must echo within the timeout."""
        self._since_ping[shard] = 0
        nonce = (self._epoch[shard], self._seq[shard])
        self._send(shard, (MSG_PING, nonce))
        tag, payload = self._await_reply(
            shard, self.supervision.heartbeat_timeout_s
        )
        if tag == "error":
            raise ShardFailure(shard, str(payload), recoverable=False)
        if tag != MSG_PONG or payload != nonce:
            raise ShardFailure(
                shard, f"bad heartbeat reply: ({tag!r}, {payload!r})"
            )

    def _checkpoint(self, shard: int) -> None:
        """Synchronous checkpoint barrier; admits or rejects the record.

        Also doubles as a liveness probe (it awaits a reply under the
        heartbeat timeout), so the cadence resets both counters.
        """
        self._since_ckpt[shard] = 0
        self._since_ping[shard] = 0
        epoch = self._epoch[shard]
        seq = self._seq[shard]
        self._send(shard, (MSG_CHECKPOINT, CheckpointRequest(epoch, seq)))
        tag, record = self._await_reply(
            shard, self.supervision.heartbeat_timeout_s
        )
        if tag == "error":
            raise ShardFailure(shard, str(record), recoverable=False)
        if tag != MSG_CHECKPOINT:
            raise ShardFailure(
                shard, f"bad checkpoint reply tag {tag!r}"
            )
        if record.epoch != epoch or record.seq != seq:
            # Epoch/seq dedup: a record from a stale incarnation (or a
            # desynced worker) is never admitted.
            raise ShardFailure(
                shard,
                f"stale checkpoint record (epoch {record.epoch}, seq "
                f"{record.seq}; expected epoch {epoch}, seq {seq})",
            )
        try:
            verify_checkpoint(record.frame)
        except CheckpointIntegrityError as exc:
            # Reject the WHOLE record — the output delta inside it as
            # well (the worker already reset its accumulator, so that
            # delta exists nowhere else; the replay of batches <= seq
            # under the next epoch regenerates it exactly).
            self.checkpoints_rejected += 1
            raise ShardFailure(shard, str(exc)) from exc
        delta = record.outputs
        collect = self.config.collect_results
        if collect:
            delta = BlockDecoder().decode_results(delta)
        self._deltas[shard] = merge_outputs(collect, self._deltas[shard], delta)
        stats = _add_stats(self._stats_base[shard], record.join_stats)
        base_metrics = self._metrics_base[shard]
        metrics = (
            record.metrics
            if base_metrics is None
            else PipelineMetrics.merge([base_metrics, record.metrics])
        )
        self._checkpoints[shard] = _Checkpoint(epoch, seq, record.frame, stats, metrics)
        self._replay[shard] = [e for e in self._replay[shard] if e[0] > seq]
        self.checkpoints_taken += 1

    # ------------------------------------------------------------------
    # barrier legs
    # ------------------------------------------------------------------

    def migrate(self, shard, spec):
        """Supervised source leg of the rebalancing barrier.

        On failure mid-barrier the recovery restores the *pre-migrate*
        state (the forced post-migrate checkpoint has not been admitted
        yet) and the whole leg retries: re-extraction is deterministic,
        so the retried reply carries identical state blocks and the
        earlier, lost extraction is simply discarded.  After a
        successful reply the source is force-checkpointed so the replay
        log can never straddle the barrier.
        """
        if self._finished:
            raise RuntimeError("executor already finished")
        self._assert_live(shard)
        while True:
            try:
                self._flush_pending(shard)
                self._send(shard, (MSG_MIGRATE_OUT, spec))
                tag, payload = self._await_reply(
                    shard, self.supervision.heartbeat_timeout_s
                )
                if tag == "error":
                    raise ShardFailure(shard, str(payload), recoverable=False)
                if tag != "state":
                    raise ShardFailure(
                        shard,
                        f"state migration failed: {payload}",
                        recoverable=False,
                    )
                self._checkpoint(shard)
                return empty_outputs(self.config.collect_results), payload
            except ShardFailure as failure:
                self._recover(shard, failure)

    def adopt(self, shard, state):
        """Supervised destination leg: logged, sent, force-checkpointed.

        The adopt goes into the replay log first — if the forced
        checkpoint after it fails, recovery replays the adoption along
        with any logged batches, in original ``seq`` order.
        """
        if self._finished:
            raise RuntimeError("executor already finished")
        self._assert_live(shard)
        self._flush_pending(shard)
        self._seq[shard] += 1
        self._replay[shard].append((self._seq[shard], KIND_ADOPT, state))
        try:
            self._send_message(shard, (MSG_MIGRATE_IN, state))
            self._checkpoint(shard)
        except ShardFailure as failure:
            self._recover(shard, failure)
        return empty_outputs(self.config.collect_results)

    # ------------------------------------------------------------------
    # run end
    # ------------------------------------------------------------------

    def finish(self) -> List[ShardOutcome]:
        """Flush everything; stitch deltas + final outcomes exactly-once.

        Per live shard: outputs are the admitted checkpoint deltas
        followed by the final outcome's post-checkpoint outputs; stats
        are incarnation base + the final cumulative snapshot; metrics
        merge the same way.  A failure while awaiting an outcome runs
        the ordinary recovery and re-flushes — but a shard whose budget
        dies *here* is terminal (failover needs the pipeline's router,
        which has no further feeding step to repartition through).
        Failed-over shards contribute synthesized outcomes carrying the
        deltas/stats admitted before their death; their post-checkpoint
        results were regenerated by the survivors via the failover
        replay stream.
        """
        if self._finished:
            raise RuntimeError("executor already finished")
        self._finished = True
        collect = self.config.collect_results
        outcomes: List[ShardOutcome] = []
        try:
            for shard in range(self.num_shards):
                if shard in self.failed_over:
                    continue
                pending = self._batches[shard]
                if pending:
                    self._batches[shard] = []
                    self._seq[shard] += 1
                    self._replay[shard].append(
                        (self._seq[shard], KIND_BATCH, pending)
                    )
                    try:
                        self._send_batch(shard, pending)
                    except ShardFailure as failure:
                        self._recover(shard, failure)
                try:
                    self._send(shard, (MSG_FLUSH, None))
                except ShardFailure as failure:
                    self._recover(shard, failure)
                    self._send(shard, (MSG_FLUSH, None))
            for shard in range(self.num_shards):
                if shard in self.failed_over:
                    outcomes.append(self._synthetic_outcome(shard))
                    continue
                while True:
                    try:
                        tag, payload = self._await_reply(shard)
                        break
                    except ShardFailure as failure:
                        self._recover(shard, failure)
                        self._send(shard, (MSG_FLUSH, None))
                if tag == "error":
                    raise ShardFailure(shard, str(payload), recoverable=False)
                if tag != "ok":
                    raise ShardFailure(
                        shard, f"bad outcome reply tag {tag!r}", recoverable=False
                    )
                outcome = payload
                outputs = outcome.outputs
                if collect:
                    outputs = BlockDecoder().decode_results(outputs)
                outputs = merge_outputs(collect, self._deltas[shard], outputs)
                stats = _add_stats(self._stats_base[shard], outcome.join_stats)
                base_metrics = self._metrics_base[shard]
                metrics = (
                    outcome.metrics
                    if base_metrics is None
                    else PipelineMetrics.merge([base_metrics, outcome.metrics])
                )
                outcomes.append(ShardOutcome(shard, outputs, metrics, stats))
        finally:
            for conn in self._connections:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
            for process in self._processes:
                process.join(timeout=30)
                if process.is_alive():  # pragma: no cover - defensive
                    process.terminate()
                    process.join(timeout=5)
            self._release_rings()
        return outcomes

    def _synthetic_outcome(self, shard: int) -> ShardOutcome:
        """Outcome of a failed-over shard: what its checkpoints admitted."""
        record = self._dead_records[shard]
        stats = dict(record.stats) if record is not None else {}
        metrics = record.metrics if record is not None else PipelineMetrics()
        return ShardOutcome(shard, self._deltas[shard], metrics, stats)
