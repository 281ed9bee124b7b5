"""The m-way sliding window join operator (paper Alg. 2).

The operator consumes the (partially) sorted, synchronized stream produced
by the disorder-handling front end and keeps one sliding window per input
stream.  For each received tuple ``e_i``:

* **in order** (``e_i.ts >= onT``): update the high-water mark ``onT``,
  invalidate expired tuples in the windows of all *other* streams
  (``e_j.ts < e_i.ts - W_j``), probe those windows to derive result tuples
  satisfying the join condition (timestamped ``e_i.ts``), then insert
  ``e_i`` into its own window;
* **out of order but still inside its window scope**
  (``e_i.ts > onT - W_i``): skip probing — its results are lost — but
  insert it so it can contribute to *future* results;
* otherwise drop it.

After either path the operator reports the tuple's productivity to an
optional callback (paper Alg. 2 line 11): for in-order tuples the exact
cross-join size ``n×(e)`` (product of the other windows' cardinalities)
and actual result count ``n^on(e)``; for out-of-order tuples no counts
(the Tuple-Productivity Profiler estimates them).

Probing binds the remaining streams one at a time in the order chosen by
a :class:`~repro.join.ordering.ProbeOrderPolicy`, fetching candidates via
equality-hash-index lookups where the condition allows and evaluating each
predicate as soon as all streams it references are bound.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.tuples import JoinResult, StreamTuple
from .conditions import JoinCondition
from .ordering import ProbeOrderPolicy, default_policy
from .store import StoreSpec
from .window import SlidingWindow

#: ``callback(tuple, n_cross, n_on, in_order)``; counts are None when the
#: tuple was out of order (no probe happened).
ProductivityCallback = Callable[[StreamTuple, Optional[int], Optional[int], bool], None]


class ProbePlan:
    """A cached probe plan: everything about a probe that is fixed once the
    probe order is chosen.

    The per-depth closed-predicate lists and the chosen index lookups
    depend only on the trigger stream, the order, the (immutable) join
    condition, and which window indexes exist (fixed at operator
    construction) — not on window *content*.  Rebuilding them per tuple is
    pure allocation churn on the hottest path, so the operator caches one
    plan per ``(trigger stream, order)`` and only builds a new one when
    the :class:`~repro.join.ordering.ProbeOrderPolicy` actually changes
    the order (cardinality drift).
    """

    __slots__ = ("order", "closed_per_depth", "lookup_per_depth")

    def __init__(
        self,
        order: Tuple[int, ...],
        closed_per_depth: List[list],
        lookup_per_depth: List[Optional[Tuple[str, int, str]]],
    ) -> None:
        self.order = order
        self.closed_per_depth = closed_per_depth
        self.lookup_per_depth = lookup_per_depth


class JoinStatistics:
    """Running counters the operator maintains (diagnostics + tests)."""

    __slots__ = (
        "tuples_in_order",
        "tuples_out_of_order_kept",
        "tuples_dropped",
        "results_produced",
        "probes",
    )

    def __init__(self) -> None:
        self.tuples_in_order = 0
        self.tuples_out_of_order_kept = 0
        self.tuples_dropped = 0
        self.results_produced = 0
        self.probes = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class MSWJOperator:
    """MJoin-style m-way sliding window join (paper Alg. 2).

    Parameters
    ----------
    window_sizes_ms:
        Per-stream window sizes ``W_i`` in milliseconds.
    condition:
        The join condition; ``JoinCondition([])`` gives the cross join.
    probe_order:
        Optional probe-order policy; defaults to an index-aware order when
        the condition has equality predicates.
    productivity_callback:
        Invoked once per received tuple with its productivity counts.
    collect_results:
        When False, :meth:`process` returns only the number of results
        (all results of one call share the trigger's timestamp), skipping
        result-object construction.  Benchmarks use this mode.
    probe_out_of_order:
        Alg. 2 (the default, False) skips probing for out-of-order
        tuples, losing their results but keeping the output stream
        ordered.  With True the operator probes on *every* arrival — the
        out-of-order-tolerating join of the paper's footnote 2 / Fig. 1,
        whose output stream is itself out of order (a result derived from
        a late tuple is timestamped with its maximum component timestamp,
        which can lie below previously emitted results).  Pair it with
        :class:`~repro.core.result_sorter.ResultSorter` to restore an
        ordered output.  Requires ``collect_results=True`` (each result's
        timestamp is individually meaningful).
    store:
        A :data:`~repro.join.store.StoreSpec` selecting the window state
        representation — ``None`` / ``"memory"`` (all tuples as
        objects), ``"tiered"``, or a
        :class:`~repro.join.store.TieredStoreConfig` (bounded hot tier +
        columnar cold tier).  Store choice never changes join output.
    """

    def __init__(
        self,
        window_sizes_ms: Sequence[int],
        condition: JoinCondition,
        probe_order: Optional[ProbeOrderPolicy] = None,
        productivity_callback: Optional[ProductivityCallback] = None,
        collect_results: bool = True,
        probe_out_of_order: bool = False,
        store: StoreSpec = None,
    ) -> None:
        if len(window_sizes_ms) < 2:
            raise ValueError("an MSWJ needs at least two input streams")
        bad = condition.referenced_streams() - set(range(len(window_sizes_ms)))
        if bad:
            raise ValueError(f"condition references unknown streams {sorted(bad)}")
        self.num_streams = len(window_sizes_ms)
        self.window_sizes_ms = [int(w) for w in window_sizes_ms]
        self.condition = condition
        self.store_spec = store
        self.windows: List[SlidingWindow] = [
            SlidingWindow(size, condition.indexed_attributes(i), store=store)
            for i, size in enumerate(self.window_sizes_ms)
        ]
        # Hot-path handle: the in-order path talks to stores directly
        # (needs_expiry / len) instead of peeking window internals.
        self._stores = [w.store for w in self.windows]
        if probe_out_of_order and not collect_results:
            raise ValueError("probe_out_of_order requires collect_results=True")
        self._policy = probe_order or default_policy(condition)
        self._callback = productivity_callback
        self._collect_results = collect_results
        self._probe_out_of_order = probe_out_of_order
        self.on_t = 0  # the operator's high-water mark ``onT``
        self.stats = JoinStatistics()
        # One plan dict per trigger stream, keyed by the order tuple the
        # policy returned; see ProbePlan.  Orders cycle among a handful of
        # permutations, so the dicts stay tiny.
        self._plans: List[Dict[Tuple[int, ...], ProbePlan]] = [
            {} for _ in range(self.num_streams)
        ]

    # ------------------------------------------------------------------
    # Alg. 2 main loop
    # ------------------------------------------------------------------

    def process(self, t: StreamTuple) -> Union[List[JoinResult], int]:
        """Process one received tuple; return its derived results (or count)."""
        i = t.stream
        if not 0 <= i < self.num_streams:
            raise ValueError(f"tuple stream index {i} outside [0, {self.num_streams})")

        if t.ts >= self.on_t:
            results = self._process_in_order(t)
        else:
            results = [] if self._collect_results else 0
            if t.ts > self.on_t - self.window_sizes_ms[i]:
                if self._probe_out_of_order:
                    results = self._probe_late(t)
                self.windows[i].insert(t)
                self.stats.tuples_out_of_order_kept += 1
            else:
                self.stats.tuples_dropped += 1
            if self._callback is not None:
                self._callback(t, None, None, False)
        return results

    def _process_in_order(self, t: StreamTuple) -> Union[List[JoinResult], int]:
        i = t.stream
        self.on_t = t.ts
        self.stats.tuples_in_order += 1
        n_cross = 1
        for j in range(self.num_streams):
            if j == i:
                continue
            store = self._stores[j]
            bound = t.ts - self.window_sizes_ms[j]
            if store.needs_expiry(bound):
                store.expire_before(bound)
            n_cross *= len(store)
        results = self._probe(t)
        n_on = len(results) if self._collect_results else results
        self.stats.results_produced += n_on
        self.stats.probes += 1
        self.windows[i].insert(t)
        if self._callback is not None:
            self._callback(t, n_cross, n_on, True)
        return results

    # ------------------------------------------------------------------
    # out-of-order probing (footnote-2 mode)
    # ------------------------------------------------------------------

    def _probe_late(self, trigger: StreamTuple) -> List[JoinResult]:
        """Probe for a late trigger; every pairwise window bound is checked.

        Unlike the in-order path, window content can hold tuples with
        timestamps *above* the trigger's, and two candidates that each
        match the trigger's range may violate the window constraint
        between themselves — so the DFS validates each new binding
        against all already-bound tuples.  Result timestamps are the
        maximum component timestamp (which may exceed the trigger's).
        """
        plan = self._plan_for(trigger.stream)
        bound: Dict[int, StreamTuple] = {trigger.stream: trigger}
        results: List[JoinResult] = []
        self._probe_late_depth(
            0, plan.order, bound, plan.closed_per_depth, plan.lookup_per_depth, results
        )
        self.stats.results_produced += len(results)
        self.stats.probes += 1
        return results

    def _window_compatible(self, a: StreamTuple, b: StreamTuple) -> bool:
        return (
            b.ts >= a.ts - self.window_sizes_ms[b.stream]
            and a.ts >= b.ts - self.window_sizes_ms[a.stream]
        )

    def _probe_late_depth(
        self,
        depth: int,
        order: Sequence[int],
        bound: Dict[int, StreamTuple],
        closed_per_depth: Sequence[Sequence],
        lookup_per_depth: Sequence,
        results: List[JoinResult],
    ) -> None:
        if depth == len(order):
            components = tuple(bound[s] for s in range(self.num_streams))
            results.append(JoinResult(max(c.ts for c in components), components))
            return
        j = order[depth]
        lookup = lookup_per_depth[depth]
        if lookup is not None:
            attr, other, other_attr = lookup
            candidates = self.windows[j].lookup(attr, bound[other][other_attr])
        else:
            candidates = self.windows[j].tuples()
        closed = closed_per_depth[depth]
        for candidate in candidates:
            if not all(
                self._window_compatible(candidate, partner)
                for partner in bound.values()
            ):
                continue
            bound[j] = candidate
            if all(predicate.evaluate(bound) for predicate in closed):
                self._probe_late_depth(
                    depth + 1,
                    order,
                    bound,
                    closed_per_depth,
                    lookup_per_depth,
                    results,
                )
        bound.pop(j, None)

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------

    def _plan_for(self, trigger_stream: int) -> ProbePlan:
        """The probe plan for the policy's current order (cached).

        The policy is consulted every trigger (orders shift with window
        cardinalities), but the per-depth closed-predicate lists and index
        lookups are only rebuilt when the returned order is one the cache
        has not seen for this trigger stream.
        """
        order = tuple(
            self._policy.order(trigger_stream, self.windows, self.condition)
        )
        plans = self._plans[trigger_stream]
        plan = plans.get(order)
        if plan is None:
            # Per depth: the predicates that close and the best available
            # index lookup; the bound-stream set at each depth is fixed
            # once the order is chosen.
            bound_set = frozenset({trigger_stream})
            closed_per_depth = []
            lookup_per_depth = []
            for j in order:
                closed_per_depth.append(
                    self.condition.predicates_closed_by(j, bound_set)
                )
                lookups = [
                    lk
                    for lk in self.condition.equi_lookups(j, bound_set)
                    if self.windows[j].has_index(lk[0])
                ]
                lookup_per_depth.append(lookups[0] if lookups else None)
                bound_set = bound_set | {j}
            plan = ProbePlan(order, closed_per_depth, lookup_per_depth)
            plans[order] = plan
        return plan

    def _probe(self, trigger: StreamTuple) -> Union[List[JoinResult], int]:
        """Bind the remaining streams depth-first and collect matches."""
        plan = self._plan_for(trigger.stream)
        # Short-circuit: any empty window means no results.
        stores = self._stores
        for j in plan.order:
            if not len(stores[j]):
                return [] if self._collect_results else 0

        bound: Dict[int, StreamTuple] = {trigger.stream: trigger}
        collected: List[JoinResult] = []
        count = self._probe_depth(
            0,
            plan.order,
            bound,
            plan.closed_per_depth,
            plan.lookup_per_depth,
            trigger.ts,
            collected,
        )
        return collected if self._collect_results else count

    def _probe_depth(
        self,
        depth: int,
        order: Sequence[int],
        bound: Dict[int, StreamTuple],
        closed_per_depth: Sequence[Sequence],
        lookup_per_depth: Sequence,
        result_ts: int,
        collected: List[JoinResult],
    ) -> int:
        if depth == len(order):
            if self._collect_results:
                components = tuple(bound[s] for s in range(self.num_streams))
                collected.append(JoinResult(result_ts, components))
            return 1
        j = order[depth]
        lookup = lookup_per_depth[depth]
        if lookup is not None:
            attr, other, other_attr = lookup
            candidates = self.windows[j].lookup(attr, bound[other][other_attr])
        else:
            candidates = self.windows[j].tuples()
        closed = closed_per_depth[depth]
        count = 0
        for candidate in candidates:
            bound[j] = candidate
            if all(predicate.evaluate(bound) for predicate in closed):
                count += self._probe_depth(
                    depth + 1,
                    order,
                    bound,
                    closed_per_depth,
                    lookup_per_depth,
                    result_ts,
                    collected,
                )
        bound.pop(j, None)
        return count

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def window_cardinalities(self) -> List[int]:
        return [w.cardinality for w in self.windows]

    def reset(self) -> None:
        """Clear all windows and counters (reuse across experiment runs)."""
        for window in self.windows:
            window.clear()
        self.on_t = 0
        self.stats = JoinStatistics()
