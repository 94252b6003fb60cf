"""Batched SAN execution: a NumPy structure-of-arrays replication kernel.

The compiled engine (:mod:`repro.san.compiled`) advances one replication
at a time: every jump pays Python-level closure calls for the affected
gates plus an O(activities) total-rate reduction.  This module amortises
that cost over a *batch* of B replications advanced in lockstep:

* the batch's markings live in a ``(B, n_places)`` int64 matrix (column
  major, so per-place columns are contiguous) mirrored from exact
  per-row Python values;
* a lowering pass translates the paper model's gate predicates and rate
  functions — threshold comparisons and arithmetic on place markings —
  into vectorized column expressions, evaluated once per changed place
  for all B rows instead of once per row;
* per-row propensity vectors (rows of the ``(B, n_activities)`` rate
  tables) are maintained incrementally through the same changed-slot
  bitmask protocol as the compiled engine;
* rows that absorb (stop predicate), deadlock, or reach the horizon are
  masked out while the rest of the batch keeps running.

Any gate that resists lowering (writes, extended places, ``float()``
coercions, data-dependent Python control flow beyond branch-enumerable
comparisons) automatically degrades to a **per-row closure fallback**
that reuses the compiled engine's tracing closures — arbitrary SANs
still run, only the lowered fraction of the model gets the vector
speedup.

Equivalence contract (``tests/san/test_batched_equivalence``): each row
draws from its *own* :class:`~repro.stochastic.rng.RandomStream` in
exactly the compiled engine's order, totals are reduced with
``np.cumsum`` (strictly sequential, bitwise equal to the interpreted
engine's left-to-right sum) and activity selection replays
``choice_index`` via ``np.searchsorted`` (bitwise equal to
``bisect_right``).  Runs are therefore **bit-identical** to the compiled
engine — same draw counts, weights, stop times and final markings — at
*any* batch size, including under importance-sampling bias.

Observers force the per-row fallback path: with an observer attached,
``run``/``run_batch`` delegate row by row to an internal
:class:`~repro.san.compiled.CompiledJumpEngine` sharing the same compile
pass, preserving the trace ordering and RNG-invariance guarantees of the
observability layer.  ``simulate`` (splitting segments, arbitrary start
markings, level functions) always delegates.

See ``docs/engine_perf.md`` for layout details and batch-size guidance.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, Optional, Union

import numpy as np

from repro.san.compiled import (
    CompiledJumpEngine,
    CompiledMarking,
    CompiledModel,
    _compile_chooser,
    _compile_enabled,
    _compile_fire,
    _compile_rate,
    _enabling_reads,
    compile_model,
)
from repro.san.lowering import (  # noqa: F401  (re-exported lowering names)
    _ACTIVE_TRAIL,
    _MAX_DEPTH,
    _MAX_PATHS,
    _BranchTrail,
    _build_tree,
    _CannotLower,
    _enumerate_paths,
    _lower_group,
    _LowerView,
    _Node,
    _tree_expr,
)
from repro.san.model import SANModel
from repro.san.simulator import (
    MAX_INSTANTANEOUS_CHAIN,
    SimulationRun,
    UnstableMarkingError,
    _RewardIntegrator,
)
from repro.stochastic.rng import RandomStream

__all__ = ["DEFAULT_BATCH_SIZE", "BatchedJumpEngine"]

#: default replications advanced in lockstep (see docs/engine_perf.md)
DEFAULT_BATCH_SIZE = 256


class _LoweredGroup:
    """Timed activities sharing gate/rate code, refreshed as one block.

    The paper model instantiates the same per-vehicle activity types
    across its 2n replicas, so most predicate/rate *functions* recur ~2n
    times with different place bindings.  Grouping those members means
    each unique decision tree is evaluated once per refresh over a
    ``(B, G)`` column block instead of once per member — the second
    amortization axis of the SoA layout (rows amortize over
    replications, columns over model replicas).
    """

    __slots__ = ("indices", "names", "gate_exprs", "eff_consts",
                 "rate_expr", "factors", "any_factor", "reads_mask",
                 "gate_roles", "rate_roles")

    def __init__(self, block, factors) -> None:
        self.indices = np.array(block.indices, dtype=np.intp)  # columns in R
        self.names = block.names
        self.gate_exprs = block.gate_exprs  # fused truthy expressions, (B, G)
        self.eff_consts = block.eff_consts  # (G,) float64, <= 0 clamped
        self.rate_expr = block.rate_expr
        self.factors = factors        # (G,) float64 bias multipliers
        self.any_factor = bool((factors != 1.0).any())
        self.reads_mask = 0
        for slot in block.reads:
            self.reads_mask |= 1 << slot
        self.gate_roles = block.gate_roles  # footprint roles (see lowering)
        self.rate_roles = block.rate_roles

    def refresh(self, M, Ro, Rb, alive, has_bias: bool) -> None:
        """Recompute the group's rate columns from the matrix.

        Pure block math over all B rows and all G members (recomputing
        unchanged lanes is bitwise harmless); only the negative-rate
        guard is restricted to live rows, matching the compiled engine's
        evaluate-on-demand error surface.
        """
        shape = (M.shape[0], len(self.indices))
        enabled = None
        for expr in self.gate_exprs:
            gate = np.asarray(expr(M)) != 0
            enabled = gate if enabled is None else (enabled & gate)
        if enabled is not None and enabled.ndim != 2:
            enabled = np.broadcast_to(enabled, shape)
        if self.rate_expr is None:
            if enabled is None:
                block = np.broadcast_to(self.eff_consts, shape)
            else:
                block = np.where(enabled, self.eff_consts, 0.0)
        else:
            rates = np.asarray(self.rate_expr(M), dtype=np.float64)
            if rates.ndim != 2:
                rates = np.broadcast_to(rates, shape)
            # NaN rates count as "not > 0" (disabled), like the scalar path
            positive = rates > 0.0
            negative = alive[:, None] & (rates < 0.0)
            if enabled is not None:
                positive = enabled & positive
                negative = enabled & negative
            if negative.any():
                row, col = divmod(int(np.argmax(negative)), shape[1])
                raise ValueError(
                    f"activity {self.names[col]!r}: negative rate "
                    f"{float(rates[row, col])}"
                )
            block = np.where(positive, rates, 0.0)
        Ro[:, self.indices] = block
        if has_bias:
            if self.any_factor:
                Rb[:, self.indices] = block * self.factors
            else:
                Rb[:, self.indices] = block

    def refresh_rows(self, M, rows, Ro, Rb, has_bias: bool) -> None:
        """Row-restricted :meth:`refresh` for cross-point tensor runs.

        A multi-point tensor interleaves rows of *different* models in
        one matrix, so a full-matrix refresh would scribble this group's
        rate columns over sibling points' rows (and evaluate its trees
        on foreign markings).  This variant evaluates the same lowered
        expressions on the ``rows`` sub-matrix — elementwise ufuncs are
        bitwise shape-independent, so the written lanes hold exactly the
        full-matrix values — and writes only those rows.  Callers pass
        the owning point's *alive* rows, which keeps the negative-rate
        guard on the same rows the full refresh restricts it to.
        """
        sub = M[rows]
        shape = (len(rows), len(self.indices))
        enabled = None
        for expr in self.gate_exprs:
            gate = np.asarray(expr(sub)) != 0
            enabled = gate if enabled is None else (enabled & gate)
        if enabled is not None and enabled.ndim != 2:
            enabled = np.broadcast_to(enabled, shape)
        if self.rate_expr is None:
            if enabled is None:
                block = np.broadcast_to(self.eff_consts, shape)
            else:
                block = np.where(enabled, self.eff_consts, 0.0)
        else:
            rates = np.asarray(self.rate_expr(sub), dtype=np.float64)
            if rates.ndim != 2:
                rates = np.broadcast_to(rates, shape)
            positive = rates > 0.0
            negative = rates < 0.0
            if enabled is not None:
                positive = enabled & positive
                negative = enabled & negative
            if negative.any():
                row, col = divmod(int(np.argmax(negative)), shape[1])
                raise ValueError(
                    f"activity {self.names[col]!r}: negative rate "
                    f"{float(rates[row, col])}"
                )
            block = np.where(positive, rates, 0.0)
        rows2 = rows[:, None]
        Ro[rows2, self.indices] = block
        if has_bias:
            if self.any_factor:
                Rb[rows2, self.indices] = block * self.factors
            else:
                Rb[rows2, self.indices] = block


class _BatchCursor(CompiledMarking):
    """A :class:`CompiledMarking` pointed at one row of the batch.

    ``values`` aliases the current row's exact Python-valued list (so
    closures, validators and stop predicates see the compiled engine's
    value domain), while integer writes are mirrored into the int64
    matrix column the vector kernels read.
    """

    __slots__ = ("_rows", "_matrix", "_mirror", "_row")

    def __init__(self, compiled: CompiledModel) -> None:
        super().__init__(
            compiled.places, compiled.slot_of, compiled.validators,
            list(compiled.initial_values),
        )
        self._rows: list[list] = []
        self._matrix: Optional[np.ndarray] = None
        self._mirror = [not place.is_extended for place in compiled.places]
        self._row = 0

    def bind_batch(self, rows: list[list], matrix: np.ndarray) -> None:
        self._rows = rows
        self._matrix = matrix
        self._row = 0
        if rows:
            self.values = rows[0]
        self.changed_mask = 0

    def unbind(self) -> None:
        """Drop the references to the last batch's rows and matrix."""
        self._rows = []
        self._matrix = None

    def set_row(self, row: int) -> None:
        self._row = row
        self.values = self._rows[row]

    def set_slot(self, slot: int, value: Any) -> None:
        value = self._validators[slot](value)
        if self.values[slot] != value:
            self.values[slot] = value
            self.changed_mask |= 1 << slot
            if self._mirror[slot]:
                self._matrix[self._row, slot] = value


class BatchedJumpEngine:
    """Lockstep batch executor over a compiled SAN (NumPy SoA kernel).

    Semantically a drop-in for :class:`CompiledJumpEngine` — same
    constructor validation, same ``run``/``simulate`` surface plus
    :meth:`run_batch` — producing bit-identical results per stream at
    any batch size.  The throughput win comes from vectorizing the
    model's *lowerable* gates (all of the paper model's structural
    gates) across rows; unlowerable activities transparently use the
    compiled engine's per-row closures.

    Parameters
    ----------
    model:
        The flattened all-exponential SAN or a shared
        :class:`CompiledModel`.
    bias:
        Optional activity-name → rate multiplier (importance sampling).
    observer:
        Optional observability hook; forces per-row delegation to an
        internal compiled engine so trace ordering and RNG invariance
        are preserved (see module docstring).
    batch_size:
        Default lockstep width, used by callers that slice replication
        stream batches (``run_batch`` itself accepts any length).
    diagnose:
        Compile-for-inspection mode: run the full lowering pass (so
        ``lowering_stats``/``fallback_reasons`` and the lowered trees are
        populated) but skip the per-row delegate and every runtime
        closure.  A diagnose engine cannot run — ``run``/``simulate``/
        ``run_batch`` raise — which is what the static analyzer wants:
        lowering facts without paying for executable kernels.
    """

    #: engine label reported in runtime telemetry footers
    engine_name = "batched"

    def __init__(
        self,
        model: Union[SANModel, CompiledModel],
        bias: Optional[Mapping[str, float]] = None,
        observer=None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        diagnose: bool = False,
    ) -> None:
        compiled = model if isinstance(model, CompiledModel) else None
        san = compiled.model if compiled is not None else model
        if not san.is_markovian:
            bad = [a.name for a in san.timed_activities if not a.is_markovian]
            raise TypeError(
                f"BatchedJumpEngine requires exponential activities; "
                f"non-exponential: {bad[:5]}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.compiled = compiled if compiled is not None else compile_model(san)
        self.model = self.compiled.model
        self.batch_size = int(batch_size)
        self.bias: dict[str, float] = dict(bias or {})
        unknown = set(self.bias) - {a.name for a in self.model.timed_activities}
        if unknown:
            raise ValueError(f"bias refers to unknown activities: {sorted(unknown)}")
        for name, factor in self.bias.items():
            if factor <= 0.0 or not math.isfinite(factor):
                raise ValueError(
                    f"bias factor for {name!r} must be finite and > 0, got {factor}"
                )
        self.observer = observer
        self.diagnose = bool(diagnose)
        self._kernel_events = 0
        self._compiled_delegate: Optional[CompiledJumpEngine] = None
        self._bind()

    # ------------------------------------------------------------------
    def _require_runtime(self) -> None:
        if self.diagnose:
            raise RuntimeError(
                f"{type(self).__name__} was built with diagnose=True and "
                f"has no runtime kernels; construct without diagnose to run"
            )

    @property
    def _delegate(self) -> Optional[CompiledJumpEngine]:
        """The per-row compiled engine sharing this engine's compile pass.

        Only observed runs and ``simulate`` use it, so it is built on
        first access: unobserved batch runs never pay for its closures.
        It takes its refresh-memo footprints from the lowering this
        engine already ran (:meth:`CompiledModel.lowering` keeps it), so
        no second lowering pass runs.  Diagnose engines have none.
        """
        if self._compiled_delegate is None and not self.diagnose:
            self._compiled_delegate = CompiledJumpEngine(
                self.compiled, bias=self.bias, observer=self.observer
            )
        return self._compiled_delegate

    @property
    def fired_events(self) -> int:
        """Timed firings over this engine's lifetime (kernel + delegate)."""
        delegate = self._compiled_delegate
        delegated = 0 if delegate is None else delegate.fired_events
        return self._kernel_events + delegated

    @property
    def has_bias(self) -> bool:
        """Whether any activity carries an importance-sampling factor.

        Multi-point tensor runs partition engines on this flag: biased
        and unbiased rows cannot share one cumulative-sum pass because
        the biased path draws against ``Rb`` while computing weights
        from ``Ro``.
        """
        return self._has_bias

    # ------------------------------------------------------------------
    def _bind(self) -> None:
        """Lower what lowers; compile per-row closures for the rest."""
        compiled = self.compiled
        slot_of = compiled.slot_of
        cursor = _BatchCursor(compiled)
        self._cursor = cursor
        self._n = compiled.n_timed
        self._factors = [
            self.bias.get(activity.name, 1.0) for activity in compiled.timed
        ]
        self._has_bias = any(factor != 1.0 for factor in self._factors)
        # one traced tree per group of activities sharing gate/rate code
        # (see repro.san.lowering), shared with every engine on this model
        lowering = compiled.lowering()
        self._lowered: list[_LoweredGroup] = [
            _LoweredGroup(
                block, np.array([self._factors[i] for i in block.indices])
            )
            for block in lowering.blocks
        ]
        fallback_indices = lowering.fallback_indices
        self.fallback_reasons = dict(lowering.fallback_reasons)

        # slot → bitmask of *positions in self._lowered* (reverse index)
        self._lowered_dep = [0] * compiled.n_slots
        for position, lowered in enumerate(self._lowered):
            bit = 1 << position
            mask = lowered.reads_mask
            while mask:
                low = mask & -mask
                self._lowered_dep[low.bit_length() - 1] |= bit
                mask ^= low

        # fallback activities: compiled tracing closures over the cursor
        self._fb_indices = fallback_indices
        self._trace = [0]
        self._fb_enabled = []
        self._fb_rate_consts = []
        self._fb_rate_fns = []
        self._fb_static_reads = []
        if self.diagnose:
            # diagnose mode keeps the lowering facts (groups, fallback
            # reasons, dependency masks) but compiles no runtime closures
            self._choosers = []
            self._firers = []
            self._insta = []
            return
        for index in fallback_indices:
            activity = compiled.timed[index]
            self._fb_enabled.append(
                _compile_enabled(activity, cursor, slot_of, self._trace)
            )
            constant, fn = _compile_rate(activity, cursor, slot_of, self._trace)
            self._fb_rate_consts.append(constant)
            self._fb_rate_fns.append(fn)
            static = 0
            for place in _enabling_reads(activity):
                static |= 1 << slot_of[place]
            self._fb_static_reads.append(static)

        # fire-path closures (chooser + gate functions) for every timed
        # activity, and the instantaneous scan — all bound to the cursor
        self._choosers = [
            _compile_chooser(activity, cursor, slot_of)
            for activity in compiled.timed
        ]
        self._firers = [
            _compile_fire(activity, cursor, slot_of)
            for activity in compiled.timed
        ]
        self._insta = [
            (
                _compile_enabled(activity, cursor, slot_of),
                _compile_chooser(activity, cursor, slot_of),
                _compile_fire(activity, cursor, slot_of),
            )
            for activity in compiled.instantaneous
        ]

    # ------------------------------------------------------------------
    def lowering_stats(self) -> dict[str, int]:
        """How much of the model the vector kernels cover (reports)."""
        return {
            "timed_activities": self._n,
            "lowered": sum(len(group.indices) for group in self._lowered),
            "groups": len(self._lowered),
            "fallback": len(self._fb_indices),
        }

    # ------------------------------------------------------------------
    def _stabilize(self, stream: RandomStream) -> None:
        """Compiled-identical instantaneous scan on the cursor's row."""
        insta = self._insta
        if not insta:
            return
        for _ in range(MAX_INSTANTANEOUS_CHAIN):
            for enabled, choose, fire in insta:
                if enabled is None or enabled():
                    fire(0 if choose is None else choose(stream))
                    break
            else:
                return
        raise UnstableMarkingError(
            f"more than {MAX_INSTANTANEOUS_CHAIN} consecutive instantaneous "
            f"firings in model {self.model.name!r}; the marking never "
            f"stabilises"
        )

    # ------------------------------------------------------------------
    def run(
        self,
        stream: RandomStream,
        horizon: float,
        stop_predicate: Optional[Callable[[Any], bool]] = None,
        rate_rewards=None,
    ) -> SimulationRun:
        """One replication (a batch of one; observers delegate per-row)."""
        self._require_runtime()
        if self.observer is not None:
            return self._delegate.run(stream, horizon, stop_predicate,
                                      rate_rewards)
        return self.run_batch([stream], horizon, stop_predicate,
                              rate_rewards)[0]

    def simulate(self, *args, **kwargs):
        """Path-segment simulation (splitting); always per-row compiled."""
        self._require_runtime()
        return self._delegate.simulate(*args, **kwargs)

    # ------------------------------------------------------------------
    def run_batch(
        self,
        streams: list[RandomStream],
        horizon: float,
        stop_predicate: Optional[Callable[[Any], bool]] = None,
        rate_rewards=None,
    ) -> list[SimulationRun]:
        """Advance one replication per stream in lockstep.

        Row ``i`` consumes ``streams[i]`` in exactly the order the
        compiled engine would, so results are bit-identical per stream
        regardless of the batch width or the fate of sibling rows.  The
        batch's rows and marking matrix are released from the cursor
        before returning (on errors too), so an idle engine — a cached
        worker context, say — holds no per-batch state.
        """
        self._require_runtime()
        if self.observer is not None:
            # traced runs take the per-row path: batching would
            # interleave rows within one trace stream
            return [
                self._delegate.run(stream, horizon, stop_predicate,
                                   rate_rewards)
                for stream in streams
            ]
        if not streams:
            return []
        try:
            return self._run_rows(streams, horizon, stop_predicate,
                                  rate_rewards)
        finally:
            self._cursor.unbind()

    def _run_rows(self, streams, horizon, stop_predicate, rate_rewards):
        """The per-event lockstep loop over a non-empty batch."""
        n_rows = len(streams)
        compiled = self.compiled
        cursor = self._cursor
        n_acts = self._n
        has_bias = self._has_bias
        insta_reads = compiled.insta_reads_mask

        rows = [list(compiled.initial_values) for _ in range(n_rows)]
        matrix = np.zeros((n_rows, compiled.n_slots), dtype=np.int64,
                          order="F")
        for slot, mirrored in enumerate(cursor._mirror):
            if mirrored:
                matrix[:, slot] = compiled.initial_values[slot]
        cursor.bind_batch(rows, matrix)

        Ro = np.zeros((n_rows, n_acts), dtype=np.float64)
        Rb = np.zeros((n_rows, n_acts), dtype=np.float64) if has_bias else Ro
        alive_mask = np.zeros(n_rows, dtype=bool)

        results: list[Optional[SimulationRun]] = [None] * n_rows
        now = [0.0] * n_rows
        weights = [1.0] * n_rows
        firings = [0] * n_rows
        integrators = [_RewardIntegrator(rate_rewards) for _ in range(n_rows)]
        fb_count = len(self._fb_indices)
        fb_reads = [[0] * fb_count for _ in range(n_rows)]
        fb_union = [0] * n_rows

        def finalize(row: int, end_time: float, stopped: bool,
                     stop_time: float) -> None:
            alive_mask[row] = False
            cursor.changed_mask = 0
            results[row] = SimulationRun(
                end_time=end_time,
                stopped=stopped,
                stop_time=stop_time,
                weight=weights[row],
                firings=firings[row],
                final_marking=cursor.export(),
                reward_integrals=integrators[row].integrals,
            )

        # --- batch entry: stabilise, time-zero absorption, refresh ----
        alive: list[int] = []
        for row in range(n_rows):
            cursor.set_row(row)
            cursor.changed_mask = 0
            self._stabilize(streams[row])
            cursor.changed_mask = 0
            if stop_predicate is not None and stop_predicate(cursor):
                finalize(row, 0.0, True, 0.0)
            elif horizon <= 0.0:
                finalize(row, horizon, False, math.inf)
            else:
                alive_mask[row] = True
                alive.append(row)
        if alive:
            with np.errstate(all="ignore"):
                for lowered in self._lowered:
                    lowered.refresh(matrix, Ro, Rb, alive_mask, has_bias)
            for row in alive:
                cursor.set_row(row)
                self._refresh_fallback_row(row, -1, fb_reads[row], Ro, Rb)
                fb_union[row] = self._fold_union(fb_reads[row])
                cursor.changed_mask = 0

        # --- lockstep jump loop ---------------------------------------
        while alive:
            full = len(alive) == n_rows
            Rb_rows = Rb if full else Rb[alive]
            Cb = np.cumsum(Rb_rows, axis=1)
            if has_bias:
                Co = np.cumsum(Ro if full else Ro[alive], axis=1)
            changed_union = 0
            survivors: list[int] = []
            for position, row in enumerate(alive):
                cursor.set_row(row)
                stream = streams[row]
                total_biased = float(Cb[position, -1])
                total = float(Co[position, -1]) if has_bias else total_biased
                if total <= 0.0:
                    # deadlock: the marking persists until the horizon
                    integrators[row].accumulate(cursor, horizon - now[row])
                    finalize(row, now[row], False, math.inf)
                    continue
                holding = stream.exponential(total_biased)
                if now[row] + holding > horizon:
                    weights[row] *= math.exp(
                        -(total - total_biased) * (horizon - now[row])
                    )
                    integrators[row].accumulate(cursor, horizon - now[row])
                    now[row] = horizon
                    finalize(row, horizon, False, math.inf)
                    continue

                # replay choice_index: one uniform, prefix-sum bisection
                u = stream.random() * total_biased
                index = int(np.searchsorted(Cb[position], u, side="right"))
                if index >= n_acts:
                    index = n_acts - 1
                    while index > 0 and Rb[row, index] <= 0.0:
                        index -= 1
                weights[row] *= (
                    float(Ro[row, index]) / float(Rb[row, index])
                ) * math.exp(-(total - total_biased) * holding)
                integrators[row].accumulate(cursor, holding)
                now[row] += holding

                chooser = self._choosers[index]
                case = 0 if chooser is None else chooser(stream)
                self._firers[index](case)
                firings[row] += 1
                self._kernel_events += 1
                if cursor.changed_mask & insta_reads:
                    self._stabilize(stream)

                if stop_predicate is not None and stop_predicate(cursor):
                    finalize(row, now[row], True, now[row])
                    continue
                if now[row] >= horizon:
                    finalize(row, now[row], False, math.inf)
                    continue

                changed = cursor.clear_changed_mask()
                if changed:
                    changed_union |= changed
                    if changed & fb_union[row]:
                        reads = fb_reads[row]
                        if self._refresh_fallback_row(row, changed, reads,
                                                      Ro, Rb):
                            fb_union[row] = self._fold_union(reads)
                survivors.append(row)
            alive = survivors
            if changed_union and alive and self._lowered:
                self._refresh_lowered(changed_union, matrix, Ro, Rb,
                                      alive_mask, has_bias)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _refresh_lowered(self, changed_mask: int, matrix, Ro, Rb, alive_mask,
                         has_bias: bool) -> None:
        """Recompute the lowered groups whose read slots changed."""
        lowered_dep = self._lowered_dep
        affected = 0
        while changed_mask:
            low = changed_mask & -changed_mask
            affected |= lowered_dep[low.bit_length() - 1]
            changed_mask ^= low
        if not affected:
            return
        lowered = self._lowered
        with np.errstate(all="ignore"):
            while affected:
                low = affected & -affected
                lowered[low.bit_length() - 1].refresh(
                    matrix, Ro, Rb, alive_mask, has_bias,
                )
                affected ^= low

    def _refresh_fallback_row(self, row: int, changed_mask: int,
                              reads: list[int], Ro, Rb) -> bool:
        """Re-evaluate the row's fallback activities (compiled semantics).

        ``changed_mask == -1`` forces a full pass (batch entry); else only
        activities whose last traced read set intersects the mask run.
        The cursor must already be on ``row``.  Returns True when any
        read set changed (caller refolds the row's union mask).
        """
        trace = self._trace
        factors = self._factors
        has_bias = self._has_bias
        changed_reads = False
        for k, index in enumerate(self._fb_indices):
            if changed_mask != -1 and not (changed_mask & reads[k]):
                continue
            trace[0] = 0
            enabled = self._fb_enabled[k]
            if enabled is None or enabled():
                fn = self._fb_rate_fns[k]
                rate = self._fb_rate_consts[k] if fn is None else fn()
                if rate > 0.0:
                    new_orig = rate
                    new_biased = rate * factors[index]
                else:
                    new_orig = 0.0
                    new_biased = 0.0
            else:
                new_orig = 0.0
                new_biased = 0.0
            Ro[row, index] = new_orig
            if has_bias:
                Rb[row, index] = new_biased
            traced = trace[0] if trace[0] else self._fb_static_reads[k]
            if traced != reads[k]:
                reads[k] = traced
                changed_reads = True
        return changed_reads

    @staticmethod
    def _fold_union(reads: list[int]) -> int:
        union = 0
        for mask in reads:
            union |= mask
        return union
