"""Stepped SAN execution: the jump loop lowered to NumPy array kernels.

The compiled engine (:mod:`repro.san.compiled`) advances one replication
at a time: every jump pays Python-level closure calls for the affected
gates plus a rate-total update.  This module advances a *batch* of
replications in lockstep and keeps the Python-level iteration per batch
**step** rather than per event:

* structure of arrays: the batch's markings live in a ``(B, n_places)``
  int64 matrix (column major, so per-place columns are contiguous)
  mirrored from exact per-row Python values, and the per-row propensity
  vectors in ``(B, n_activities)`` rate tables;
* lowering (:mod:`repro.san.lowering`): gate predicates and rate
  functions — threshold comparisons and arithmetic on place markings —
  become column expressions, grouped across the model's replicas and
  served from direct-address tables keyed on the values they read, so
  a refresh is a few gathers instead of one closure call per row;
* selection: holding times and selection uniforms are drawn per
  replication stream (bit-identity pins each row to its own
  :class:`~repro.stochastic.rng.RandomStream`), but the activity is
  resolved for the whole step at once — a masked comparison against the
  cumulative-sum rate rows replays ``choice_index``'s left-to-right
  tie-break exactly (``(cumsum <= u).sum()`` ≡ ``bisect_right``);
* fused firing: :func:`~repro.san.compiled.trace_fire_programs`
  precomputes per-(activity, case) **delta programs** — column writes of
  the form ``const`` or ``initial[slot] + delta`` — applied to all rows
  that fired the same case in one NumPy operation, with per-row Python
  values synchronised lazily (a ``stale`` bitmask per row) only when a
  scalar closure, stop predicate or export actually needs them;
* the instantaneous-activity scan and the stop predicate are lowered to
  column expressions where possible, and absorbed, deadlocked and
  horizon-crossed rows drop out of the step loop.

Any gate that resists lowering (writes, extended places, ``float()``
coercions, data-dependent control flow beyond branch-enumerable
comparisons) degrades to a **per-row closure fallback** reusing the
compiled engine's tracing closures, so arbitrary SANs still run.

One step loop, :func:`run_jobs`, serves every batch run: a
single-point :meth:`SteppedJumpEngine.run_batch` is its one-job case,
and :class:`~repro.san.multipoint.MultiPointContext` stacks several
sweep points' jobs into one tensor.

Equivalence contract (``tests/san/test_stepped_equivalence``): per
stream, runs are **bit-identical** to the compiled engine (draw order,
IS weights, stop times, final markings) at any batch size.  Totals are
reduced with ``np.cumsum`` (strictly sequential, bitwise equal to the
interpreted engine's left-to-right sum); delta programs reproduce the
compiled write (and negative-marking error) semantics or fall back per
row; the instantaneous skip only elides scans that would provably fire
nothing; lowered stop predicates evaluate the same integer comparisons
over the matrix.  The one intentional divergence is error *ordering*
inside a single step when several rows raise simultaneously (rows are
processed grouped by activity rather than by row index), and
re-evaluation timing of model-bug errors (negative or NaN rates) may
differ because changed-slot masks are supersets of the compiled
engine's.

Observed runs, runs with rate rewards and ``simulate`` (splitting
segments) delegate row by row to an internal
:class:`~repro.san.compiled.CompiledJumpEngine` sharing the same compile
pass, preserving trace ordering, ``wants_deltas`` delta reporting and
reward integrals.

See ``docs/engine_perf.md`` for layout details and measurements.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Callable, Mapping, Optional, Union

import numpy as np

from repro.san.activities import rate_error
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
    trace_fire_programs,
)
from repro.san.lowering import (
    _build_tree,
    _CannotLower,
    _enumerate_paths,
    _lower_group,
    _Node,
    _tree_expr,
)
from repro.san.model import SANModel
from repro.san.simulator import (
    MAX_INSTANTANEOUS_CHAIN,
    SimulationRun,
    UnstableMarkingError,
)
from repro.stochastic.rng import RandomStream

__all__ = ["DEFAULT_BATCH_SIZE", "MultiPointJob", "SteppedJumpEngine",
           "run_jobs"]

#: default replications advanced in lockstep (see docs/engine_perf.md)
DEFAULT_BATCH_SIZE = 256


class _LoweredGroup:
    """Timed activities sharing gate/rate code, refreshed as one block.

    The paper model instantiates the same per-vehicle activity types
    across its 2n replicas, so most predicate/rate *functions* recur ~2n
    times with different place bindings.  Grouping those members means
    each unique decision tree is evaluated once per refresh over a
    ``(rows, G)`` column block instead of once per member — the second
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

    def refresh(self, M, rows, Ro, Rb, has_bias: bool) -> None:
        """Recompute the group's rate columns on ``rows`` from the matrix.

        Evaluates the lowered expressions on the ``rows`` sub-matrix and
        writes only those rows: a multi-point tensor interleaves rows of
        *different* models, whose lanes this group must not touch.
        Elementwise ufuncs are bitwise shape-independent, so the written
        lanes hold exactly the values a whole-matrix evaluation would.
        Callers pass the engine's *alive* rows, which is where the
        invalid-rate guard applies.
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
            invalid = ~(rates >= 0.0)  # negative or NaN
            if enabled is not None:
                positive = enabled & positive
                invalid = enabled & invalid
            if invalid.any():
                row, col = divmod(int(np.argmax(invalid)), shape[1])
                raise rate_error(self.names[col], float(rates[row, col]))
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


class _StopProbe:
    """Marking stand-in for tracing a stop predicate into a column expr.

    Only the read surface stop predicates actually use (``get``) is
    provided; anything else raises and aborts lowering, sending the
    predicate to the per-row path.
    """

    __slots__ = ("_slot_of", "_extended")

    def __init__(self, slot_of, extended: frozenset) -> None:
        self._slot_of = slot_of
        self._extended = extended

    def get(self, place) -> _Node:
        slot = self._slot_of.get(place)
        if slot is None:
            raise _CannotLower("unknown place in stop predicate")
        if slot in self._extended:
            raise _CannotLower("extended place in stop predicate")
        return _Node(lambda M, _s=slot: M[:, _s])


def _bool_rows(value, n_rows: int) -> np.ndarray:
    """Normalise a lowered expression's output to an (R,) bool array."""
    arr = np.asarray(value)
    if arr.ndim == 0:
        return np.full(n_rows, bool(arr != 0))
    return (arr != 0).reshape(n_rows, -1).any(axis=1)


#: per-part table size cap — a span beyond this falls back to the
#: direct tree refresh (8 MiB of float64 per part at the cap)
_SPAN_CAP = 1 << 20


class _PartMemo:
    """Direct-address value table over one lowered part's read *roles*.

    A lowered group fuses 2n replicas of the same gate/rate code; each
    member's value is a pure function of the slots its binding maps the
    code's place names to.  Because the code (and hence the traced name
    set) is identical across members, the name-aligned slot vectors —
    the *roles* — give a sound shared key: ``role values → value`` is
    the same map for every member.  Roles whose slot is the same for
    all members (the shared occupancy counters) contribute one column
    read per refresh; per-member roles (per-vehicle flags) contribute a
    ``(rows, G)`` gather.  The mixed-radix index over per-role value
    bounds addresses a dense table, so a warm refresh is a handful of
    gathers with no tree evaluation at all.

    Bounds adapt: a value at or beyond a role's bound grows the bound
    and rebuilds (clears) the table — rare, since the paper models'
    occupancies are bounded by the platoon size.  A span above
    ``_SPAN_CAP`` reports ``None`` and the owner reverts to the direct
    refresh for good.
    """

    __slots__ = ("member_slots", "member_keys", "shared_slots", "bounds",
                 "strides", "table", "is_float", "dead", "span", "defer")

    def __init__(self, roles: list, is_float: bool,
                 defer: bool = False) -> None:
        # dedupe identical roles (a name bound twice to the same slots)
        seen: set = set()
        unique = []
        for role in roles:
            key = role.tobytes()
            if key not in seen:
                seen.add(key)
                unique.append(role)
        self.member_slots = [
            role for role in unique if (role != role[0]).any()
        ]
        # cache key per member role: the same per-vehicle flag role is
        # read by many groups, so its gather is shared within a refresh
        self.member_keys = [role.tobytes() for role in self.member_slots]
        self.shared_slots = [
            int(role[0]) for role in unique if not (role != role[0]).any()
        ]
        self.bounds = [2] * (len(self.member_slots) + len(self.shared_slots))
        self.is_float = is_float
        #: diagnose-mode flag: derive spans/strides but never allocate
        #: the backing array (the static analyzer only reads the specs)
        self.defer = defer
        self.strides: list = []
        self.table = None
        self.span = 1
        self.dead = False
        self._rebuild()

    def _rebuild(self) -> bool:
        span = 1
        strides = []
        for bound in self.bounds:
            strides.append(span)
            span *= bound
        self.span = span
        if span > _SPAN_CAP:
            self.dead = True
            self.table = None
            return False
        self.strides = strides
        if self.defer:
            self.table = None
        elif self.is_float:
            self.table = np.full(span, np.nan, dtype=np.float64)
        else:
            # 0/1 cached predicate values; 2 marks a never-seen key
            self.table = np.full(span, 2, dtype=np.uint8)
        return True

    def index(self, matrix, rows, cache: dict):
        """Mixed-radix table index per (row, member) — ``(a,)`` when all
        roles are shared, ``(a, G)`` otherwise, ``None`` once dead.

        ``cache`` shares gathered shared-slot columns (and their maxima)
        across every part refreshed for the same row set within one
        refresh call — the AHS groups all key on the same few occupancy
        counters, so most gathers hit it.
        """
        if self.dead:
            return None
        n_member = len(self.member_slots)
        signature = None
        if not self.member_slots:
            # fully-shared parts with the same slots converge to the same
            # bounds (they see the same data), so their mixed-radix index
            # is identical — compute it once per refresh call
            signature = (tuple(self.shared_slots), tuple(self.bounds))
            memoised = cache.get(signature)
            if memoised is not None:
                return memoised
        rows2 = cache.get("rows2")
        if rows2 is None:
            rows2 = rows[:, None]
            cache["rows2"] = rows2
        while True:
            grow = False
            vals_member = []
            for k, slots in enumerate(self.member_slots):
                entry = cache.get(self.member_keys[k])
                if entry is None:
                    v = matrix[rows2, slots]
                    entry = (v, int(v.max()) if v.size else 0)
                    cache[self.member_keys[k]] = entry
                v, top = entry
                if top >= self.bounds[k]:
                    self.bounds[k] = top + 2
                    grow = True
                vals_member.append(v)
            vals_shared = []
            for j, slot in enumerate(self.shared_slots):
                entry = cache.get(slot)
                if entry is None:
                    v = matrix[rows, slot]
                    entry = (v, int(v.max()) if v.size else 0)
                    cache[slot] = entry
                v, top = entry
                if top >= self.bounds[n_member + j]:
                    self.bounds[n_member + j] = top + 2
                    grow = True
                vals_shared.append(v)
            if not grow:
                break
            if not self._rebuild():
                return None
        idx_shared = None
        for j, v in enumerate(vals_shared):
            stride = self.strides[n_member + j]
            term = v if stride == 1 else v * stride
            idx_shared = term if idx_shared is None else idx_shared + term
        idx_member = None
        for k, v in enumerate(vals_member):
            stride = self.strides[k]
            term = v if stride == 1 else v * stride
            idx_member = term if idx_member is None else idx_member + term
        if idx_member is None:
            if idx_shared is None:
                return np.zeros(len(rows), dtype=np.int64)
            if signature is not None:
                # bounds may have grown above — key under the final ones
                cache[tuple(self.shared_slots), tuple(self.bounds)] = (
                    idx_shared
                )
            return idx_shared
        if idx_shared is not None:
            idx_member = idx_member + idx_shared[:, None]
        return idx_member


class _TableGroup:
    """Tabulated refresh for one lowered group (stepped engine only).

    Splits the group into its gate conjunction (a 0/1 table) and its
    rate expression (a float table), each direct-addressed by
    :class:`_PartMemo` keys.  Missing entries are filled by evaluating
    the group's own lowered trees on just the missing rows, so every
    cached value holds exactly the bits the direct full-batch refresh
    would produce (elementwise ufuncs are bitwise shape-independent),
    and the per-step work in the steady state collapses to column
    gathers, two table lookups and one ``where``.

    Parity notes: the invalid-rate guard runs per step on the gathered
    values (gate-masked, alive rows only) exactly like the direct
    refresh.  NaN is the rate table's miss sentinel, so a rate that
    evaluates to NaN is never cached: it is re-evaluated on every
    refresh that reads it, and raises once its activity is enabled.
    """

    __slots__ = ("group", "gate", "rate", "direct")

    def __init__(self, group, defer: bool = False) -> None:
        self.group = group
        self.gate: Optional[_PartMemo] = None
        self.rate: Optional[_PartMemo] = None
        self.direct = False
        if group.gate_exprs:
            self.gate = _PartMemo(group.gate_roles, is_float=False,
                                  defer=defer)
        if group.rate_expr is not None:
            self.rate = _PartMemo(group.rate_roles, is_float=True,
                                  defer=defer)
        if (self.gate is not None and self.gate.dead) or (
            self.rate is not None and self.rate.dead
        ):
            self.direct = True

    def refresh(self, matrix, rows, Ro, Rb, has_bias: bool,
                cache: Optional[dict] = None) -> None:
        """Refresh the group's rate columns for ``rows`` (writes no other
        row, so sibling points' lanes in a multi-point tensor survive).
        """
        group = self.group
        if not self.direct:
            if cache is None:
                cache = {}
            gate_idx = rate_idx = None
            if self.gate is not None:
                gate_idx = self.gate.index(matrix, rows, cache)
                self.direct = gate_idx is None
            if self.rate is not None and not self.direct:
                rate_idx = self.rate.index(matrix, rows, cache)
                self.direct = rate_idx is None
        if self.direct:
            group.refresh(matrix, rows, Ro, Rb, has_bias)
            return

        en = self.gate.table[gate_idx] if self.gate is not None else None
        rt = self.rate.table[rate_idx] if self.rate is not None else None
        miss = None
        if en is not None:
            miss = en == 2
        if rt is not None:
            rt_miss = np.isnan(rt)
            if miss is None:
                miss = rt_miss
            elif miss.shape == rt_miss.shape:
                miss = miss | rt_miss
            else:  # one side per-row, the other per-(row, member)
                miss = (
                    miss.reshape(len(rows), -1).any(axis=1)
                    | rt_miss.reshape(len(rows), -1).any(axis=1)
                )
        refilled = miss is not None and miss.any()
        if refilled:
            if miss.ndim == 2:
                local = np.unique(np.nonzero(miss)[0])
            else:
                local = np.flatnonzero(miss)
            self._fill(matrix, rows, local, gate_idx, rate_idx)
            if en is not None:
                en = self.gate.table[gate_idx]
            if rt is not None:
                rt = self.rate.table[rate_idx]

        if rt is None:
            enabled = en != 0
            if enabled.ndim == 1:
                enabled = enabled[:, None]
            block = np.where(enabled, group.eff_consts, 0.0)
        else:
            if rt.ndim == 1:
                rt = rt[:, None]
            positive = rt > 0.0
            invalid = rt < 0.0
            if refilled:
                # a NaN can only be a fresh evaluation (cached values
                # never are), so only a refill needs the NaN check
                invalid = invalid | np.isnan(rt)
            if en is not None:
                enabled = en != 0
                if enabled.ndim == 1:
                    enabled = enabled[:, None]
                positive = positive & enabled
                invalid = invalid & enabled
            if invalid.any():
                shape = (len(rows), len(group.indices))
                flat = np.broadcast_to(invalid, shape)
                row, col = divmod(int(np.argmax(flat)), shape[1])
                rates = np.broadcast_to(rt, shape)
                raise rate_error(group.names[col], float(rates[row, col]))
            block = np.where(positive, rt, 0.0)
        rows2 = cache.get("rows2")
        if rows2 is None:
            rows2 = rows[:, None]
            cache["rows2"] = rows2
        Ro[rows2, group.indices] = block
        if has_bias:
            if group.any_factor:
                Rb[rows2, group.indices] = block * group.factors
            else:
                Rb[rows2, group.indices] = block

    def _fill(self, matrix, rows, local, gate_idx, rate_idx) -> None:
        """Evaluate the group's trees on the missing rows and cache."""
        group = self.group
        sub = matrix[rows[local]]
        shape = (len(local), len(group.indices))
        if self.gate is not None:
            enabled = None
            for expr in group.gate_exprs:
                gate = np.asarray(expr(sub)) != 0
                enabled = gate if enabled is None else (enabled & gate)
            if enabled.ndim != 2:
                enabled = np.broadcast_to(enabled, shape)
            target = gate_idx[local]
            if target.ndim == 1:
                # shared-only roles: every member caches the same value
                self.gate.table[target] = enabled[:, 0]
            else:
                self.gate.table[target] = enabled
        if self.rate is not None:
            rates = np.asarray(group.rate_expr(sub), dtype=np.float64)
            if rates.ndim != 2:
                rates = np.broadcast_to(rates, shape)
            target = rate_idx[local]
            if target.ndim == 1:
                self.rate.table[target] = rates[:, 0]
            else:
                self.rate.table[target] = rates


class SteppedJumpEngine:
    """Lockstep batch executor over a compiled SAN (see module docstring).

    Semantically a drop-in for :class:`CompiledJumpEngine` — same
    constructor validation, same ``run``/``simulate`` surface plus
    :meth:`run_batch` — producing bit-identical results per stream at
    any batch size.

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
        ``lowering_stats``/``fallback_reasons``, the lowered trees and
        the refresh-table specs are populated) but skip the per-row
        delegate, every runtime closure and every table allocation.  A
        diagnose engine cannot run — ``run``/``simulate``/``run_batch``
        raise — which is what the static analyzer wants: lowering facts
        without paying for executable kernels.
    """

    #: engine label reported in runtime telemetry footers
    engine_name = "stepped"

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
                f"SteppedJumpEngine requires exponential activities; "
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

        Only observed runs, rate-reward runs and ``simulate`` use it, so
        it is built on first access: plain batch runs never pay for its
        closures.  It takes its refresh-memo footprints from the lowering
        this engine already ran (:meth:`CompiledModel.lowering` keeps
        it), so no second lowering pass runs.  Diagnose engines have
        none.
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
        #: per lowered group, its tabulated refresh (tables persist
        #: across batches — read-value combinations recur between sweep
        #: points, so later points start warm)
        self._tables = [
            _TableGroup(group, defer=self.diagnose) for group in self._lowered
        ]
        #: per timed activity, per case: FireProgram or None (fallback)
        self._fire_programs = [
            trace_fire_programs(compiled, activity)
            for activity in compiled.timed
        ]
        self._insta_lowered = self._lower_insta()
        #: table-memoised insta-gate scan: ``read values -> any enabled``
        #: keyed the same way as the refresh tables (the severity gates
        #: read a handful of shared class counters, so the key space is
        #: tiny); None when the gates didn't lower or the span is hopeless
        self._insta_memo: Optional[_PartMemo] = None
        if self._insta_lowered is not None and self._insta_read_slots:
            memo = _PartMemo(
                [
                    np.array([slot], dtype=np.intp)
                    for slot in sorted(self._insta_read_slots)
                ],
                is_float=False,
                defer=self.diagnose,
            )
            if not memo.dead:
                self._insta_memo = memo
        #: entry stabilisation is deterministic (and so broadcastable
        #: from the first row) exactly when no instantaneous activity
        #: can draw a case — single-case activities never touch the
        #: stream, and all rows share the same initial marking
        self._insta_single_case = all(
            len(activity.cases) == 1 for activity in compiled.instantaneous
        )
        # stop-predicate lowering cache: id → (predicate, expr or None);
        # the strong predicate reference prevents id reuse
        self._stop_cache: dict[int, tuple] = {}

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

    def _lower_insta(self) -> Optional[list]:
        """Per instantaneous activity, its lowered gate conjunction.

        ``None`` when any activity resists lowering (or is gateless,
        i.e. unconditionally enabled): every row whose changes touch an
        instantaneous read slot is then scanned.
        """
        compiled = self.compiled
        slot_of = compiled.slot_of
        extended = frozenset(
            slot for slot, place in enumerate(compiled.places)
            if place.is_extended
        )
        per_activity: list[list[Callable]] = []
        reads_union: set[int] = set()
        self._insta_read_slots: frozenset = frozenset()
        for activity in compiled.instantaneous:
            if not activity.input_gates:
                return None
            gate_exprs = []
            try:
                for gate in activity.input_gates:
                    expr, reads, _roles = _lower_group(
                        gate.predicate,
                        [gate.slot_binding(slot_of)],
                        extended,
                    )
                    gate_exprs.append(expr)
                    reads_union |= reads
            except _CannotLower:
                return None
            per_activity.append(gate_exprs)
        self._insta_read_slots = frozenset(reads_union)
        return per_activity

    # ------------------------------------------------------------------
    def lowering_stats(self) -> dict[str, int]:
        """How much of the model the vector kernels cover (reports)."""
        cases = lowered = 0
        for programs in self._fire_programs:
            cases += len(programs)
            lowered += sum(1 for program in programs if program is not None)
        return {
            "timed_activities": self._n,
            "lowered": sum(len(group.indices) for group in self._lowered),
            "groups": len(self._lowered),
            "fallback": len(self._fb_indices),
            "fire_cases": cases,
            "fire_lowered": lowered,
            "insta_lowered": int(self._insta_lowered is not None),
            "groups_tabulated": sum(
                1 for table in self._tables if not table.direct
            ),
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

    def _any_insta_enabled(self, sub: np.ndarray, n_rows: int) -> np.ndarray:
        """(R,) bool: rows where some instantaneous activity is enabled."""
        any_enabled: Optional[np.ndarray] = None
        for gate_exprs in self._insta_lowered:  # type: ignore[union-attr]
            act: Optional[np.ndarray] = None
            for expr in gate_exprs:
                gate = _bool_rows(expr(sub), n_rows)
                act = gate if act is None else (act & gate)
            any_enabled = act if any_enabled is None else (any_enabled | act)
        if any_enabled is None:  # no instantaneous activities at all
            return np.zeros(n_rows, dtype=bool)
        return any_enabled

    def _insta_enabled_rows(self, matrix, rows: np.ndarray) -> np.ndarray:
        """(len(rows),) bool: some instantaneous activity enabled, per row.

        Served from the insta memo table where possible (misses evaluate
        the lowered gate trees on just the missing rows, so cached bits
        match direct evaluation exactly); falls back to full-matrix
        evaluation once the memo dies at the span cap.
        """
        memo = self._insta_memo
        if memo is not None:
            idx = memo.index(matrix, rows, {})
            if idx is None:
                self._insta_memo = None
            else:
                vals = memo.table[idx]
                miss = vals == 2
                if miss.any():
                    local = np.flatnonzero(miss)
                    sub = matrix[rows[local]]
                    memo.table[idx[local]] = self._any_insta_enabled(
                        sub, len(local)
                    )
                    vals = memo.table[idx]
                return vals != 0
        return self._any_insta_enabled(matrix, matrix.shape[0])[rows]

    def _lowered_stop(self, stop_predicate) -> Optional[Callable]:
        """Column expression for ``stop_predicate``, or ``None``."""
        if stop_predicate is None:
            return None
        key = id(stop_predicate)
        entry = self._stop_cache.get(key)
        if entry is not None and entry[0] is stop_predicate:
            return entry[1]
        compiled = self.compiled
        extended = frozenset(
            slot for slot, place in enumerate(compiled.places)
            if place.is_extended
        )
        probe = _StopProbe(compiled.slot_of, extended)
        try:
            paths = _enumerate_paths(stop_predicate, probe)
            expr, _const = _tree_expr(_build_tree(paths, 0))
        except _CannotLower:
            expr = None
        self._stop_cache[key] = (stop_predicate, expr)
        return expr

    # ------------------------------------------------------------------
    def _refresh_lowered(self, changed_mask: int, matrix, rows, Ro,
                         Rb) -> None:
        """Recompute, on ``rows``, the lowered groups whose reads changed.

        ``rows`` are this engine's alive rows.  Dead rows' rate lanes go
        stale, which is unobservable: every consumer (cumulative sums,
        selection clamp-back, weight ratios) indexes alive rows only.
        """
        lowered_dep = self._lowered_dep
        affected = 0
        while changed_mask:
            low = changed_mask & -changed_mask
            affected |= lowered_dep[low.bit_length() - 1]
            changed_mask ^= low
        if not affected:
            return
        tables = self._tables
        has_bias = self._has_bias
        cache: dict = {}
        with np.errstate(all="ignore"):
            while affected:
                low = affected & -affected
                tables[low.bit_length() - 1].refresh(
                    matrix, rows, Ro, Rb, has_bias, cache,
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

    # ------------------------------------------------------------------
    def run(
        self,
        stream: RandomStream,
        horizon: float,
        stop_predicate: Optional[Callable[[Any], bool]] = None,
        rate_rewards=None,
    ) -> SimulationRun:
        """One replication: a batch of one."""
        return self.run_batch([stream], horizon, stop_predicate,
                              rate_rewards)[0]

    def simulate(self, *args, **kwargs):
        """Path-segment simulation (splitting); always per-row compiled."""
        self._require_runtime()
        return self._delegate.simulate(*args, **kwargs)

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
        batch runs as the one-job case of :func:`run_jobs`; observed and
        rate-reward runs go row by row through the compiled delegate.
        """
        self._require_runtime()
        if self.observer is not None or rate_rewards:
            # traced runs stay per row (batching would interleave rows
            # within one trace stream); reward integrals are per event
            return [
                self._delegate.run(stream, horizon, stop_predicate,
                                   rate_rewards)
                for stream in streams
            ]
        if not streams:
            return []
        job = MultiPointJob(self, streams, horizon, stop_predicate)
        return run_jobs([self], [job])[0]


class MultiPointJob:
    """One sweep point's slice of a lockstep run.

    ``streams`` are the point's per-replication
    :class:`~repro.stochastic.rng.RandomStream` objects in chunk order;
    the run result for this job is one :class:`SimulationRun` per
    stream, in the same order.
    """

    __slots__ = ("engine", "streams", "horizon", "stop_predicate")

    def __init__(self, engine, streams, horizon: float,
                 stop_predicate=None) -> None:
        self.engine = engine
        self.streams = list(streams)
        self.horizon = float(horizon)
        self.stop_predicate = stop_predicate


def run_jobs(engines: list, jobs: list) -> list[list[SimulationRun]]:
    """Advance every job's replications in one step loop.

    ``engines`` are the distinct runtime stepped engines the ``jobs``
    use (deduplicated by identity), all with the same
    :attr:`~SteppedJumpEngine.has_bias`.  Returns one result list per
    job.  The tensor is released
    from every engine's cursor before returning (on errors too), so an
    idle engine — a cached worker context, say — holds no per-batch
    state.
    """
    try:
        return _step_jobs(engines, jobs)
    finally:
        for engine in engines:
            engine._cursor.unbind()


def _step_jobs(engines: list, jobs: list) -> list[list[SimulationRun]]:
    """The step loop behind :func:`run_jobs`.

    Rows are laid out engine-major (each engine's jobs in job order), so
    every engine and every job owns a contiguous row range.  The tensor
    is padded to the widest layout — ``max(n_slots)`` marking columns
    and ``max(n_acts)`` rate columns — and each engine's kernels touch
    only its own rows and its own columns.  A row's trailing rate
    columns stay ``0.0``, which leaves every cumulative-sum prefix and
    the row total bitwise unchanged; the selection count over the
    padded row therefore reaches ``max(n_acts)`` exactly at the
    ``u == total`` edge, where the clamp-back starts from the owning
    engine's last activity.
    """
    n_engines = len(engines)
    has_bias = engines[0]._has_bias
    position = {id(engine): e for e, engine in enumerate(engines)}
    jobs_of = [[] for _ in engines]
    for j, job in enumerate(jobs):
        jobs_of[position[id(job.engine)]].append(j)

    # --- row layout and per-row lookups (Python lists: the per-row
    # loops below read them far faster than NumPy scalars) -------------
    cursors = [engine._cursor for engine in engines]
    job_span: list = [None] * len(jobs)
    engine_span: list[tuple[int, int]] = []
    act_base = []        # engine → offset of its activities in group keys
    key_engine: list[int] = []
    streams_of: list = []
    hz: list[float] = []
    eng_of: list[int] = []
    base_of: list[int] = []
    insta_of: list[int] = []
    lowered_stops = []   # (lo, hi, expr) per job with a lowered stop
    scalar_stops = []    # (lo, hi, predicate) per job with another one
    n_rows = 0
    for e, engine in enumerate(engines):
        lo = n_rows
        for j in jobs_of[e]:
            job = jobs[j]
            count = len(job.streams)
            job_span[j] = (n_rows, n_rows + count)
            streams_of.extend(job.streams)
            hz.extend([job.horizon] * count)
            pred = job.stop_predicate
            expr = engine._lowered_stop(pred)
            if expr is not None:
                lowered_stops.append((n_rows, n_rows + count, expr))
            elif pred is not None:
                scalar_stops.append((n_rows, n_rows + count, pred))
            n_rows += count
        engine_span.append((lo, n_rows))
        act_base.append(len(key_engine))
        key_engine.extend([e] * engine._n)
        eng_of.extend([e] * (n_rows - lo))
        base_of.extend([act_base[e]] * (n_rows - lo))
        insta = engine.compiled.insta_reads_mask if engine._insta else 0
        insta_of.extend([insta] * (n_rows - lo))
    # rows whose stop predicate did not lower: the predicate, else None
    scalar_stop: Optional[list] = None
    if scalar_stops:
        scalar_stop = [None] * n_rows
        for lo, hi, pred in scalar_stops:
            scalar_stop[lo:hi] = [pred] * (hi - lo)
    any_insta = any(insta_of)
    max_acts = max(engine._n for engine in engines)

    # --- tensors: padded marking matrix + rate rows --------------------
    rows_vals: list[list] = []
    matrix = np.zeros(
        (n_rows, max(engine.compiled.n_slots for engine in engines)),
        dtype=np.int64, order="F",
    )
    for e, engine in enumerate(engines):
        lo, hi = engine_span[e]
        initial = engine.compiled.initial_values
        rows_vals.extend(list(initial) for _ in range(hi - lo))
        for slot, mirrored in enumerate(cursors[e]._mirror):
            if mirrored:
                matrix[lo:hi, slot] = initial[slot]
    for cursor in cursors:
        cursor.bind_batch(rows_vals, matrix)
    Ro = np.zeros((n_rows, max_acts), dtype=np.float64)
    Rb = np.zeros((n_rows, max_acts), dtype=np.float64) if has_bias else Ro
    alive_mask = np.zeros(n_rows, dtype=bool)

    results: list[Optional[SimulationRun]] = [None] * n_rows
    now = [0.0] * n_rows
    weights = [1.0] * n_rows
    firings = [0] * n_rows
    #: per-row bitmask of matrix slots not yet copied back into the
    #: exact Python row values (delta programs write the matrix only)
    stale = [0] * n_rows
    changed_masks = [0] * n_rows
    fb_reads: list[list[int]] = []
    for e, engine in enumerate(engines):
        lo, hi = engine_span[e]
        fb_count = len(engine._fb_indices)
        fb_reads.extend([0] * fb_count for _ in range(hi - lo))
    fb_union = [0] * n_rows

    def sync(row: int) -> None:
        mask = stale[row]
        if mask:
            values = rows_vals[row]
            while mask:
                low = mask & -mask
                slot = low.bit_length() - 1
                values[slot] = int(matrix[row, slot])
                mask ^= low
            stale[row] = 0

    def finalize(row: int, end_time: float, stopped: bool,
                 stop_time: float) -> None:
        alive_mask[row] = False
        sync(row)
        cursor = cursors[eng_of[row]]
        cursor.set_row(row)
        cursor.changed_mask = 0
        results[row] = SimulationRun(
            end_time=end_time,
            stopped=stopped,
            stop_time=stop_time,
            weight=weights[row],
            firings=firings[row],
            final_marking=cursor.export(),
            reward_integrals={},
        )

    # --- entry: stabilise, time-zero absorption, refresh ---------------
    # With only single-case instantaneous activities the entry
    # stabilisation draws nothing and every row of an engine starts from
    # the same initial marking, so its first row's stabilised state is
    # every row's: broadcast it instead of re-scanning per row (the
    # rows' streams are untouched either way, so the replay is exact).
    alive: list[int] = []
    for e, engine in enumerate(engines):
        lo, hi = engine_span[e]
        cursor = cursors[e]
        broadcast = engine._insta_single_case and hi - lo > 1
        if broadcast:
            cursor.set_row(lo)
            cursor.changed_mask = 0
            engine._stabilize(streams_of[lo])
            cursor.changed_mask = 0
            base_values = rows_vals[lo]
            for row in range(lo + 1, hi):
                rows_vals[row][:] = base_values
            matrix[lo + 1:hi] = matrix[lo]
        for j in jobs_of[e]:
            pred = jobs[j].stop_predicate
            horizon = jobs[j].horizon
            for row in range(*job_span[j]):
                cursor.set_row(row)
                cursor.changed_mask = 0
                if not broadcast:
                    engine._stabilize(streams_of[row])
                    cursor.changed_mask = 0
                if pred is not None and pred(cursor):
                    finalize(row, 0.0, True, 0.0)
                elif horizon <= 0.0:
                    finalize(row, horizon, False, math.inf)
                else:
                    alive_mask[row] = True
                    alive.append(row)
        rows_e = np.flatnonzero(alive_mask[lo:hi]) + lo
        if not len(rows_e):
            continue
        entry_cache: dict = {}
        with np.errstate(all="ignore"):
            for table in engine._tables:
                table.refresh(matrix, rows_e, Ro, Rb, has_bias, entry_cache)
        if engine._fb_indices:
            for row in rows_e.tolist():
                cursor.set_row(row)
                engine._refresh_fallback_row(row, -1, fb_reads[row], Ro, Rb)
                fb_union[row] = engine._fold_union(fb_reads[row])
                cursor.changed_mask = 0

    # --- batch-step loop -----------------------------------------------
    while alive:
        full = len(alive) == n_rows
        Cb = np.cumsum(Rb if full else Rb[alive], axis=1)
        totals_b = Cb[:, -1].tolist()
        if has_bias:
            totals = np.cumsum(
                Ro if full else Ro[alive], axis=1
            )[:, -1].tolist()
        else:
            totals = totals_b

        # phase 1: per-row draws (a row's exponential and selection
        # uniform stay consecutive on its own stream, against its own
        # horizon), deadlock and horizon-crossing exits
        fired_rows: list[int] = []
        fired_pos: list[int] = []
        fired_u: list[float] = []
        fired_tb: list[float] = []
        fired_tot: list[float] = []
        fired_hold: list[float] = []
        for pos, row in enumerate(alive):
            total_biased = totals_b[pos]
            total = totals[pos]
            if total <= 0.0:
                # deadlock: the marking persists until the horizon
                finalize(row, now[row], False, math.inf)
                continue
            stream = streams_of[row]
            holding = stream.exponential(total_biased)
            horizon = hz[row]
            if now[row] + holding > horizon:
                if has_bias:
                    weights[row] *= math.exp(
                        -(total - total_biased) * (horizon - now[row])
                    )
                now[row] = horizon
                finalize(row, horizon, False, math.inf)
                continue
            u = stream.random() * total_biased
            now[row] += holding
            firings[row] += 1
            changed_masks[row] = 0
            fired_rows.append(row)
            fired_pos.append(pos)
            fired_u.append(u)
            if has_bias:
                fired_tb.append(total_biased)
                fired_tot.append(total)
                fired_hold.append(holding)
        for e, (lo, hi) in enumerate(engine_span):
            engines[e]._kernel_events += (
                bisect_left(fired_rows, hi) - bisect_left(fired_rows, lo)
            )
        if not fired_rows:
            alive = []
            continue

        # phase 2: vectorized selection — count of cumulative sums
        # <= u replays searchsorted(side="right") ≡ bisect_right, with
        # the other engines' numerical-edge clamp-back (u == total
        # selects the owning engine's last enabled activity)
        u_arr = np.array(fired_u, dtype=np.float64)
        if len(fired_rows) < len(alive):
            Cb = Cb[np.array(fired_pos, dtype=np.intp)]
        indices = (Cb <= u_arr[:, None]).sum(axis=1)
        for k in np.flatnonzero(indices >= max_acts).tolist():
            row = fired_rows[k]
            index = engines[eng_of[row]]._n - 1
            while index > 0 and Rb[row, index] <= 0.0:
                index -= 1
            indices[k] = index
        picks = indices.tolist()
        if has_bias:
            for k, row in enumerate(fired_rows):
                index = picks[k]
                weights[row] *= (
                    float(Ro[row, index]) / float(Rb[row, index])
                ) * math.exp(-(fired_tot[k] - fired_tb[k]) * fired_hold[k])
        # (without bias the weight factor is exactly 1.0: Ro is Rb,
        # x/x == 1.0 and exp(-0.0·h) == 1.0 — skipping it is exact)

        # phase 3: fused firing, grouped by (engine, activity, case)
        groups: dict[int, list[int]] = {}
        for k, row in enumerate(fired_rows):
            key = base_of[row] + picks[k]
            members = groups.get(key)
            if members is None:
                groups[key] = [k]
            else:
                members.append(k)
        for key, members in groups.items():
            e = key_engine[key]
            engine = engines[e]
            cursor = cursors[e]
            index = key - act_base[e]
            chooser = engine._choosers[index]
            if chooser is None:
                by_case = {0: members}
            else:
                by_case = {}
                for k in members:
                    row = fired_rows[k]
                    sync(row)
                    cursor.set_row(row)
                    by_case.setdefault(chooser(streams_of[row]), []).append(k)
            programs = engine._fire_programs[index]
            firer = engine._firers[index]
            for case, ks in by_case.items():
                program = programs[case]
                if program is not None:
                    if len(ks) <= 2:
                        # tiny groups: plain-integer writes beat the
                        # fancy-indexing overhead; per-row failure
                        # replays just that row (the batch variant
                        # replays the whole group through the same
                        # closures with identical values and the same
                        # first-offender error)
                        write_mask = program.write_mask
                        for k in ks:
                            row = fired_rows[k]
                            if program.apply_row(matrix, row):
                                stale[row] |= write_mask
                                changed_masks[row] |= write_mask
                            else:
                                sync(row)
                                cursor.set_row(row)
                                cursor.changed_mask = 0
                                firer(case)
                                changed_masks[row] |= (
                                    cursor.clear_changed_mask()
                                )
                        continue
                    krows = np.fromiter(
                        (fired_rows[k] for k in ks),
                        dtype=np.intp,
                        count=len(ks),
                    )
                    if program.apply(matrix, krows):
                        write_mask = program.write_mask
                        for k in ks:
                            row = fired_rows[k]
                            stale[row] |= write_mask
                            changed_masks[row] |= write_mask
                        continue
                # unlowered case, or a row would validate-fail:
                # compiled closures reproduce the exact semantics
                for k in ks:
                    row = fired_rows[k]
                    sync(row)
                    cursor.set_row(row)
                    cursor.changed_mask = 0
                    firer(case)
                    changed_masks[row] |= cursor.clear_changed_mask()

        # phase 4: instantaneous stabilisation — scan only the rows
        # whose changes can have enabled an instantaneous activity (and,
        # when the gates lower, only rows where one actually is enabled:
        # a scan that fires nothing draws and writes nothing, so
        # skipping it is exact).  Triggered rows are ascending, so each
        # engine's rows form one run of the list.
        if any_insta:
            triggered = [
                row for row in fired_rows
                if changed_masks[row] & insta_of[row]
            ]
            start = 0
            while start < len(triggered):
                e = eng_of[triggered[start]]
                end = bisect_left(triggered, engine_span[e][1], start)
                scan_rows = triggered[start:end]
                start = end
                engine = engines[e]
                if engine._insta_lowered is not None:
                    with np.errstate(all="ignore"):
                        enabled = engine._insta_enabled_rows(
                            matrix, np.array(scan_rows, dtype=np.intp)
                        ).tolist()
                    scan_rows = [
                        row for row, ok in zip(scan_rows, enabled) if ok
                    ]
                cursor = cursors[e]
                for row in scan_rows:
                    sync(row)
                    cursor.set_row(row)
                    cursor.changed_mask = 0
                    engine._stabilize(streams_of[row])
                    changed_masks[row] |= cursor.clear_changed_mask()

        # phase 5: absorption (lowered per job where possible), horizon,
        # fallback-rate refresh for survivors, lowered refresh
        if lowered_stops:
            hit = np.zeros(n_rows, dtype=bool)
            with np.errstate(all="ignore"):
                for lo, hi, expr in lowered_stops:
                    hit[lo:hi] = _bool_rows(expr(matrix[lo:hi]), hi - lo)
            fired_hit = hit[np.array(fired_rows, dtype=np.intp)]
            for k in np.flatnonzero(fired_hit).tolist():
                row = fired_rows[k]
                finalize(row, now[row], True, now[row])
        if scalar_stop is not None:
            for row in fired_rows:
                pred = scalar_stop[row]
                if pred is not None:
                    sync(row)
                    cursor = cursors[eng_of[row]]
                    cursor.set_row(row)
                    if pred(cursor):
                        finalize(row, now[row], True, now[row])

        changed_unions = [0] * n_engines
        survivors: list[int] = []
        for row in fired_rows:
            if results[row] is not None:
                continue
            if now[row] >= hz[row]:
                finalize(row, now[row], False, math.inf)
                continue
            changed = changed_masks[row]
            if changed:
                e = eng_of[row]
                changed_unions[e] |= changed
                if changed & fb_union[row]:
                    sync(row)
                    cursors[e].set_row(row)
                    reads = fb_reads[row]
                    if engines[e]._refresh_fallback_row(row, changed, reads,
                                                        Ro, Rb):
                        fb_union[row] = engines[e]._fold_union(reads)
            survivors.append(row)
        alive = survivors
        for e, changed in enumerate(changed_unions):
            if changed:
                lo, hi = engine_span[e]
                rows_e = np.flatnonzero(alive_mask[lo:hi])
                if len(rows_e):
                    if lo:
                        rows_e += lo
                    engines[e]._refresh_lowered(changed, matrix, rows_e,
                                                Ro, Rb)

    return [results[lo:hi] for lo, hi in job_span]  # type: ignore[misc]
