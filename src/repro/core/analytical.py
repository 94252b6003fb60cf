"""Fast numerical evaluation of the AHS unsafety S(t).

The full composed SAN (2n vehicle replicas × dynamicity × severity) has a
state space far too large for exact generation, and plain Monte-Carlo
cannot see probabilities of 1e-13 (the paper's λ=1e-7 case).  This module
exploits the model's *near-complete decomposability* (Courtois): vehicle
movement (join/leave/change/transit, rates of order 1–30/hr) is many orders
of magnitude faster than failures (order 1e-5/hr), and is unaffected by
them except for O(λ) perturbations.  Therefore:

1. The **occupancy process** — states ``(occ1, occ2, transit)`` — is solved
   exactly for its stationary law (a few hundred states).
2. The **failure process** — states = multisets of active maneuvers per
   platoon, truncated at ``max_concurrent`` — is built as a CTMC whose
   rates use the expected occupancies, with request escalation, failure
   escalation, severity accounting, and catastrophic detection exactly as
   specified in DESIGN.md.  Catastrophic successors collapse into the
   absorbing ``KO`` state; states beyond the truncation collapse into
   ``TRUNCATED``, whose transient probability bounds the truncation error.
3. ``S(t) = P(KO at t)`` by uniformization.

The same per-vehicle semantics drive the full SAN simulation model
(:mod:`repro.core.composed`); agreement between the two engines at high λ is
checked by the integration tests.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from repro.core.coordination import scope_is_global
from repro.core.failure_modes import FAILURE_MODES
from repro.core.maneuvers import (
    ESCALATION_LADDER,
    FAILURE_MODE_RUNG,
    RUNG_LETTER,
    RUNG_PRIORITY,
    Maneuver,
    grant_rung,
)
from repro.core.parameters import AHSParameters
from repro.core.severity import catastrophic_situation_counts
from repro.ctmc import CTMC, stationary_distribution, transient_distribution
from repro.runtime.cache import content_key

__all__ = ["OccupancyChain", "FailureLevelChain", "AnalyticalEngine", "AnalyticalResult"]

#: canonical maneuver order used in failure-level state vectors
MANEUVER_ORDER: tuple[Maneuver, ...] = ESCALATION_LADDER


# ----------------------------------------------------------------------
# occupancy layer
# ----------------------------------------------------------------------
class OccupancyChain:
    """Exact CTMC of the vehicle-movement (Dynamicity) process.

    States are ``(occ1, occ2, transit)``: members of each platoon and
    vehicles from platoon 2 transiting through platoon 1 on their way out
    (paper §4.1: 3–4 minutes in platoon 1 before exiting).  The population
    is closed at 2n; vehicles outside the highway re-enter individually at
    the join rate (see DESIGN.md on the Join reading).
    """

    def __init__(self, params: AHSParameters) -> None:
        self.params = params
        self.states: list[tuple[int, int, int]] = []
        self.index: dict[tuple[int, int, int], int] = {}
        self._build()

    # ------------------------------------------------------------------
    def _transitions(
        self, state: tuple[int, int, int]
    ) -> list[tuple[tuple[int, int, int], float]]:
        occ1, occ2, tr = state
        p = self.params
        n = p.max_platoon_size
        out = p.total_vehicles - occ1 - occ2 - tr
        moves: list[tuple[tuple[int, int, int], float]] = []

        # joins: each of the `out` vehicles re-enters at join_rate and
        # picks a platoon (50/50 by default); a full platoon refuses.
        if out > 0 and p.join_rate > 0:
            inflow = p.join_rate * out
            if occ1 + tr < n and p.platoon1_join_probability > 0:
                moves.append(
                    ((occ1 + 1, occ2, tr), inflow * p.platoon1_join_probability)
                )
            if occ2 < n and p.platoon1_join_probability < 1:
                moves.append(
                    ((occ1, occ2 + 1, tr), inflow * (1 - p.platoon1_join_probability))
                )
        # voluntary leaves (one per-platoon activity each, paper Fig. 7)
        if occ1 > 0 and p.leave_rate > 0:
            moves.append(((occ1 - 1, occ2, tr), p.leave_rate))
        # platoon-2 exits transit through platoon 1 (needs a slot there)
        if (
            occ2 > 0
            and p.leave_rate > 0
            and tr < p.max_transit
            and occ1 + tr < n
        ):
            moves.append(((occ1, occ2 - 1, tr + 1), p.leave_rate))
        # transit completion: each transiting vehicle exits independently
        if tr > 0 and p.transit_rate > 0:
            moves.append(((occ1, occ2, tr - 1), p.transit_rate * tr))
        # platoon changes (per-platoon activities ch1 / ch2)
        if occ1 > 0 and occ2 < n and p.change_rate > 0:
            moves.append(((occ1 - 1, occ2 + 1, tr), p.change_rate))
        if occ2 > 0 and occ1 + tr < n and p.change_rate > 0:
            moves.append(((occ1 + 1, occ2 - 1, tr), p.change_rate))
        return moves

    def _build(self) -> None:
        n = self.params.max_platoon_size
        initial = (n, n, 0)
        self.states = [initial]
        self.index = {initial: 0}
        frontier = [initial]
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        while frontier:
            state = frontier.pop()
            source = self.index[state]
            for successor, rate in self._transitions(state):
                target = self.index.get(successor)
                if target is None:
                    target = len(self.states)
                    self.states.append(successor)
                    self.index[successor] = target
                    frontier.append(successor)
                rows.append(source)
                cols.append(target)
                vals.append(rate)
        size = len(self.states)
        matrix = sparse.coo_matrix(
            (vals, (rows, cols)), shape=(size, size)
        ).tocsr()
        matrix.sum_duplicates()
        out_rates = np.asarray(matrix.sum(axis=1)).ravel()
        generator = (matrix - sparse.diags(out_rates)).tocsr()
        p0 = np.zeros(size)
        p0[0] = 1.0
        self.chain = CTMC(generator, p0)

    # ------------------------------------------------------------------
    def stationary(self) -> np.ndarray:
        """Stationary law of the occupancy process."""
        if self.chain.n_states == 1:
            return np.ones(1)
        return stationary_distribution(self.chain)

    def expected_occupancies(self) -> tuple[float, float, float]:
        """Stationary expectations ``(E[occ1], E[occ2], E[transit])``."""
        pi = self.stationary()
        occ1 = sum(p * s[0] for p, s in zip(pi, self.states))
        occ2 = sum(p * s[1] for p, s in zip(pi, self.states))
        tr = sum(p * s[2] for p, s in zip(pi, self.states))
        return float(occ1), float(occ2), float(tr)


# ----------------------------------------------------------------------
# failure layer
# ----------------------------------------------------------------------
#: frozen failure-level state: counts of active maneuvers, indexed
#: [platoon][rung]; plus the two sink ids below.
_KO = "KO"
_TRUNC = "TRUNC"


def _class_counts(state) -> tuple[int, int, int]:
    """Active failures per severity letter ``(A, B, C)`` over both platoons."""
    counts = [0, 0, 0]
    for rung, letter in enumerate(RUNG_LETTER):
        counts[letter] += state[0][rung] + state[1][rung]
    return counts[0], counts[1], counts[2]


def _active_total(state) -> int:
    return sum(state[0]) + sum(state[1])


def _with_delta(state, platoon: int, m_index: int, delta: int):
    vec = list(state[platoon])
    vec[m_index] += delta
    if vec[m_index] < 0:
        raise ValueError("negative maneuver count")
    if platoon == 0:
        return (tuple(vec), state[1])
    return (state[0], tuple(vec))


class FailureLevelChain:
    """CTMC of active recovery maneuvers, conditioned on mean occupancies.

    Parameters
    ----------
    params:
        Model parameters.
    occupancies:
        ``(E[occ1], E[occ2])`` from the occupancy layer.
    max_concurrent:
        Truncation level K: states track at most K simultaneously active
        maneuvers.  K = 4 makes every catastrophic situation of Table 2
        exactly representable (ST3 needs four failures); overflow routes
        to the TRUNCATED sink whose probability bounds the error.
    """

    def __init__(
        self,
        params: AHSParameters,
        occupancies: tuple[float, float],
        max_concurrent: int = 4,
    ) -> None:
        if max_concurrent < 2:
            raise ValueError("max_concurrent must be >= 2 (ST1 needs two failures)")
        self.params = params
        self.occupancies = occupancies
        self.max_concurrent = max_concurrent
        self.states: list = []
        self.index: dict = {}
        self.ko_index: Optional[int] = None
        self.trunc_index: Optional[int] = None
        self._build()

    # ------------------------------------------------------------------
    def _ceiling(self, state, platoon: int) -> int:
        """Highest priority a new request in ``platoon`` must defer to."""
        platoons = (0, 1) if scope_is_global(self.params.strategy) else (platoon,)
        ceiling = 0
        for p in platoons:
            for rung, count in enumerate(state[p]):
                if count and RUNG_PRIORITY[rung] > ceiling:
                    ceiling = RUNG_PRIORITY[rung]
        return ceiling

    def _busy_fraction(self, state) -> float:
        occ_total = self.occupancies[0] + self.occupancies[1]
        active = _active_total(state)
        if occ_total <= 1.0:
            return 1.0 if active > 0 else 0.0
        return min(max((active) / (occ_total - 1.0), 0.0), 1.0)

    def _transitions(self, state) -> list[tuple[object, float]]:
        params = self.params
        occ = self.occupancies
        moves: list[tuple[object, float]] = []

        # --- new failure-mode occurrences --------------------------------
        for platoon in (0, 1):
            active_here = sum(state[platoon])
            exposed = max(occ[platoon] - active_here, 0.0)
            if exposed <= 0.0:
                continue
            ceiling = self._ceiling(state, platoon)
            for fm, requested in zip(FAILURE_MODES, FAILURE_MODE_RUNG):
                rate = params.failure_mode_rate(fm) * exposed
                granted = grant_rung(requested, ceiling)
                moves.append((self._activate(state, platoon, granted), rate))

        # --- maneuver completions ----------------------------------------
        busy = self._busy_fraction(state)
        last_rung = len(MANEUVER_ORDER) - 1
        for platoon in (0, 1):
            occ_own = max(occ[platoon], 1.0)
            occ_nb = occ[1 - platoon]
            for m_index, maneuver in enumerate(MANEUVER_ORDER):
                count = state[platoon][m_index]
                if count == 0:
                    continue
                rate = count * params.maneuver_rate(maneuver, occ_own)
                p_success = params.success_probability(
                    maneuver, occ_own, occ_nb, busy
                )
                # success: the vehicle exits; its active failure clears
                cleared = _with_delta(state, platoon, m_index, -1)
                moves.append((cleared, rate * p_success))
                # failure: escalate along the ladder (or expel at v_KO)
                if m_index == last_rung:
                    # AS failed: vehicle becomes a free agent (expelled);
                    # its failure no longer threatens the platoons
                    moves.append((cleared, rate * (1.0 - p_success)))
                else:
                    granted = grant_rung(
                        m_index + 1, self._ceiling(cleared, platoon)
                    )
                    escalated = self._activate(cleared, platoon, granted)
                    moves.append((escalated, rate * (1.0 - p_success)))
        return moves

    def _activate(self, state, platoon: int, rung: int):
        """Successor after a maneuver becomes active (KO/TRUNC aware)."""
        successor = _with_delta(state, platoon, rung, +1)
        if catastrophic_situation_counts(*_class_counts(successor)) is not None:
            return _KO
        if _active_total(successor) > self.max_concurrent:
            return _TRUNC
        return successor

    def _build(self) -> None:
        empty = ((0,) * len(MANEUVER_ORDER), (0,) * len(MANEUVER_ORDER))
        self.states = [empty]
        self.index = {empty: 0}
        frontier = [empty]
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []

        def intern(label) -> int:
            existing = self.index.get(label)
            if existing is not None:
                return existing
            new_id = len(self.states)
            self.states.append(label)
            self.index[label] = new_id
            if label == _KO:
                self.ko_index = new_id
            elif label == _TRUNC:
                self.trunc_index = new_id
            else:
                frontier.append(label)
            return new_id

        while frontier:
            state = frontier.pop()
            source = self.index[state]
            for successor, rate in self._transitions(state):
                if rate <= 0.0:
                    continue
                target = intern(successor)
                if target == source:
                    continue
                rows.append(source)
                cols.append(target)
                vals.append(rate)

        size = len(self.states)
        matrix = sparse.coo_matrix(
            (vals, (rows, cols)), shape=(size, size)
        ).tocsr()
        matrix.sum_duplicates()
        out_rates = np.asarray(matrix.sum(axis=1)).ravel()
        generator = (matrix - sparse.diags(out_rates)).tocsr()
        p0 = np.zeros(size)
        p0[0] = 1.0
        self.chain = CTMC(generator, p0)


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
@dataclass
class AnalyticalResult:
    """Unsafety curve with its truncation-error bound."""

    times: np.ndarray
    unsafety: np.ndarray
    truncation_error: np.ndarray
    occupancies: tuple[float, float, float]
    n_states: int

    def value_at(self, time: float) -> float:
        """S(t) at an exact requested time point."""
        matches = np.flatnonzero(np.isclose(self.times, time))
        if matches.size == 0:
            raise KeyError(f"time {time} not computed; have {self.times}")
        return float(self.unsafety[matches[0]])


#: Chain builds kept across engines, least recently used evicted first.
_BUILD_CACHE_SIZE = 64
#: Transient curves kept per build, keyed by the exact requested times.
_CURVE_CACHE_SIZE = 16


class _Build:
    """What one parameter set costs to solve, kept for reuse.

    Only the expected occupancies and the failure-level chain are kept;
    the occupancy chain is dropped once its stationary law is solved.
    """

    def __init__(self, params: AHSParameters, max_concurrent: int) -> None:
        occ1, occ2, transit = OccupancyChain(params).expected_occupancies()
        self.occupancies = (occ1, occ2, transit)
        # Transiting vehicles ride inside platoon 1 (paper §4.1: 3-4 min
        # there before exiting), so they are exposed to failures and count
        # as platoon-1 members for coordination purposes.
        self.failure_chain = FailureLevelChain(
            params, (occ1 + transit, occ2), max_concurrent
        )
        #: times bytes -> (S(t), truncation bound), most recent last
        self.curves: OrderedDict[bytes, tuple[np.ndarray, np.ndarray]] = (
            OrderedDict()
        )


_BUILDS: OrderedDict[str, _Build] = OrderedDict()
_MEMO_LOCK = threading.Lock()


def _remember(memo: OrderedDict, key, make, bound: int):
    """LRU lookup: the entry under ``key``, built by ``make()`` on a miss."""
    with _MEMO_LOCK:
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = make()
            if len(memo) > bound:
                memo.popitem(last=False)
        else:
            memo.move_to_end(key)
        return entry


class AnalyticalEngine:
    """End-to-end numerical evaluation of S(t) for a parameter set.

    Engines with content-equal parameters share one chain build and its
    solved curves (see docs/engine_perf.md, "Analytical path cost"); the
    key is the canonical fingerprint of ``(params, max_concurrent)``, so
    any differing field misses.  The shared ``failure_chain`` is
    read-only; every :class:`AnalyticalResult` owns its arrays.
    """

    def __init__(
        self, params: AHSParameters, max_concurrent: int = 4
    ) -> None:
        self.params = params
        self._build = _remember(
            _BUILDS,
            content_key((params, max_concurrent)),
            lambda: _Build(params, max_concurrent),
            _BUILD_CACHE_SIZE,
        )
        self.failure_chain = self._build.failure_chain

    @property
    def expected_occupancies(self) -> tuple[float, float, float]:
        """Quasi-stationary ``(E[occ1], E[occ2], E[transit])``."""
        return self._build.occupancies

    def unsafety(self, times: Sequence[float]) -> AnalyticalResult:
        """Compute S(t) = P(KO by t) at the requested times."""
        times_arr = np.asarray(list(times), dtype=float)
        unsafety, truncation = _remember(
            self._build.curves,
            times_arr.tobytes(),
            lambda: self._solve(times_arr),
            _CURVE_CACHE_SIZE,
        )
        return AnalyticalResult(
            times=times_arr,
            unsafety=unsafety.copy(),
            truncation_error=truncation.copy(),
            occupancies=self._build.occupancies,
            n_states=self.failure_chain.chain.n_states,
        )

    def _solve(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        distributions = transient_distribution(self.failure_chain.chain, times)

        def column(index: Optional[int]) -> np.ndarray:
            if index is None:
                return np.zeros(times.size)
            return distributions[:, index].copy()

        return (
            column(self.failure_chain.ko_index),
            column(self.failure_chain.trunc_index),
        )
