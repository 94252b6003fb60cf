"""Tests for the occupancy chain and the failure-level analytical engine."""

import numpy as np
import pytest

from repro.core import (
    AHSParameters,
    AnalyticalEngine,
    FailureLevelChain,
    OccupancyChain,
    Strategy,
)


class TestOccupancyChain:
    def test_reachable_states_respect_capacity(self, default_params):
        chain = OccupancyChain(default_params)
        n = default_params.max_platoon_size
        for occ1, occ2, tr in chain.states:
            assert 0 <= occ1 and 0 <= occ2 and 0 <= tr
            assert occ1 + tr <= n
            assert occ2 <= n
            assert occ1 + occ2 + tr <= default_params.total_vehicles

    def test_stationary_is_distribution(self, default_params):
        pi = OccupancyChain(default_params).stationary()
        assert pi.sum() == pytest.approx(1.0)
        assert (pi >= -1e-12).all()

    def test_high_join_keeps_platoons_full(self, default_params):
        occ1, occ2, tr = OccupancyChain(default_params).expected_occupancies()
        n = default_params.max_platoon_size
        # join=12 vs leave=4: platoons nearly full
        assert occ1 > 0.85 * n
        assert occ2 > 0.85 * n
        assert 0.0 <= tr <= default_params.max_transit

    def test_low_join_drains_platoons(self):
        params = AHSParameters(join_rate=0.5, leave_rate=8.0)
        occ1, occ2, tr = OccupancyChain(params).expected_occupancies()
        assert occ1 < 5.0 and occ2 < 5.0

    def test_zero_leave_fills_completely(self):
        params = AHSParameters(leave_rate=0.0, change_rate=0.0)
        occ1, occ2, tr = OccupancyChain(params).expected_occupancies()
        assert occ1 == pytest.approx(params.max_platoon_size, abs=1e-6)
        assert tr == pytest.approx(0.0, abs=1e-9)


class TestFailureLevelChain:
    def test_empty_state_is_initial(self, default_params):
        chain = FailureLevelChain(default_params, (9.5, 9.5))
        assert chain.states[0] == ((0,) * 6, (0,) * 6)
        assert chain.chain.initial[0] == 1.0

    def test_ko_reachable_trunc_not(self, default_params):
        chain = FailureLevelChain(default_params, (9.5, 9.5), max_concurrent=4)
        assert chain.ko_index is not None
        # every 4-failure combination is catastrophic (Table 2 corollary),
        # so the truncation sink is unreachable at K=4
        assert chain.trunc_index is None

    def test_no_catastrophic_tangible_states(self, default_params):
        from repro.core.analytical import _class_counts
        from repro.core.severity import catastrophic_situation_counts

        chain = FailureLevelChain(default_params, (9.5, 9.5))
        for state in chain.states:
            if state in ("KO", "TRUNC"):
                continue
            assert catastrophic_situation_counts(*_class_counts(state)) is None

    def test_ko_absorbing(self, default_params):
        chain = FailureLevelChain(default_params, (9.5, 9.5))
        row = chain.chain.generator[chain.ko_index].toarray().ravel()
        assert np.allclose(row, 0.0)

    def test_max_concurrent_validation(self, default_params):
        with pytest.raises(ValueError):
            FailureLevelChain(default_params, (9.5, 9.5), max_concurrent=1)


class TestAnalyticalEngine:
    def test_unsafety_monotone_in_time(self, default_params):
        result = AnalyticalEngine(default_params).unsafety([2, 4, 6, 8, 10])
        assert (np.diff(result.unsafety) > 0).all()
        assert (result.unsafety > 0).all()
        assert (result.unsafety < 1e-3).all()

    def test_unsafety_monotone_in_lambda(self):
        values = [
            AnalyticalEngine(AHSParameters(base_failure_rate=lam))
            .unsafety([6.0])
            .unsafety[0]
            for lam in (1e-6, 1e-5, 1e-4)
        ]
        assert values[0] < values[1] < values[2]

    def test_roughly_quadratic_in_lambda(self):
        # ST1 needs two near-simultaneous failures: S ~ lambda^2
        low = AnalyticalEngine(AHSParameters(base_failure_rate=1e-6))
        high = AnalyticalEngine(AHSParameters(base_failure_rate=1e-5))
        ratio = (
            high.unsafety([6.0]).unsafety[0] / low.unsafety([6.0]).unsafety[0]
        )
        assert 50.0 < ratio < 200.0

    def test_unsafety_monotone_in_n(self):
        values = [
            AnalyticalEngine(AHSParameters(max_platoon_size=n))
            .unsafety([6.0])
            .unsafety[0]
            for n in (8, 10, 12, 14)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_strategy_ordering(self):
        values = {
            strategy: AnalyticalEngine(AHSParameters(strategy=strategy))
            .unsafety([6.0])
            .unsafety[0]
            for strategy in Strategy
        }
        # paper Fig 14: decentralized inter safer; inter dominates intra
        assert values[Strategy.DD] < values[Strategy.DC]
        assert values[Strategy.DC] < values[Strategy.CD]
        assert values[Strategy.CD] < values[Strategy.CC]
        inter_effect = values[Strategy.CD] / values[Strategy.DD]
        intra_effect = values[Strategy.DC] / values[Strategy.DD]
        assert inter_effect > intra_effect

    def test_truncation_error_zero_at_k4(self, default_params):
        result = AnalyticalEngine(default_params).unsafety([10.0])
        assert result.truncation_error.max() == 0.0

    def test_value_at(self, default_params):
        result = AnalyticalEngine(default_params).unsafety([2.0, 6.0])
        assert result.value_at(6.0) == result.unsafety[1]
        with pytest.raises(KeyError):
            result.value_at(3.0)

    def test_tiny_lambda_reaches_tiny_probabilities(self):
        # the paper quotes ~1e-13 at lambda=1e-7; crude MC cannot see this
        engine = AnalyticalEngine(AHSParameters(base_failure_rate=1e-7))
        value = engine.unsafety([6.0]).unsafety[0]
        assert 0.0 < value < 1e-8

    def test_k3_matches_k4(self, default_params):
        # states with 4 active failures are all catastrophic, so K=3 and
        # K=4 build the same chain (modulo the unreachable sink)
        k3 = AnalyticalEngine(default_params, max_concurrent=3)
        k4 = AnalyticalEngine(default_params, max_concurrent=4)
        a = k3.unsafety([6.0])
        b = k4.unsafety([6.0])
        total_err = a.truncation_error[0]
        assert a.unsafety[0] == pytest.approx(
            b.unsafety[0], rel=1e-6, abs=total_err + 1e-15
        )


class TestRungTables:
    @staticmethod
    def reference_grant(requested, scope):
        """§2.1.2 spelled out on the enum: first rung ≥ requested that
        reaches the highest active priority."""
        from repro.core.maneuvers import ESCALATION_LADDER

        ceiling = max((m.severity.rank for m in scope), default=0)
        start = ESCALATION_LADDER.index(requested)
        return next(
            m for m in ESCALATION_LADDER[start:] if m.severity.rank >= ceiling
        )

    @pytest.mark.parametrize("strategy", [Strategy.DD, Strategy.CD])
    def test_chain_grant_matches_escalate_request(self, strategy):
        from itertools import combinations_with_replacement

        from repro.core.analytical import MANEUVER_ORDER
        from repro.core.maneuvers import escalate_request, grant_rung

        chain = FailureLevelChain(AHSParameters(strategy=strategy), (9.5, 9.5))
        for size in range(5):
            for scope in combinations_with_replacement(MANEUVER_ORDER, size):
                own = [0] * len(MANEUVER_ORDER)
                for maneuver in scope:
                    own[MANEUVER_ORDER.index(maneuver)] += 1
                empty = (0,) * len(MANEUVER_ORDER)
                # DD: the scope is the own platoon; CD: the scope is global,
                # so the same multiset held by the other platoon counts too
                states = [(tuple(own), empty)]
                if strategy is Strategy.CD:
                    states.append((empty, tuple(own)))
                for state in states:
                    ceiling = chain._ceiling(state, 0)
                    for rung, requested in enumerate(MANEUVER_ORDER):
                        granted = MANEUVER_ORDER[grant_rung(rung, ceiling)]
                        assert granted is escalate_request(requested, scope)
                        assert granted is self.reference_grant(requested, scope)

    def test_class_counts_match_severity_counts(self):
        from itertools import combinations_with_replacement

        from repro.core.analytical import MANEUVER_ORDER, _class_counts
        from repro.core.severity import SeverityCounts

        for size in range(5):
            for active in combinations_with_replacement(MANEUVER_ORDER, size):
                vec = [0] * len(MANEUVER_ORDER)
                for maneuver in active:
                    vec[MANEUVER_ORDER.index(maneuver)] += 1
                split = (tuple(vec[:3]) + (0,) * 3, (0,) * 3 + tuple(vec[3:]))
                counts = SeverityCounts.from_active_maneuvers(active)
                assert _class_counts(split) == (counts.a, counts.b, counts.c)


class TestBuildMemo:
    def test_content_equal_params_share_one_build(self):
        first = AnalyticalEngine(AHSParameters(max_platoon_size=6))
        second = AnalyticalEngine(AHSParameters(max_platoon_size=6))
        assert first.params is not second.params
        assert first.failure_chain is second.failure_chain
        a = first.unsafety([1.0, 6.0])
        b = second.unsafety([1.0, 6.0])
        assert np.array_equal(a.unsafety, b.unsafety)
        assert np.array_equal(a.truncation_error, b.truncation_error)
        assert a.occupancies == b.occupancies

    def test_with_changes_misses(self):
        from repro.core import analytical

        base = AHSParameters(max_platoon_size=6)
        engine = AnalyticalEngine(base)
        changed = AnalyticalEngine(base.with_changes(assistant_reliability=0.9))
        assert changed.failure_chain is not engine.failure_chain
        assert changed.unsafety([6.0]).unsafety[0] != engine.unsafety(
            [6.0]
        ).unsafety[0]
        key = analytical.content_key((base.with_changes(assistant_reliability=0.9), 4))
        assert key in analytical._BUILDS

    def test_in_place_parameter_edit_misses(self):
        from repro.core.maneuvers import Maneuver

        params = AHSParameters(max_platoon_size=5)
        before = AnalyticalEngine(params).unsafety([6.0]).unsafety[0]
        params.maneuver_rates[Maneuver.AS] = 7.5
        after = AnalyticalEngine(params)
        assert after.unsafety([6.0]).unsafety[0] != before

    def test_max_concurrent_is_part_of_the_key(self):
        params = AHSParameters(max_platoon_size=5)
        k3 = AnalyticalEngine(params, max_concurrent=3)
        k4 = AnalyticalEngine(params, max_concurrent=4)
        assert k3.failure_chain.max_concurrent == 3
        assert k4.failure_chain.max_concurrent == 4

    def test_results_are_copies(self):
        engine = AnalyticalEngine(AHSParameters(max_platoon_size=6))
        first = engine.unsafety([2.0, 6.0])
        expected = first.unsafety.copy()
        first.unsafety[:] = -1.0
        first.truncation_error[:] = -1.0
        again = AnalyticalEngine(AHSParameters(max_platoon_size=6)).unsafety(
            [2.0, 6.0]
        )
        assert np.array_equal(again.unsafety, expected)
        assert (again.truncation_error >= 0.0).all()

    def test_memos_stay_bounded(self):
        from repro.core import analytical
        from repro.core.design import max_trip_duration

        params = AHSParameters(max_platoon_size=4, base_failure_rate=1e-3)
        # a fine tolerance bisects through more distinct times than the
        # curve memo holds
        max_trip_duration(params, 1e-4, tolerance_hours=1e-3)
        build = AnalyticalEngine(params)._build
        assert len(build.curves) == analytical._CURVE_CACHE_SIZE
        for lam in np.linspace(1e-4, 2e-4, analytical._BUILD_CACHE_SIZE + 5):
            AnalyticalEngine(AHSParameters(max_platoon_size=2, base_failure_rate=lam))
        assert len(analytical._BUILDS) == analytical._BUILD_CACHE_SIZE
        assert all(
            len(b.curves) <= analytical._CURVE_CACHE_SIZE
            for b in analytical._BUILDS.values()
        )
