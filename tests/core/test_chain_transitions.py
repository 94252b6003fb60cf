"""Direct unit tests of the analytical chains' transition structure."""

import pytest

from repro.core import AHSParameters, Strategy
from repro.core.analytical import (
    MANEUVER_ORDER,
    FailureLevelChain,
    OccupancyChain,
    _class_counts,
)
from repro.core.maneuvers import Maneuver


def state_with(platoon: int, maneuver: Maneuver, count: int = 1):
    """A failure-level state with one maneuver kind active."""
    vec = [0] * len(MANEUVER_ORDER)
    vec[MANEUVER_ORDER.index(maneuver)] = count
    empty = (0,) * len(MANEUVER_ORDER)
    return (tuple(vec), empty) if platoon == 0 else (empty, tuple(vec))


class TestOccupancyTransitions:
    @pytest.fixture
    def chain(self, default_params) -> OccupancyChain:
        return OccupancyChain(default_params)

    def test_full_state_has_no_join(self, chain, default_params):
        n = default_params.max_platoon_size
        moves = dict_moves = chain._transitions((n, n, 0))
        targets = [target for target, rate in moves]
        assert (n + 1, n, 0) not in targets
        assert (n, n + 1, 0) not in targets

    def test_join_rate_proportional_to_out_pool(self, chain, default_params):
        # 4 vehicles off-highway: join intensity = join_rate * 4, split 50/50
        n = default_params.max_platoon_size
        state = (n - 2, n - 2, 0)
        moves = dict(chain._transitions(state))
        expected = default_params.join_rate * 4 * 0.5
        assert moves[(n - 1, n - 2, 0)] == pytest.approx(expected)
        assert moves[(n - 2, n - 1, 0)] == pytest.approx(expected)

    def test_leave2_requires_platoon1_slot(self, chain, default_params):
        n = default_params.max_platoon_size
        # platoon 1 full including transit: no leave2 transition
        full = (n - 1, n, 1)
        targets = [t for t, r in chain._transitions(full)]
        assert (n - 1, n - 1, 2) not in targets

    def test_transit_rate_scales_with_count(self, chain, default_params):
        n = default_params.max_platoon_size
        state = (n - 2, n - 2, 2)
        moves = dict(chain._transitions(state))
        assert moves[(n - 2, n - 2, 1)] == pytest.approx(
            2 * default_params.transit_rate
        )

    def test_empty_platoon_cannot_leave(self, chain):
        moves = dict(chain._transitions((0, 5, 0)))
        assert all(target[0] >= 0 for target in moves)


class TestFailureLevelTransitions:
    def test_request_escalation_encoded_in_chain(self, default_params):
        # with a GS (class A1) active in platoon 0 under DD, a new FM6
        # (TIE-N request) in the SAME platoon is granted at GS; in the
        # OTHER platoon it stays TIE-N
        chain = FailureLevelChain(default_params, (9.5, 9.5))
        base = state_with(0, Maneuver.GS)
        moves = chain._transitions(base)
        same_platoon_targets = set()
        other_platoon_targets = set()
        for target, rate in moves:
            if target in ("KO", "TRUNC"):
                continue
            if sum(target[0]) > sum(base[0]):
                same_platoon_targets.add(target)
            if sum(target[1]) > 0:
                other_platoon_targets.add(target)
        # same-platoon new failures never produce a TIE-N next to the GS
        tie_n = MANEUVER_ORDER.index(Maneuver.TIE_N)
        assert all(t[0][tie_n] == 0 for t in same_platoon_targets)
        # the other platoon still sees plain TIE-N activations
        assert any(t[1][tie_n] == 1 for t in other_platoon_targets)

    def test_global_scope_under_centralized_inter(self, default_params):
        params = default_params.with_changes(strategy=Strategy.CD)
        chain = FailureLevelChain(params, (9.5, 9.5))
        base = state_with(0, Maneuver.GS)
        tie_n = MANEUVER_ORDER.index(Maneuver.TIE_N)
        for target, rate in chain._transitions(base):
            if target in ("KO", "TRUNC"):
                continue
            # nowhere on the highway may a plain TIE-N start while the
            # SAP is handling a class-A maneuver
            assert target[0][tie_n] == 0 and target[1][tie_n] == 0

    def test_second_class_a_goes_to_ko(self, default_params):
        chain = FailureLevelChain(default_params, (9.5, 9.5))
        base = state_with(0, Maneuver.CS)
        ko_rate = sum(
            rate for target, rate in chain._transitions(base) if target == "KO"
        )
        # any new failure in platoon 0 escalates to >= CS (class A) and
        # trips ST1, as do direct class-A failures in platoon 1
        lam = default_params.base_failure_rate
        exposed_own = 9.5 - 1
        expected_min = 14 * lam * exposed_own  # all same-platoon failures
        assert ko_rate >= expected_min * 0.99

    def test_as_failure_clears_the_failure(self, default_params):
        chain = FailureLevelChain(default_params, (9.5, 9.5))
        base = state_with(1, Maneuver.AS)
        empty = ((0,) * 6, (0,) * 6)
        clear_rate = sum(
            rate for target, rate in chain._transitions(base) if target == empty
        )
        # both success AND the v_KO expulsion land back in the empty state
        mu = default_params.maneuver_rate(Maneuver.AS, 9.5)
        assert clear_rate == pytest.approx(mu, rel=1e-9)

    def test_severity_of(self):
        state = state_with(0, Maneuver.GS, 2)
        assert _class_counts(state) == (2, 0, 0)
        mixed = (state[0], state_with(1, Maneuver.TIE_E)[1])
        assert _class_counts(mixed) == (2, 1, 0)
