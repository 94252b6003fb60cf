"""The uniformization loops step with a once-transposed matrix.

``transient_distribution`` and ``accumulated_reward`` compute ``v ← Pᵀ v``
with ``Pᵀ`` built once, instead of ``v ← v @ P`` (which transposes ``P`` on
every step).  These tests pin that the results are bit-identical to the
per-step ``v @ P`` reference on random sparse chains with absorbing states.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.ctmc import CTMC, accumulated_reward, transient, transient_distribution


def random_absorbing_chain(n: int, seed: int) -> CTMC:
    rng = np.random.default_rng(seed)
    rates = sparse.random(
        n, n, density=0.15, random_state=rng,
        data_rvs=lambda k: rng.uniform(0.01, 5.0, k),
    ).tolil()
    rates.setdiag(0.0)
    for row in rng.choice(n, size=max(1, n // 10), replace=False):
        rates[row, :] = 0.0  # absorbing
    rates = rates.tocsr()
    out = np.asarray(rates.sum(axis=1)).ravel()
    initial = rng.dirichlet(np.ones(n))
    return CTMC(rates - sparse.diags(out), initial)


class _RowVectorStep:
    """The reference step: ``v @ P`` evaluated afresh on every iteration."""

    def __init__(self, matrix) -> None:
        self.matrix = matrix

    def __matmul__(self, v):
        return v @ self.matrix


@pytest.fixture
def row_vector_reference(monkeypatch):
    def use_reference():
        monkeypatch.setattr(
            transient,
            "_transposed_step",
            lambda chain, lam: _RowVectorStep(chain.embedded_dtmc(lam)),
        )

    return use_reference


CASES = [(n, seed) for n in (7, 40, 150) for seed in (1, 2)]
TIMES = [0.0, 0.3, 2.0, 9.5]


@pytest.mark.parametrize("n,seed", CASES)
def test_transient_distribution_bit_identical(n, seed, row_vector_reference):
    chain = random_absorbing_chain(n, seed)
    fast = transient_distribution(chain, TIMES)
    fast_steady = transient_distribution(chain, TIMES, steady_tol=1e-14)
    row_vector_reference()
    assert np.array_equal(fast, transient_distribution(chain, TIMES))
    assert np.array_equal(
        fast_steady, transient_distribution(chain, TIMES, steady_tol=1e-14)
    )


@pytest.mark.parametrize("n,seed", CASES)
def test_accumulated_reward_bit_identical(n, seed, row_vector_reference):
    chain = random_absorbing_chain(n, seed)
    reward = np.random.default_rng(seed).uniform(0.0, 3.0, n)
    fast = accumulated_reward(chain, TIMES, reward)
    row_vector_reference()
    assert np.array_equal(fast, accumulated_reward(chain, TIMES, reward))
