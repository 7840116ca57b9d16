import numpy as np
import pytest


def optimal_value_iteration(mdp, correction=0.0):
    """Value iteration V <- max_a [r + gamma P V] - correction from V = 0,
    until two iterates differ by at most 1e-12.  Returns the last iterate V
    and its Q = r + gamma P V.  Each sweep is one (S*A, S) product on a 2-D
    view of P."""
    transition = mdp.transition.reshape(-1, mdp.num_states)
    reward = mdp.reward.reshape(-1)

    def backup(values):
        q = transition @ values
        q *= mdp.discount
        q += reward
        return q.reshape(mdp.reward.shape)

    v = np.zeros(mdp.num_states)
    for _ in range(1_000_000):
        nxt = backup(v).max(axis=1)
        nxt -= correction
        if abs(nxt - v).max() <= 1e-12:
            return nxt, backup(nxt)
        v = nxt
    raise AssertionError("value iteration did not converge")


@pytest.fixture
def value_iteration():
    """The value-iteration oracle that policy iteration is checked against."""
    return optimal_value_iteration
