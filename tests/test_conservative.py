import math

import numpy as np
import pytest

from csve import conservative as cons
from csve import tabular as tab
from csve import theory
from csve.errors import ConvergenceError, DegenerateDistributionError, SupportError


def dist(*probs):
    return tab.StateDistribution(np.array(probs))


def two_state_instance(alpha=1.0):
    rng = np.random.default_rng(1)
    mdp = tab.random_mdp(2, 2, 0.6, rng)
    policy = tab.random_policy(2, 2, rng)
    penalty = cons.CsvePenaltyConfig(alpha, dist(0.8, 0.2), dist(0.5, 0.5))
    return mdp, policy, penalty


# ---------------------------------------------------------------------------
# Penalty config
# ---------------------------------------------------------------------------

def test_support_violation_rejected():
    with pytest.raises(SupportError):
        cons.CsvePenaltyConfig(1.0, dist(0.5, 0.5), dist(1.0, 0.0))


def test_negative_alpha_rejected():
    with pytest.raises(SupportError):
        cons.CsvePenaltyConfig(-0.1, dist(1.0), dist(1.0))


def test_bracket_zero_outside_shared_support():
    penalty = cons.CsvePenaltyConfig(1.0, dist(1.0, 0.0, 0.0), dist(0.5, 0.0, 0.5))
    bracket = penalty.bracket()
    assert bracket[1] == 0.0  # d = d_u = 0 contributes no penalty
    assert bracket[0] == pytest.approx(1.0)
    assert bracket[2] == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# Operator
# ---------------------------------------------------------------------------

def test_operator_alpha_zero_is_plain_backup():
    mdp, policy, _ = two_state_instance()
    penalty = cons.CsvePenaltyConfig(0.0, dist(0.8, 0.2), dist(0.5, 0.5))
    v = tab.ValueTable(np.array([0.3, -0.7]))
    got = cons.csve_operator(v, policy, mdp, penalty)
    backup = cons.empirical_bellman_backup(v.values, policy, mdp)
    assert np.array_equal(got.values, backup)


def test_operator_d_equal_du_degenerates():
    mdp, policy, _ = two_state_instance()
    penalty = cons.CsvePenaltyConfig(3.0, dist(0.5, 0.5), dist(0.5, 0.5))
    v = tab.ValueTable(np.array([1.0, 2.0]))
    got = cons.csve_operator(v, policy, mdp, penalty)
    backup = cons.empirical_bellman_backup(v.values, policy, mdp)
    assert np.allclose(got.values, backup, atol=1e-15)


def test_operator_two_state_hand_expansion():
    mdp, policy, penalty = two_state_instance(alpha=1.0)
    v = tab.ValueTable(np.zeros(2))
    got = cons.csve_operator(v, policy, mdp, penalty)
    r_pi = np.sum(policy.probs * mdp.reward, axis=1)
    assert got.values[0] == pytest.approx(r_pi[0] - 0.6, abs=1e-12)
    assert got.values[1] == pytest.approx(r_pi[1] + 0.6, abs=1e-12)

    # brute-force evaluator: explicit loops over actions and next states
    brute = np.zeros(2)
    for s in range(2):
        acc = 0.0
        for a in range(2):
            inner = sum(mdp.transition[s, a, t] * v.values[t] for t in range(2))
            acc += policy.probs[s, a] * (mdp.reward[s, a] + mdp.discount * inner)
        ratio = penalty.d.probs[s] / penalty.d_u.probs[s]
        brute[s] = acc - penalty.alpha * (ratio - 1.0)
    assert np.allclose(got.values, brute, atol=1e-12)


# ---------------------------------------------------------------------------
# Objective argmin
# ---------------------------------------------------------------------------

def test_argmin_matches_operator_alpha_zero():
    mdp, policy, _ = two_state_instance()
    penalty = cons.CsvePenaltyConfig(0.0, dist(0.8, 0.2), dist(0.5, 0.5))
    v = tab.ValueTable(np.array([0.5, 1.5]))
    op = cons.csve_operator(v, policy, mdp, penalty)
    am = cons.csve_objective_argmin(v, policy, mdp, penalty)
    assert np.allclose(op.values, am.values, atol=1e-12)


def test_argmin_two_state_scalar_quadratic():
    mdp, policy, penalty = two_state_instance(alpha=1.0)
    v = tab.ValueTable(np.zeros(2))
    op = cons.csve_operator(v, policy, mdp, penalty)
    am = cons.csve_objective_argmin(v, policy, mdp, penalty)
    assert np.allclose(op.values, am.values, atol=1e-9)


def test_argmin_eight_state_golden_section_oracle():
    rng = np.random.default_rng(11)
    mdp = tab.random_mdp(8, 3, 0.85, rng)
    policy = tab.random_policy(8, 3, rng)
    d_u = tab.StateDistribution(rng.dirichlet(np.ones(8)))
    d = tab.random_distribution(8, rng, support=d_u.support)
    penalty = cons.CsvePenaltyConfig(2.5, d, d_u)
    v = tab.ValueTable(rng.normal(0.0, 3.0, size=8))
    op = cons.csve_operator(v, policy, mdp, penalty)
    am = cons.csve_objective_argmin(v, policy, mdp, penalty)
    assert np.max(np.abs(op.values - am.values)) <= 1e-9

    # test-side oracle: golden-section search plus one parabolic polish,
    # touching only objective evaluations
    backup = cons.empirical_bellman_backup(v.values, policy, mdp)
    du, dd = penalty.d_u.probs, penalty.d.probs
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for s in range(8):
        if du[s] == 0:
            continue

        def f(x):
            return 0.5 * du[s] * (backup[s] - x) ** 2 + penalty.alpha * (dd[s] - du[s]) * x

        lo, hi = backup[s] - 500.0, backup[s] + 500.0
        for _ in range(40):
            x1 = hi - invphi * (hi - lo)
            x2 = lo + invphi * (hi - lo)
            if f(x1) < f(x2):
                hi = x2
            else:
                lo = x1
        mid, h = 0.5 * (lo + hi), 100.0
        f_lo, f_mid, f_hi = f(mid - h), f(mid), f(mid + h)
        vertex = mid - h * (f_hi - f_lo) / (2.0 * (f_lo - 2.0 * f_mid + f_hi))
        assert am.values[s] == pytest.approx(vertex, abs=1e-8)


# ---------------------------------------------------------------------------
# Fixed point
# ---------------------------------------------------------------------------

def test_fixed_point_alpha_zero_equals_exact_evaluation():
    rng = np.random.default_rng(2)
    mdp = tab.random_mdp(5, 2, 0.8, rng)
    policy = tab.random_policy(5, 2, rng)
    penalty = cons.CsvePenaltyConfig(0.0, tab.StateDistribution(np.full(5, 0.2)),
                                     tab.StateDistribution(np.full(5, 0.2)))
    v_hat, _ = cons.csve_fixed_point(policy, mdp, penalty)
    v_exact = tab.exact_policy_evaluation(mdp, policy)
    assert np.max(np.abs(v_hat.values - v_exact.values)) < 1e-10


def test_fixed_point_shifted_geometric_closed_form():
    # self-looping zero-reward state with d/d_u = 2 converges to -alpha/(1-gamma)
    gamma = 0.6
    p = np.zeros((2, 1, 2))
    p[0, 0, 0] = 1.0
    p[1, 0, 1] = 1.0
    mdp = tab.TabularMdp(p, np.zeros((2, 1)), np.array([1.0, 0.0]), gamma, 1.0)
    penalty = cons.CsvePenaltyConfig(2.0, dist(1.0, 0.0), dist(0.5, 0.5))
    v_hat, _ = cons.csve_fixed_point(single_policy_two(), mdp, penalty)
    assert v_hat.values[0] == pytest.approx(-2.0 / (1.0 - gamma), abs=1e-9)


def single_policy_two():
    return tab.PolicyTable(np.ones((2, 1)))


def test_fixed_point_residual_identity():
    """The solve is a fixed point of the penalized operator."""
    rng = np.random.default_rng(13)
    mdp = tab.random_mdp(10, 3, 0.9, rng)
    policy = tab.random_policy(10, 3, rng)
    d_u = tab.StateDistribution(rng.dirichlet(np.ones(10)))
    d = tab.random_distribution(10, rng, support=d_u.support)
    penalty = cons.CsvePenaltyConfig(1.7, d, d_u)
    v_hat, _ = cons.csve_fixed_point(policy, mdp, penalty)
    again = cons.csve_operator(v_hat, policy, mdp, penalty)
    assert np.max(np.abs(again.values - v_hat.values)) <= 1e-8


def test_fixed_point_iteration_bound_and_decay():
    """One solve; the iterated operator decays geometrically to it from
    V = 0, within 1e-12 of the bound gamma^k * err0 at every step."""
    rng = np.random.default_rng(3)
    mdp = tab.random_mdp(6, 2, 0.85, rng)
    policy = tab.random_policy(6, 2, rng)
    d_u = tab.StateDistribution(rng.dirichlet(np.ones(6)))
    d = tab.random_distribution(6, rng, support=d_u.support)
    penalty = cons.CsvePenaltyConfig(0.9, d, d_u)
    v_hat, iters = cons.csve_fixed_point(policy, mdp, penalty)
    assert iters == 1
    assert_backup_decays_to(v_hat, policy, mdp, penalty)


def assert_backup_decays_to(v_hat, policy, mdp, penalty):
    correction = penalty.alpha * penalty.bracket()
    v = np.zeros(mdp.num_states)
    err0 = np.max(np.abs(v - v_hat.values))
    for k in range(1, 400):
        v = cons.empirical_bellman_backup(v, policy, mdp) - correction
        err = np.max(np.abs(v - v_hat.values))
        assert err <= mdp.discount ** k * err0 + 1e-12
    assert err <= 1e-12


def test_fixed_point_matches_backup_iteration_exactly():
    """The penalized backup iteration from V = 0, stopped once two iterates
    differ by at most 1e-10, lies within the a-posteriori contraction bound
    gamma/(1-gamma) * 1e-10 of the solve, and decays geometrically to it."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        mdp = tab.random_mdp(7, 3, 0.9, rng)
        policy = tab.random_policy(7, 3, rng)
        d_u = tab.StateDistribution(rng.dirichlet(np.ones(7)))
        d = tab.random_distribution(7, rng, support=d_u.support)
        penalty = cons.CsvePenaltyConfig(2.3, d, d_u)
        v_hat, iters = cons.csve_fixed_point(policy, mdp, penalty)
        assert iters == 1

        correction = penalty.alpha * penalty.bracket()
        v = np.zeros(7)
        for _ in range(100_000):
            nxt = cons.empirical_bellman_backup(v, policy, mdp) - correction
            done = np.max(np.abs(nxt - v)) <= 1e-10
            v = nxt
            if done:
                break
        assert done
        bound = mdp.discount / (1.0 - mdp.discount) * 1e-10
        assert np.max(np.abs(v - v_hat.values)) <= bound + 1e-12
        assert_backup_decays_to(v_hat, policy, mdp, penalty)


def test_fixed_point_matches_expression_loop_exactly():
    """The solve is a fixed point of ``r_pi + gamma * (P_pi @ v) - correction``
    across sizes 1 to 64 with and without a penalty, and that loop from V = 0,
    stopped at tolerance tol, lies within gamma/(1-gamma) * tol of it."""
    rng = np.random.default_rng(11)
    for s_dim in (1, 2, 7, 64):
        for alpha in (0.0, 2.3):
            for tol in (1e-6, 1e-10, 1e-13):
                mdp = tab.random_mdp(s_dim, 4, float(rng.uniform(0.5, 0.97)), rng)
                policy = tab.random_policy(s_dim, 4, rng)
                d_u = tab.StateDistribution(rng.dirichlet(np.ones(s_dim)))
                d = tab.random_distribution(s_dim, rng, support=d_u.support)
                penalty = cons.CsvePenaltyConfig(alpha, d, d_u)
                v_hat, solves = cons.csve_fixed_point(policy, mdp, penalty)
                assert solves == 1

                correction = penalty.alpha * penalty.bracket()
                r_pi = tab.policy_reward_vector(mdp, policy)
                p_pi = tab.policy_transition_matrix(mdp, policy)
                scale = 1.0 + np.max(np.abs(r_pi - correction))
                again = r_pi + mdp.discount * (p_pi @ v_hat.values) - correction
                assert np.max(np.abs(again - v_hat.values)) <= 1e-10 * scale

                v = np.zeros(s_dim)
                for _ in range(100_000):
                    nxt = r_pi + mdp.discount * (p_pi @ v) - correction
                    done = np.max(np.abs(nxt - v)) <= tol
                    v = nxt
                    if done:
                        break
                assert done
                bound = mdp.discount / (1.0 - mdp.discount) * tol
                assert np.max(np.abs(v - v_hat.values)) <= bound + 1e-12 * scale


# ---------------------------------------------------------------------------
# Contraction and structural properties
# ---------------------------------------------------------------------------

def test_contraction_including_penalty_cancellation():
    rows = theory.run_contraction_trials(100, seed0=7_000)
    assert all(r["holds"] for r in rows)


def test_penalty_telescoping_is_exact():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(2, 16))
        d_u = tab.StateDistribution(rng.dirichlet(np.ones(n)))
        d = tab.random_distribution(n, rng, support=d_u.support)
        penalty = cons.CsvePenaltyConfig(1.0, d, d_u)
        assert abs(float(d_u.probs @ penalty.bracket())) <= 1e-12


def test_reward_shift_covariance():
    rng = np.random.default_rng(21)
    mdp = tab.random_mdp(6, 2, 0.8, rng, r_max=1.0)
    policy = tab.random_policy(6, 2, rng)
    d_u = tab.StateDistribution(rng.dirichlet(np.ones(6)))
    d = tab.random_distribution(6, rng, support=d_u.support)
    penalty = cons.CsvePenaltyConfig(1.3, d, d_u)
    c = 0.25
    shifted = tab.TabularMdp(mdp.transition, mdp.reward + c, mdp.initial_dist,
                             mdp.discount, mdp.r_max + c)
    v1, _ = cons.csve_fixed_point(policy, mdp, penalty)
    v2, _ = cons.csve_fixed_point(policy, shifted, penalty)
    assert np.allclose(v2.values - v1.values, c / (1 - mdp.discount), atol=1e-9)


# ---------------------------------------------------------------------------
# Tabular CQL operator
# ---------------------------------------------------------------------------

def test_cql_operator_alpha_zero_and_matched_mu():
    rng = np.random.default_rng(2)
    mdp = tab.random_mdp(2, 2, 0.7, rng)
    policy = tab.random_policy(2, 2, rng)
    behavior = tab.random_policy(2, 2, rng)
    q = tab.QTable(rng.normal(size=(2, 2)))

    got = cons.cql_q_operator(q, policy, None, behavior, mdp, alpha=0.0)
    v_next = np.sum(policy.probs * q.values, axis=1)
    backup = mdp.reward + mdp.discount * (mdp.transition @ v_next)
    assert np.allclose(got.values, backup, atol=1e-15)

    got = cons.cql_q_operator(q, policy, behavior, behavior, mdp, alpha=5.0)
    assert np.allclose(got.values, backup, atol=1e-12)


def test_cql_operator_matches_quadratic_minimization_oracle():
    rng = np.random.default_rng(2)
    mdp = tab.random_mdp(2, 2, 0.7, rng)
    policy = tab.random_policy(2, 2, rng)
    behavior = tab.random_policy(2, 2, rng)
    q = tab.QTable(rng.normal(size=(2, 2)))
    alpha = 1.4
    got = cons.cql_q_operator(q, policy, None, behavior, mdp, alpha)

    v_next = np.sum(policy.probs * q.values, axis=1)
    backup = mdp.reward + mdp.discount * (mdp.transition @ v_next)
    # oracle: minimize 0.5 * beta(a|s) (q - backup)^2 + alpha (mu - beta) q
    for s in range(2):
        for a in range(2):
            coeffs_a = 0.5 * behavior.probs[s, a]
            coeffs_b = alpha * (policy.probs[s, a] - behavior.probs[s, a]) \
                - 2.0 * coeffs_a * backup[s, a]
            minimizer = -coeffs_b / (2.0 * coeffs_a)
            assert got.values[s, a] == pytest.approx(minimizer, abs=1e-9)


def test_cql_operator_support_error():
    rng = np.random.default_rng(4)
    mdp = tab.random_mdp(2, 2, 0.7, rng)
    policy = tab.PolicyTable(np.array([[1.0, 0.0], [0.5, 0.5]]))
    behavior = tab.PolicyTable(np.array([[0.0, 1.0], [0.5, 0.5]]))
    q = tab.QTable(np.zeros((2, 2)))
    with pytest.raises(SupportError):
        cons.cql_q_operator(q, policy, None, behavior, mdp, alpha=1.0)


def test_cql_per_state_bound_vs_csve_expected_bound():
    """With zero sampling error the CQL fixed point under-estimates
    E_{pi}[Q] at every state; the conservative-V bound is asserted only in
    expectation under d."""
    rng = np.random.default_rng(6)
    mdp = tab.random_mdp(6, 3, 0.8, rng)
    policy = tab.random_policy(6, 3, rng)
    behavior = tab.random_policy(6, 3, rng)
    alpha = 0.7

    q = tab.QTable(np.zeros((6, 3)))
    for _ in range(2_000):
        q = cons.cql_q_operator(q, policy, None, behavior, mdp, alpha)
    v_exact = tab.exact_policy_evaluation(mdp, policy).values
    q_exact = mdp.reward + mdp.discount * (mdp.transition @ v_exact)
    under_pi_hat = np.sum(policy.probs * q.values, axis=1)
    under_pi_true = np.sum(policy.probs * q_exact, axis=1)
    assert np.all(under_pi_hat <= under_pi_true + 1e-9)

    d_u = tab.StateDistribution(rng.dirichlet(np.ones(6)))
    d = theory.margin_guarded_distribution(d_u, mdp.discount, rng)
    penalty = cons.CsvePenaltyConfig(alpha, d, d_u)
    v_hat, _ = cons.csve_fixed_point(policy, mdp, penalty)
    assert float(d.probs @ v_hat.values) <= float(d.probs @ v_exact) + 1e-9


# ---------------------------------------------------------------------------
# Threshold and certifications
# ---------------------------------------------------------------------------

def test_alpha_threshold_zero_constant():
    inst = theory.make_instance(0)
    sem0 = tab.SamplingErrorModel(0.0, 0.0, 0.0)
    penalty = cons.CsvePenaltyConfig(0.0, inst.d, inst.d_u)
    assert cons.alpha_threshold(inst.mdp, inst.empirical, inst.policy, penalty,
                                inst.dataset, sem0) == 0.0


def test_alpha_threshold_point_mass_arithmetic():
    mdp = tab.random_mdp(2, 1, 0.5, np.random.default_rng(0))
    ds = tab.TabularDataset.from_transitions([(0, 0, 0.0, 1), (1, 0, 0.0, 0)], 2, 1)
    sem = tab.SamplingErrorModel(0.0, 0.0, 1.0)
    penalty = cons.CsvePenaltyConfig(0.0, dist(1.0, 0.0), dist(0.5, 0.5))
    policy = tab.PolicyTable(np.ones((2, 1)))
    threshold = cons.alpha_threshold(mdp, mdp, policy, penalty, ds, sem)
    numerator = tab.sampling_error_vector(ds, sem, mdp, policy)[0]
    assert threshold == pytest.approx(numerator)  # denominator is exactly 1


def test_alpha_threshold_brute_force():
    inst = theory.make_instance(17)
    penalty = cons.CsvePenaltyConfig(0.0, inst.d, inst.d_u)
    got = cons.alpha_threshold(inst.mdp, inst.empirical, inst.policy, penalty,
                               inst.dataset, inst.sem)
    num = 0.0
    for s in range(inst.mdp.num_states):
        for a in range(inst.mdp.num_actions):
            count = inst.dataset.count_sa[s, a]
            eff = count if count > 0 else inst.sem.unvisited_count_floor
            num += inst.d.probs[s] * inst.policy.probs[s, a] * inst.sem.c_rt \
                * inst.mdp.r_max / ((1 - inst.mdp.discount) * math.sqrt(eff))
    den = sum(inst.d.probs[s] * (inst.d.probs[s] / inst.d_u.probs[s] - 1.0)
              for s in range(inst.mdp.num_states) if inst.d_u.probs[s] > 0)
    assert got == pytest.approx(num / den, rel=1e-12)


def test_alpha_threshold_degenerate_distribution():
    inst = theory.make_instance(0)
    penalty = cons.CsvePenaltyConfig(0.0, inst.d_u, inst.d_u)
    with pytest.raises(DegenerateDistributionError):
        cons.alpha_threshold(inst.mdp, inst.empirical, inst.policy, penalty,
                             inst.dataset, inst.sem)


def test_lower_bound_holds_with_zero_sampling_error():
    inst = theory.make_instance(5, zero_error=True)
    penalty = cons.CsvePenaltyConfig(1.0, inst.d, inst.d_u)
    report = cons.certify_lower_bound_under_d(inst.mdp, inst.mdp, inst.policy, penalty)
    assert report.holds and report.lhs <= report.rhs + 1e-9


def test_lower_bound_violation_findable_at_alpha_zero():
    violated = False
    for seed in range(60):
        inst = theory.make_instance(seed, dataset_size=25)
        penalty = cons.CsvePenaltyConfig(0.0, inst.d, inst.d_u)
        report = cons.certify_lower_bound_under_d(inst.mdp, inst.empirical,
                                                  inst.policy, penalty)
        if not report.holds:
            violated = True
            assert report.lhs > report.rhs
            break
    assert violated, "no unpenalized overestimation found in 60 under-sampled seeds"


def test_lower_bound_under_data_trivial_cases():
    inst = theory.make_instance(3, zero_error=True)
    penalty = cons.CsvePenaltyConfig(1.0, inst.d, inst.d_u)
    report = cons.certify_lower_bound_under_data(inst.mdp, inst.mdp, inst.policy,
                                                 penalty, inst.dataset, inst.sem)
    assert report.holds

    huge = tab.SamplingErrorModel(1e6, 1e6, 1e6)
    report = cons.certify_lower_bound_under_data(inst.mdp, inst.mdp, inst.policy,
                                                 penalty, inst.dataset, huge)
    assert report.holds and report.rhs > report.lhs


def test_gap_expansion_thresholds():
    inst = theory.make_instance(23)
    probe = cons.CsvePenaltyConfig(0.0, inst.d, inst.d_u)

    # k = 0: identical iterates cancel, so the internal threshold is zero
    pre = cons.certify_gap_expansion(inst.mdp, inst.empirical, inst.policy, probe, 0)
    assert pre.alpha_threshold == pytest.approx(0.0, abs=1e-12)

    pre5 = cons.certify_gap_expansion(inst.mdp, inst.empirical, inst.policy, probe, 5)
    alpha = max(0.0, pre5.alpha_threshold) + 0.1
    report = cons.certify_gap_expansion(
        inst.mdp, inst.empirical, inst.policy,
        cons.CsvePenaltyConfig(alpha, inst.d, inst.d_u), 5)
    assert report.holds

    # d = d_u degenerates: the threshold is reported as infinite
    degenerate = cons.CsvePenaltyConfig(1.0, inst.d_u, inst.d_u)
    report = cons.certify_gap_expansion(inst.mdp, inst.empirical, inst.policy,
                                        degenerate, 3)
    assert math.isinf(report.alpha_threshold)


def test_gap_expansion_violation_when_alpha_below_threshold():
    """The penalized iterates are linear in alpha, so the internal threshold
    scales with alpha and the check can only fail on instances where the
    threshold exceeds alpha itself; a diffuse d over a spiky d_u produces
    such instances."""
    found = False
    for seed in range(200):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(2, 8))
        a = int(rng.integers(1, 3))
        mdp = tab.random_mdp(s, a, float(rng.uniform(0.7, 0.95)), rng)
        policy = tab.random_policy(s, a, rng)
        d_u = tab.StateDistribution(rng.dirichlet(np.ones(s) * 0.3))
        d = tab.StateDistribution(rng.dirichlet(np.ones(s) * 3.0))
        penalty = cons.CsvePenaltyConfig(1.0, d, d_u)
        if float(d.probs @ penalty.bracket()) <= 1e-6:
            continue
        report = cons.certify_gap_expansion(mdp, mdp, policy, penalty, 5)
        if not report.holds:
            assert penalty.alpha <= report.alpha_threshold
            found = True
            break
    assert found, "no gap-expansion violation found in 200 adversarial seeds"


# ---------------------------------------------------------------------------
# Penalized objective / safe improvement / interpolation
# ---------------------------------------------------------------------------

def test_penalized_objective_alpha_zero_is_return():
    rng = np.random.default_rng(8)
    mdp = tab.random_mdp(4, 2, 0.75, rng)
    policy = tab.random_policy(4, 2, rng)
    d_u = tab.StateDistribution(rng.dirichlet(np.ones(4)))
    d = tab.random_distribution(4, rng, support=d_u.support)
    penalty = cons.CsvePenaltyConfig(0.0, d, d_u)
    j = cons.penalized_objective(policy, mdp, penalty)
    v = tab.exact_policy_evaluation(mdp, policy)
    assert j == pytest.approx(float(mdp.initial_dist @ v.values), abs=1e-12)


def test_penalized_objective_literal_occupancy_weighting():
    rng = np.random.default_rng(12)
    mdp = tab.random_mdp(4, 2, 0.75, rng)
    policy = tab.random_policy(4, 2, rng)
    d_u = tab.StateDistribution(rng.dirichlet(np.ones(4)))
    d = tab.random_distribution(4, rng, support=d_u.support)
    penalty = cons.CsvePenaltyConfig(2.0, d, d_u)
    j = cons.penalized_objective(policy, mdp, penalty)
    v = tab.exact_policy_evaluation(mdp, policy)
    occ = tab.discounted_state_occupancy(mdp, policy)
    expected = float(mdp.initial_dist @ v.values) \
        - 2.0 / (1 - mdp.discount) * float(occ.probs @ penalty.bracket())
    assert j == pytest.approx(expected, abs=1e-10)


def test_penalized_objective_equals_expected_fixed_point():
    # E_rho[fixed point of the penalized evaluation] recovers the objective
    rng = np.random.default_rng(14)
    mdp = tab.random_mdp(5, 2, 0.8, rng)
    policy = tab.random_policy(5, 2, rng)
    d_u = tab.StateDistribution(rng.dirichlet(np.ones(5)))
    d = tab.random_distribution(5, rng, support=d_u.support)
    penalty = cons.CsvePenaltyConfig(1.2, d, d_u)
    v_hat, _ = cons.csve_fixed_point(policy, mdp, penalty)
    j = cons.penalized_objective(policy, mdp, penalty)
    assert j == pytest.approx(float(mdp.initial_dist @ v_hat.values), abs=1e-8)


def test_argmax_consistency_on_enumerated_policies():
    rows = theory.run_argmax_consistency_trials(5, seed0=100)
    assert all(r["holds"] for r in rows)


def random_penalized_instance(seed, num_states, num_actions):
    rng = np.random.default_rng(seed)
    mdp = tab.random_mdp(num_states, num_actions, float(rng.uniform(0.3, 0.99)), rng)
    d_u = tab.StateDistribution(rng.dirichlet(np.ones(num_states)))
    d = tab.random_distribution(num_states, rng, support=d_u.support)
    return mdp, cons.CsvePenaltyConfig(float(rng.uniform(0.0, 10.0)), d, d_u), rng


@pytest.mark.parametrize("num_states, num_actions", [(1, 3), (2, 2), (3, 3), (4, 3),
                                                     (5, 2), (3, 4), (9, 2)])
def test_stacked_objectives_match_the_per_policy_enumeration_bit_for_bit(
        enumeration, num_states, num_actions):
    """Every deterministic policy through one ``penalized_objectives`` call,
    its P_pi indexed as P[states, actions], against the per-policy loop of
    validated one-hot tables, einsums and one-system solves."""
    _, enumerated_objectives, _ = enumeration
    states = np.arange(num_states)
    actions = np.arange(num_actions ** num_states)[:, None] // num_actions ** states \
        % num_actions
    for seed in range(200 if num_states < 9 else 10):
        mdp, penalty, _ = random_penalized_instance(seed, num_states, num_actions)
        stacked = cons.penalized_objectives(mdp.transition[states, actions],
                                            mdp.reward[states, actions], mdp, penalty)
        assert stacked.tobytes() == enumerated_objectives(mdp, penalty).tobytes(), seed


def test_argmax_consistency_rows_match_the_per_policy_loop_at_seeds_0_to_399(enumeration):
    _, _, enumerated_argmax_rows = enumeration
    assert theory.run_argmax_consistency_trials(400) == enumerated_argmax_rows(400)


@pytest.mark.parametrize("num_states, num_actions", [(2, 2), (4, 3), (8, 3), (13, 5)])
def test_stochastic_policy_through_the_stack_of_one_keeps_its_value(
        enumeration, num_states, num_actions):
    per_policy_objective, _, _ = enumeration
    for seed in range(50):
        mdp, penalty, rng = random_penalized_instance(seed, num_states, num_actions)
        policy = tab.random_policy(num_states, num_actions, rng)
        value = cons.penalized_objective(policy, mdp, penalty)
        assert type(value) is float
        assert value == per_policy_objective(policy, mdp, penalty), seed


def test_safe_improvement_identical_policies():
    inst = theory.make_instance(4)
    behavior = tab.random_policy(inst.mdp.num_states, inst.mdp.num_actions,
                                 np.random.default_rng(0))
    penalty = cons.CsvePenaltyConfig(1.0, inst.d, inst.d_u)
    breakdown = cons.safe_improvement_breakdown(inst.mdp, inst.empirical,
                                                inst.dataset, behavior, behavior,
                                                inst.sem, penalty)
    assert breakdown.improvement_term == pytest.approx(0.0, abs=1e-10)
    assert breakdown.zeta == pytest.approx(breakdown.sampling_term, abs=1e-10)
    assert breakdown.zeta == breakdown.sampling_term - breakdown.improvement_term
    assert breakdown.improvement_holds


def test_safe_improvement_zero_error_zero_constants():
    inst = theory.make_instance(9)
    sem0 = tab.SamplingErrorModel(0.0, 0.0, 0.0)
    penalty = cons.CsvePenaltyConfig(1.0, inst.d, inst.d_u)
    _, pi_star = cons.conservative_value_iteration(inst.mdp, penalty)
    behavior = tab.random_policy(inst.mdp.num_states, inst.mdp.num_actions,
                                 np.random.default_rng(1))
    breakdown = cons.safe_improvement_breakdown(inst.mdp, inst.mdp, inst.dataset,
                                                pi_star, behavior, sem0, penalty)
    assert breakdown.sampling_term == 0.0
    assert breakdown.zeta == pytest.approx(-breakdown.improvement_term)
    assert breakdown.improvement_holds


# ---------------------------------------------------------------------------
# conservative_value_iteration: policy iteration against value iteration
# ---------------------------------------------------------------------------

@pytest.fixture
def solves(monkeypatch):
    """Records one entry per linear solve tabular.policy_iteration makes."""
    calls = []
    solve = tab.solve_policy_values
    monkeypatch.setattr(tab, "solve_policy_values",
                        lambda *args: calls.append(None) or solve(*args))
    return calls


def assert_matches_value_iteration(empirical, penalty, solves, value_iteration):
    """Values within 1e-9 of the value-iteration oracle, the same greedy
    action wherever the oracle's top two Q values differ by more than 1e-9,
    and at most 20 improvement rounds."""
    solves.clear()
    v, greedy = cons.conservative_value_iteration(empirical, penalty)
    assert 1 <= len(solves) <= 20
    v_ref, q_ref = value_iteration(empirical, penalty.alpha * penalty.bracket())
    assert np.max(np.abs(v.values - v_ref)) <= 1e-9
    ordered = np.sort(q_ref, axis=1)
    runner_up = ordered[:, -2] if empirical.num_actions > 1 else -np.inf
    clear = ordered[:, -1] - runner_up > 1e-9
    actions = greedy.probs.argmax(axis=1)
    assert np.array_equal(greedy.probs, np.eye(empirical.num_actions)[actions])
    assert np.array_equal(actions[clear], q_ref.argmax(axis=1)[clear])


def test_policy_iteration_matches_value_iteration_on_random_mdps(solves, value_iteration):
    rng = np.random.default_rng(15)
    for _ in range(150):
        num_states, num_actions = int(rng.integers(2, 13)), int(rng.integers(1, 6))
        mdp = tab.random_mdp(num_states, num_actions, float(rng.uniform(0.3, 0.99)), rng)
        d_u = tab.StateDistribution(rng.dirichlet(np.ones(num_states)))
        d = tab.random_distribution(num_states, rng, support=d_u.support)
        penalty = cons.CsvePenaltyConfig(float(rng.uniform(0.0, 50.0)), d, d_u)
        assert_matches_value_iteration(mdp, penalty, solves, value_iteration)


def test_policy_iteration_matches_value_iteration_on_safe_improvement_mdps(
        monkeypatch, solves, value_iteration):
    inputs = []
    solve = cons.conservative_value_iteration
    monkeypatch.setattr(cons, "conservative_value_iteration",
                        lambda empirical, penalty: inputs.append((empirical, penalty))
                        or solve(empirical, penalty))
    theory.run_safe_improvement_trials(50, seed0=0)
    monkeypatch.setattr(cons, "conservative_value_iteration", solve)
    assert len(inputs) == 50
    for empirical, penalty in inputs:
        assert_matches_value_iteration(empirical, penalty, solves, value_iteration)


def tie_mdp(reward_00=0.0, reward_02=0.5):
    """State 0: action 0 stays, actions 1 and 2 both move to the absorbing
    state 1 (two moves into one wall), rewards (reward_00, 0.5, reward_02).
    State 1: every action stays, reward 0."""
    p = np.zeros((2, 3, 2))
    p[0, 0, 0] = p[0, 1, 1] = p[0, 2, 1] = 1.0
    p[1, :, 1] = 1.0
    r = np.array([[reward_00, 0.5, reward_02], [0.0, 0.0, 0.0]])
    mdp = tab.TabularMdp(p, r, np.array([1.0, 0.0]), 0.9, 1.0)
    return mdp, cons.CsvePenaltyConfig(1.0, dist(0.5, 0.5), dist(0.5, 0.5))


@pytest.mark.parametrize("reward_02", [0.5, np.nextafter(0.5, 1.0)])
def test_policy_iteration_breaks_ties_toward_the_lowest_action(reward_02):
    mdp, penalty = tie_mdp(reward_02=reward_02)
    v, greedy = cons.conservative_value_iteration(mdp, penalty)
    assert greedy.probs.argmax(axis=1).tolist() == [1, 0]
    assert v.values.tolist() == [reward_02, 0.0]


def test_policy_iteration_raises_at_its_round_cap(monkeypatch):
    mdp, penalty = tie_mdp(reward_00=0.4)  # staying (0.4 / 0.1 = 4) beats the reward argmax
    monkeypatch.setattr(tab, "POLICY_ITERATION_ROUNDS", 2)
    assert cons.conservative_value_iteration(mdp, penalty)[1].probs.argmax(axis=1)[0] == 0
    monkeypatch.setattr(tab, "POLICY_ITERATION_ROUNDS", 1)
    with pytest.raises(ConvergenceError):
        cons.conservative_value_iteration(mdp, penalty)


def test_interpolation_trivial_and_random():
    rng = np.random.default_rng(30)
    rho = tab.StateDistribution(rng.dirichlet(np.ones(6)))
    report = cons.certify_interpolation(rho, rho, 0.5)
    assert report.holds and abs(report.lhs) <= 1e-12

    d = tab.StateDistribution(rng.dirichlet(np.ones(6)))
    report = cons.certify_interpolation(rho, d, 0.0)
    v = -report.lhs
    support_mass = d.probs[rho.probs > 0].sum()
    assert v == pytest.approx(1.0 - support_mass, abs=1e-12)
    assert v >= -1e-12

    rows = theory.run_interpolation_trials(100, seed0=500)
    assert all(r["holds"] for r in rows)


def test_calibration_combined_constant_dominates():
    sem = cons.calibrate_sampling_error_model(8, 0.8)
    assert sem.c_rt >= sem.c_r
    assert sem.c_p > 0
    # combined constant reproduces the backup-error rescaling
    expected = (sem.c_r * 0.2 + 2 * 0.8 * sem.c_p * 1.0) / 1.0
    assert sem.c_rt == pytest.approx(max(sem.c_r, expected))
