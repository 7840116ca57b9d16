"""Conservative state-value operator and executable certifications.

The penalized operator subtracts alpha * (d(s)/d_u(s) - 1) from the
empirical Bellman backup, so states over-weighted by the sampling
distribution d relative to the data marginal d_u are pushed down.  This
module holds the operator, its fixed point, the per-state objective it
minimizes, the tabular CQL counterpart, and report-producing checks of
the lower-bound, gap-expansion, equivalent-objective and safe-improvement
guarantees, plus tail-inversion calibration of the concentration
constants those checks rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDistributionError, SupportError
from .tabular import (
    PolicyTable,
    QTable,
    SamplingErrorModel,
    StateDistribution,
    TabularDataset,
    TabularMdp,
    ValueTable,
    discounted_occupancies,
    discounted_state_occupancy,
    effective_counts,
    exact_policy_evaluation,
    policy_iteration,
    policy_reward_vector,
    policy_transition_matrix,
    sampling_error_vector,
    solve_policy_values,
)

REPORT_TOL = 1e-9
CALIBRATION_DELTA = 0.05


@dataclass(frozen=True)
class CsvePenaltyConfig:
    """Penalty weight alpha plus the sampling distribution d and data
    marginal d_u.  Requires supp(d) within supp(d_u); where both vanish the
    ratio d/d_u is defined as 0 and contributes no penalty."""

    alpha: float
    d: StateDistribution
    d_u: StateDistribution

    def __post_init__(self):
        if self.alpha < 0:
            raise SupportError("penalty weight alpha must be nonnegative")
        if self.d.probs.shape != self.d_u.probs.shape:
            raise SupportError("d and d_u must share one state space")
        bad = (self.d.probs > 0) & (self.d_u.probs == 0)
        if bad.any():
            raise SupportError(
                f"d places mass outside supp(d_u) at states {np.flatnonzero(bad).tolist()}"
            )

    def bracket(self) -> np.ndarray:
        """Per-state penalty bracket d(s)/d_u(s) - 1, zero off supp(d_u)."""
        du = self.d_u.probs
        out = np.zeros_like(du)
        on = du > 0
        out[on] = self.d.probs[on] / du[on] - 1.0
        return out


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of one inequality check, with the penalty weight the check
    derives as sufficient (0 where it derives none)."""

    holds: bool
    lhs: float
    rhs: float
    alpha_threshold: float


@dataclass(frozen=True)
class SafeImprovementBreakdown:
    """Decomposition of the safe-improvement slack zeta.

    zeta = sampling_term - improvement_term exactly; the recorded check is
    J(pi_star, true MDP) >= J(pi_beta, true MDP) - zeta.
    """

    sampling_term: float
    improvement_term: float
    zeta: float
    j_pi_star: float
    j_pi_beta: float
    improvement_holds: bool


# ---------------------------------------------------------------------------
# Operator, objective, fixed point
# ---------------------------------------------------------------------------

def empirical_bellman_backup(values: np.ndarray, policy: PolicyTable,
                             empirical: TabularMdp) -> np.ndarray:
    """(B_pi V)(s) = E_{a~pi}[r(s,a)] + gamma * E_{a~pi} sum_s' P(s'|s,a) V(s')."""
    r_pi = policy_reward_vector(empirical, policy)
    p_pi = policy_transition_matrix(empirical, policy)
    return r_pi + empirical.discount * (p_pi @ values)


def csve_operator(v: ValueTable, policy: PolicyTable, empirical: TabularMdp,
                  penalty: CsvePenaltyConfig) -> ValueTable:
    """One penalized iterate: backup minus alpha * (d/d_u - 1) pointwise."""
    backup = empirical_bellman_backup(v.values, policy, empirical)
    return ValueTable(backup - penalty.alpha * penalty.bracket())


def csve_objective_argmin(v: ValueTable, policy: PolicyTable, empirical: TabularMdp,
                          penalty: CsvePenaltyConfig) -> ValueTable:
    """Minimizer of the penalized regression objective

        0.5 E_{s~d_u}[(backup(s) - V(s))^2] + alpha (E_d[V] - E_{d_u}[V])

    solved per state: bracket the minimum on a coarse grid and take one
    parabolic vertex fit, which is exact for this pointwise-quadratic
    objective and touches the objective only through function evaluations,
    so it checks ``csve_operator`` independently.  States outside supp(d_u)
    carry no objective mass and are set to the plain backup.
    """
    backup = empirical_bellman_backup(v.values, policy, empirical)
    du = penalty.d_u.probs
    d = penalty.d.probs
    out = backup.copy()
    span = abs(backup).max() + penalty.alpha * (abs(penalty.bracket()).max() + 1.0) + 1.0
    for s in np.flatnonzero(du > 0):
        def objective(val):
            return 0.5 * du[s] * (backup[s] - val) ** 2 + penalty.alpha * (d[s] - du[s]) * val

        grid = backup[s] + span * np.linspace(-1.0, 1.0, 9)
        center = grid[int(np.argmin([objective(g) for g in grid]))]
        h = span  # wide spacing keeps the vertex fit well conditioned
        f_lo, f_mid, f_hi = objective(center - h), objective(center), objective(center + h)
        curvature = f_lo - 2.0 * f_mid + f_hi
        out[s] = center - h * (f_hi - f_lo) / (2.0 * curvature)
    return ValueTable(out)


def csve_fixed_point(policy: PolicyTable, empirical: TabularMdp,
                     penalty: CsvePenaltyConfig) -> tuple[ValueTable, int]:
    """The unique fixed point of the penalized operator, a gamma-contraction
    in the sup norm: one solve of (I - gamma P_pi) V = r_pi - alpha * bracket."""
    r_pi = policy_reward_vector(empirical, policy) - penalty.alpha * penalty.bracket()
    p_pi = policy_transition_matrix(empirical, policy)
    # the solve count, always 1, stays because bench/checks.py and bench/spans.py unpack it
    return ValueTable(solve_policy_values(p_pi, r_pi, empirical.discount)), 1


def cql_q_operator(q: QTable, policy: PolicyTable, mu: PolicyTable | None,
                   behavior: PolicyTable, empirical: TabularMdp,
                   alpha: float) -> QTable:
    """Pointwise tabular CQL iterate: backup minus alpha * (mu/pi_beta - 1).

    mu defaults to the learned policy.  Pairs with pi_beta = mu = 0
    contribute no penalty; mu > 0 where pi_beta = 0 is a support error.
    """
    if mu is None:
        mu = policy
    beta = behavior.probs
    mu_p = mu.probs
    bad = (mu_p > 0) & (beta == 0)
    if bad.any():
        raise SupportError("mu places mass on actions the behavior policy never takes")
    ratio = np.zeros_like(beta)
    on = beta > 0
    ratio[on] = mu_p[on] / beta[on]
    bracket = np.where(on, ratio - 1.0, 0.0)
    v_next = (policy.probs * q.values).sum(axis=1)
    backup = empirical.reward + empirical.discount * (empirical.transition @ v_next)
    return QTable(backup - alpha * bracket)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def calibrate_sampling_error_model(num_states: int, discount: float) -> SamplingErrorModel:
    """Concentration constants from closed-form tail inversions at level
    CALIBRATION_DELTA.

    c_r, the Hoeffding tail of a reward's per-sample range, is 0: every
    instance has deterministic rewards.  c_p inverts the L1 multinomial tail
    P(||Phat - P||_1 >= eps) <= 2^S exp(-n eps^2 / 2).  c_rt rescales the
    combined backup-error bound 2 gamma c_p r_max onto the
    c_rt * r_max / ((1-gamma) sqrt(n)) form.
    """
    c_p = math.sqrt(2.0 * (num_states * math.log(2.0) + math.log(1.0 / CALIBRATION_DELTA)))
    return SamplingErrorModel(c_r=0.0, c_p=c_p, c_rt=2.0 * discount * c_p)


# ---------------------------------------------------------------------------
# Certifications
# ---------------------------------------------------------------------------

def alpha_threshold(mdp: TabularMdp, empirical: TabularMdp, policy: PolicyTable,
                    penalty: CsvePenaltyConfig, dataset: TabularDataset,
                    sem: SamplingErrorModel) -> float:
    """Smallest penalty weight for which the expected lower bound under d is
    guaranteed: E_d[error bound] / E_d[d/d_u - 1]."""
    errors = sampling_error_vector(dataset, sem, mdp, policy)
    numerator = float(penalty.d.probs @ errors)
    denominator = float(penalty.d.probs @ penalty.bracket())
    if denominator <= 0:
        raise DegenerateDistributionError(
            "E_d[d/d_u - 1] must be positive; d coincides with d_u on its support"
        )
    return numerator / denominator


def certify_lower_bound_under_d(mdp: TabularMdp, empirical: TabularMdp,
                                policy: PolicyTable,
                                penalty: CsvePenaltyConfig) -> CertificationReport:
    """Check E_d[V_conservative] <= E_d[V_true]; its sufficient penalty
    weight is ``alpha_threshold``."""
    v_hat, _ = csve_fixed_point(policy, empirical, penalty)
    v_true = exact_policy_evaluation(mdp, policy)
    lhs = float(penalty.d.probs @ v_hat.values)
    rhs = float(penalty.d.probs @ v_true.values)
    return CertificationReport(lhs <= rhs + REPORT_TOL, lhs, rhs, 0.0)


def certify_lower_bound_under_data(mdp: TabularMdp, empirical: TabularMdp,
                                   policy: PolicyTable, penalty: CsvePenaltyConfig,
                                   dataset: TabularDataset,
                                   sem: SamplingErrorModel) -> CertificationReport:
    """Check E_{d_u}[V_conservative] <= E_{d_u}[V_true] + irreducible error term,
    the error term being (I - gamma P_pi)^-1 applied to the per-state bound."""
    v_hat, _ = csve_fixed_point(policy, empirical, penalty)
    v_true = exact_policy_evaluation(mdp, policy)
    errors = sampling_error_vector(dataset, sem, mdp, policy)
    p_pi = policy_transition_matrix(mdp, policy)
    weighted = solve_policy_values(p_pi, errors, mdp.discount)
    du = penalty.d_u.probs
    lhs = float(du @ v_hat.values)
    rhs = float(du @ v_true.values + du @ weighted)
    return CertificationReport(lhs <= rhs + REPORT_TOL, lhs, rhs, 0.0)


def certify_gap_expansion(mdp: TabularMdp, empirical: TabularMdp, policy: PolicyTable,
                          penalty: CsvePenaltyConfig, k: int) -> CertificationReport:
    """Check that after k+1 penalized iterations the in-data vs sampled-state
    value gap strictly exceeds the unpenalized gap.

    Both sequences start from zero; the sufficient penalty weight is
    computed from the k-th iterates as
    (E_d - E_{d_u})[backup(Vhat^k - V^k)] / E_d[d/d_u - 1].
    """
    bracket = penalty.bracket()
    correction = penalty.alpha * bracket
    d, du = penalty.d.probs, penalty.d_u.probs
    v_pen = np.zeros(empirical.num_states)
    v_plain = np.zeros(empirical.num_states)
    for _ in range(k):
        v_pen = empirical_bellman_backup(v_pen, policy, empirical) - correction
        v_plain = empirical_bellman_backup(v_plain, policy, empirical)
    backup_pen = empirical_bellman_backup(v_pen, policy, empirical)
    backup_plain = empirical_bellman_backup(v_plain, policy, empirical)
    diff = backup_pen - backup_plain
    denominator = float(d @ bracket)
    if denominator > 0:
        threshold = float(d @ diff - du @ diff) / denominator
    else:
        threshold = math.inf
    v_pen_next = backup_pen - correction
    v_plain_next = backup_plain
    lhs = float(du @ v_plain_next - d @ v_plain_next)  # unpenalized gap
    rhs = float(du @ v_pen_next - d @ v_pen_next)      # penalized gap
    return CertificationReport(rhs > lhs - REPORT_TOL, lhs, rhs, threshold)


def penalized_objective(policy: PolicyTable, empirical: TabularMdp,
                        penalty: CsvePenaltyConfig) -> float:
    """J(pi, empirical MDP) minus alpha/(1-gamma) times the occupancy-weighted
    penalty bracket: ``penalized_objectives`` on a stack of one."""
    return float(penalized_objectives(policy_transition_matrix(empirical, policy)[None],
                                      policy_reward_vector(empirical, policy)[None],
                                      empirical, penalty)[0])


def penalized_objectives(p_pi: np.ndarray, r_pi: np.ndarray, empirical: TabularMdp,
                         penalty: CsvePenaltyConfig) -> np.ndarray:
    """The penalized objective of each policy of a stack, given by its P_pi
    (N, S, S) and r_pi (N, S): one stacked solve for the values and one for
    the occupancies.  The two scalar products run row by row, because a
    stacked product rounds differently from a policy's own."""
    values = solve_policy_values(p_pi, r_pi, empirical.discount)
    occupancy = discounted_occupancies(p_pi, empirical.initial_dist, empirical.discount)
    rho, bracket = empirical.initial_dist, penalty.bracket()
    j = np.array([rho @ v for v in values])
    penalty_term = np.array([occ @ bracket for occ in occupancy])
    return j - penalty.alpha / (1.0 - empirical.discount) * penalty_term


def conservative_value_iteration(empirical: TabularMdp,
                                 penalty: CsvePenaltyConfig) -> tuple[ValueTable, PolicyTable]:
    """Optimal-control variant of the penalized iteration,
    V(s) = max_a [r(s,a) + gamma sum P V] - alpha * bracket(s), solved by
    ``policy_iteration``: the exact value and its greedy deterministic policy."""
    return policy_iteration(empirical, penalty.alpha * penalty.bracket())


def safe_improvement_breakdown(mdp: TabularMdp, empirical: TabularMdp,
                               dataset: TabularDataset, pi_star: PolicyTable,
                               pi_beta: PolicyTable, sem: SamplingErrorModel,
                               penalty: CsvePenaltyConfig) -> SafeImprovementBreakdown:
    """Safe-improvement slack for pi_star against the behavior policy.

    sampling_term = 2 (c_r/(1-g) + g r_max c_p/(1-g)^2)
                    * E_{s~occupancy(pi_star, empirical)}[
                        sqrt(|A|)/sqrt(|D(s)|) * sqrt(E_{a~pi*}[pi*/pi_beta]) ]
    improvement_term = J(pi_star, empirical) - J(pi_beta, empirical).
    """
    star, beta = pi_star.probs, pi_beta.probs
    supported = dataset.count_s > 0
    bad = supported[:, None] & (star > 0) & (beta == 0)
    if bad.any():
        raise SupportError("pi_star uses actions unsupported by pi_beta on visited states")
    ratio_sq = np.zeros_like(star)
    on = beta > 0
    ratio_sq[on] = star[on] ** 2 / beta[on]
    per_state_ratio = np.sqrt(ratio_sq.sum(axis=1))

    counts = effective_counts(dataset.count_s, sem)
    occupancy = discounted_state_occupancy(empirical, pi_star)
    g = mdp.discount
    prefix = 2.0 * (sem.c_r / (1.0 - g) + g * mdp.r_max * sem.c_p / (1.0 - g) ** 2)
    per_state = np.sqrt(mdp.num_actions) / np.sqrt(counts) * per_state_ratio
    sampling_term = prefix * float(occupancy.probs @ per_state)

    j_star_hat = float(empirical.initial_dist @ exact_policy_evaluation(empirical, pi_star).values)
    j_beta_hat = float(empirical.initial_dist @ exact_policy_evaluation(empirical, pi_beta).values)
    improvement_term = j_star_hat - j_beta_hat
    zeta = sampling_term - improvement_term

    j_star = float(mdp.initial_dist @ exact_policy_evaluation(mdp, pi_star).values)
    j_beta = float(mdp.initial_dist @ exact_policy_evaluation(mdp, pi_beta).values)
    return SafeImprovementBreakdown(
        sampling_term=sampling_term,
        improvement_term=improvement_term,
        zeta=zeta,
        j_pi_star=j_star,
        j_pi_beta=j_beta,
        improvement_holds=j_star >= j_beta - zeta - REPORT_TOL,
    )


def certify_interpolation(rho: StateDistribution, d: StateDistribution,
                          f: float) -> CertificationReport:
    """Check E_{s~rho}[(rho(s) - d(s)) / d_f(s)] >= 0 for the interpolation
    d_f = f*d + (1-f)*rho.  States with rho > 0 but d_f = 0 (possible only at
    f = 1) are excluded from the sum."""
    if not (0.0 <= f <= 1.0):
        raise ValueError("interpolation factor f must lie in [0, 1]")
    rho_p, d_p = rho.probs, d.probs
    d_f = f * d_p + (1.0 - f) * rho_p
    include = (rho_p > 0) & (d_f > 0)
    value = float((rho_p[include] * (rho_p[include] - d_p[include]) / d_f[include]).sum())
    return CertificationReport(value >= -1e-12, -value, 0.0, 0.0)
