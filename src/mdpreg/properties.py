"""Executable property and acceptance suites.

Each check is an independent route to a result the library must reproduce:
brute-force policy enumeration, explicit stochastic-policy evaluation, the
closed-form matrix blends, and byte-level determinism of the harness. The
CLI `check` verb and the pytest acceptance module both run these.
"""

from __future__ import annotations

import functools
import itertools
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimation import CountsTensor, EstimatedModel, mle_model
from .harness import (DEFAULT_SEED, builtin_presets, emit_csv, override,
                      run_experiment)
from .mdp import TIE_TOL, TabularMdp, apply_reward_shift
from .planning import PlanningProblem, policy_evaluation, policy_iteration, q_gaps
from .regularizers import implied_prior_magnitude, regularize


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail} ({self.seconds:.1f}s)"


def random_mdp(rng: np.random.Generator, n_states: int, n_actions: int,
               gamma: float = 0.95, state_rewards: bool = False) -> TabularMdp:
    """Random dense MDP: Dirichlet(1) rows, uniform(-1, 1) rewards, no absorbing."""
    t = rng.dirichlet(np.ones(n_states), size=(n_actions, n_states))
    if state_rewards:
        r = np.repeat(rng.uniform(-1.0, 1.0, (n_states, 1)), n_actions, axis=1)
    else:
        r = rng.uniform(-1.0, 1.0, (n_states, n_actions))
    return TabularMdp(t, r, np.zeros_like(r), gamma)


def random_uniform_visit_counts(rng: np.random.Generator, n_states: int,
                                n_actions: int, row_total: int) -> CountsTensor:
    """Counts with the same total per (s, a): the uniform-visits condition."""
    c = np.empty((n_states, n_actions, n_states), dtype=np.int64)
    for s in range(n_states):
        for a in range(n_actions):
            c[s, a] = rng.multinomial(row_total, np.full(n_states, 1.0 / n_states))
    reward_sum = rng.uniform(-1.0, 1.0, (n_states, n_actions)) * row_total
    return CountsTensor(c, reward_sum, c.sum(axis=2))


def _estimated_from_mdp(mdp: TabularMdp) -> EstimatedModel:
    return EstimatedModel(mdp.transition.copy(), mdp.reward_mean.copy())


def _policies_agree_tie_free(pi_a, q_a, pi_b, q_b) -> bool:
    compared = (q_gaps(q_a) > TIE_TOL) & (q_gaps(q_b) > TIE_TOL)
    return bool(np.all(pi_a[compared] == pi_b[compared]))


def eps_greedy_evaluation(t: np.ndarray, r: np.ndarray, gamma: float,
                          policy: np.ndarray, eps: float) -> np.ndarray:
    """Value of executing ``policy`` eps-greedily: pick policy[s] w.p. 1 - eps,
    a uniform action otherwise. Independent of the blended-matrix route."""
    n = t.shape[1]
    idx = np.arange(n)
    t_exec = (1.0 - eps) * t[policy, idx, :] + eps * t.mean(axis=0)
    r_exec = (1.0 - eps) * r[idx, policy] + eps * r.mean(axis=1)
    return np.linalg.solve(np.eye(n) - gamma * t_exec, r_exec)


def _check(name: str, limit_s: float = math.inf):
    """Make a check body returning (passed, detail) return a timed
    CheckResult ``name``, failed also if it takes ``limit_s`` seconds or more."""
    def decorate(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            start = time.perf_counter()
            passed, detail = body(*args, **kwargs)
            secs = time.perf_counter() - start
            return CheckResult(name, passed and secs < limit_s, detail, secs)
        return check
    return decorate


@_check("uniform_blend_equals_lowered_gamma", limit_s=30.0)
def check_uniform_blend(n_mdps: int = 200, seed: int = 20_001):
    """(T, (1-eps)*gamma) and ((1-eps)*T + eps*T_unif, gamma) share an optimal
    policy; states with a Q-tie in either are not compared (the guarantee is a
    common optimal policy, not a common tie-break)."""
    rng = np.random.default_rng(seed)
    eps_values = (0.1, 0.3, 0.5, 0.7, 0.9)
    failures = 0
    total = 0
    for _ in range(n_mdps):
        mdp = random_mdp(rng, int(rng.integers(2, 7)), int(rng.integers(2, 4)))
        for eps in eps_values:
            total += 1
            lowered = PlanningProblem(mdp.transition, mdp.reward_mean, (1.0 - eps) * mdp.gamma)
            blended = PlanningProblem((1.0 - eps) * mdp.transition + eps / mdp.n_states,
                                      mdp.reward_mean, mdp.gamma)
            if not _policies_agree_tie_free(*policy_iteration(lowered),
                                            *policy_iteration(blended)):
                failures += 1
    return failures == 0, f"{total - failures}/{total} agreements"


@_check("discount_blend_equals_lowered_gamma", limit_s=30.0)
def check_discount_equiv(n_mdps: int = 200, seed: int = 20_002):
    """Discount blend at gamma plans identically to the MLE at lowered gamma."""
    rng = np.random.default_rng(seed)
    eps_values = (0.1, 0.3, 0.5, 0.7, 0.9)
    failures, total = 0, 0
    for _ in range(n_mdps):
        mdp = random_mdp(rng, int(rng.integers(2, 7)), int(rng.integers(2, 4)))
        est = _estimated_from_mdp(mdp)
        for eps in eps_values:
            total += 1
            reg = regularize(est, None, "discount", eps, mdp.gamma)
            pi_a, q_a = policy_iteration(PlanningProblem(reg.t_reg, reg.r_hat, reg.gamma))
            lowered = PlanningProblem(est.t_hat, est.r_hat, (1.0 - eps) * mdp.gamma)
            pi_b, q_b = policy_iteration(lowered)
            if not _policies_agree_tie_free(pi_a, q_a, pi_b, q_b):
                failures += 1
    return failures == 0, f"{total - failures}/{total} policy matches"


@_check("dirichlet_matrix_form")
def check_dirichlet_matrix_form(n_instances: int = 20, seed: int = 20_003):
    """Under uniform visits the posterior mean (c + m/N) / (n_sa + m), computed
    here directly, is the exact matrix blend, and ``regularize`` returns it."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        n = int(rng.integers(2, 8))
        a = int(rng.integers(1, 4))
        total = int(rng.integers(5, 50))
        counts = random_uniform_visit_counts(rng, n, a, total)
        est = mle_model(counts)
        for m in (1.0, 10.0, 100.0):
            posterior = np.moveaxis((counts.c + m / n) / (total + m), 1, 0)
            eps = m / (total + m)
            blend = (1.0 - eps) * est.t_hat + eps / n
            reg = regularize(est, counts, "dirichlet", m, 0.95)
            worst = max(worst, float(np.abs(posterior - blend).max()),
                        float(np.abs(posterior - reg.t_reg).max()))
    return worst <= 1e-12, f"max entrywise deviation {worst:.2e}"


@_check("implied_prior_equivalence")
def check_implied_prior_equiv(n_instances: int = 100, seed: int = 20_004):
    """Discount blend and its implied uniform Dirichlet prior plan identically."""
    rng = np.random.default_rng(seed)
    gamma = 0.95
    failures = 0
    for _ in range(n_instances):
        n = int(rng.integers(2, 7))
        a = int(rng.integers(2, 4))
        total = int(rng.integers(5, 40))
        counts = random_uniform_visit_counts(rng, n, a, total)
        est = mle_model(counts)
        eps = float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        gamma_l = (1.0 - eps) * gamma
        alpha_i = implied_prior_magnitude(gamma, gamma_l, total, n)
        reg_disc = regularize(est, None, "discount", eps, gamma)
        reg_dir = regularize(est, counts, "dirichlet", n * alpha_i, gamma)
        pi_a, q_a = policy_iteration(
            PlanningProblem(reg_disc.t_reg, reg_disc.r_hat, reg_disc.gamma))
        pi_b, q_b = policy_iteration(PlanningProblem(reg_dir.t_reg, reg_dir.r_hat, reg_dir.gamma))
        if not _policies_agree_tie_free(pi_a, q_a, pi_b, q_b):
            failures += 1
    return failures == 0, f"{n_instances - failures}/{n_instances} policy matches"


@_check("eps_greedy_planning_equivalence")
def check_eps_greedy_equiv(n_mdps: int = 100, seed: int = 20_005):
    """Greedy planning on blended matrices is optimal over eps-greedy executions."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_mdps):
        n = int(rng.integers(2, 5))
        mdp = random_mdp(rng, n, 2, state_rewards=True)
        est = _estimated_from_mdp(mdp)
        for eps in (0.25, 0.5):
            reg = regularize(est, None, "eps_greedy", eps, mdp.gamma)
            pi_hat, _ = policy_iteration(PlanningProblem(reg.t_reg, reg.r_hat, reg.gamma))
            v_hat = eps_greedy_evaluation(mdp.transition, mdp.reward_mean,
                                          mdp.gamma, pi_hat, eps)
            v_best = np.full(n, -np.inf)
            for assignment in itertools.product(range(2), repeat=n):
                pi = np.array(assignment)
                v = eps_greedy_evaluation(mdp.transition, mdp.reward_mean,
                                          mdp.gamma, pi, eps)
                v_best = np.maximum(v_best, v)
            worst = max(worst, float(np.abs(v_hat - v_best).max()))
    return worst <= 1e-9, f"max value gap to brute force {worst:.2e}"


@_check("reward_shift_invariance")
def check_reward_shift(n_mdps: int = 100, seed: int = 20_006):
    """Adding x to all rewards shifts Q by x/(1-gamma) and keeps the policy."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    failures = 0
    for _ in range(n_mdps):
        mdp = random_mdp(rng, int(rng.integers(2, 7)), int(rng.integers(2, 4)))
        pi0, q0 = policy_iteration(PlanningProblem.from_mdp(mdp))
        for x in (-5.0, 1.0, 100.0):
            shifted = apply_reward_shift(mdp, x)
            pi_x, q_x = policy_iteration(PlanningProblem.from_mdp(shifted))
            worst = max(worst, float(np.abs(q_x - q0 - x / (1.0 - mdp.gamma)).max()))
            if not _policies_agree_tie_free(pi0, q0, pi_x, q_x):
                failures += 1
    ok = worst <= 1e-9 and failures == 0
    return ok, f"max Q-shift error {worst:.2e}, {failures} policy changes"


@_check("policy_iteration_oracle")
def check_pi_oracle(n_problems: int = 500, seed: int = 20_007):
    """Policy iteration matches exhaustive policy enumeration."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(n_problems):
        n = 2 if i % 2 == 0 else 3
        mdp = random_mdp(rng, n, 2)
        problem = PlanningProblem.from_mdp(mdp)
        pi, _ = policy_iteration(problem)
        v_pi = policy_evaluation(problem, pi)
        v_best = np.full(n, -np.inf)
        for assignment in itertools.product(range(2), repeat=n):
            v = policy_evaluation(problem, np.array(assignment))
            v_best = np.maximum(v_best, v)
        worst = max(worst, float(np.abs(v_pi - v_best).max()))
    return worst <= 1e-9, f"max value gap to enumeration {worst:.2e}"


@_check("qualitative_loss_curves", limit_s=600.0)
def check_loss_curves(replications: int = 1000, workers: int = 8,
                      seed: int = DEFAULT_SEED):
    """Regularization never hurts at the curve minimum; on the cliff the
    stochastic-policy blend beats no regularization by >= 3 standard errors."""
    presets = builtin_presets()
    problems = []
    details = []
    for name in ("cliff-random", "twogoals-random", "grid-random"):
        cfg = override(presets[name], replications=replications,
                       master_seed=seed, workers=workers)
        rows = run_experiment(cfg)
        by_method: dict[str, list] = {}
        for row in rows:
            by_method.setdefault(row.method, []).append(row)
        for method, mrows in by_method.items():
            at_zero = next(r for r in mrows if r.strength == 0.0)
            best = min(mrows, key=lambda r: r.mean_loss)
            if best.mean_loss > at_zero.mean_loss + 1e-12:
                problems.append(f"{name}/{method}: min loss {best.mean_loss:.4g}"
                                f" above strength-0 loss {at_zero.mean_loss:.4g}")
            if name == "cliff-random" and method == "eps_greedy":
                margin = at_zero.mean_loss - best.mean_loss
                se = float(np.hypot(at_zero.stderr_loss, best.stderr_loss))
                details.append(f"cliff eps_greedy improvement {margin:.3g}"
                               f" ({margin / se if se else float('inf'):.1f} se)")
                if margin < 3.0 * se:
                    problems.append(
                        f"cliff-random/eps_greedy: improvement {margin:.4g}"
                        f" below 3 x stderr {se:.4g}")
    detail = "; ".join(details + problems) or "all curves within bounds"
    return not problems, detail


@_check("determinism")
def check_determinism(replications: int = 24, workers: int = 8,
                      seed: int = DEFAULT_SEED):
    """Byte-identical CSV on rerun; aggregates independent of worker count."""
    cfg = override(builtin_presets()["cliff-random"], replications=replications,
                   master_seed=seed, workers=1)
    rows_serial = run_experiment(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        emit_csv(rows_serial, p1)
        emit_csv(run_experiment(cfg), p2)
        if p1.read_bytes() != p2.read_bytes():
            return False, "rerun produced different CSV bytes"
    if run_experiment(override(cfg, workers=workers)) != rows_serial:
        return False, f"workers=1 and workers={workers} aggregates differ"
    return True, "byte-identical reruns; worker count irrelevant"


def run_acceptance(quick: bool = False, workers: int = 8) -> list[CheckResult]:
    """Run all nine acceptance checks (quick mode trims the Monte-Carlo sizes)."""
    loss_reps = 150 if quick else 1000
    return [
        check_uniform_blend(),
        check_discount_equiv(),
        check_dirichlet_matrix_form(),
        check_implied_prior_equiv(),
        check_eps_greedy_equiv(),
        check_reward_shift(),
        check_pi_oracle(),
        check_loss_curves(replications=loss_reps, workers=workers),
        check_determinism(),
    ]
