"""Closed-form reward arithmetic: gains, intrinsic and composite rewards.

All functions are pure and operate on scalars or 1-D preference rows
(one row of the current shaped reward matrix per user).
"""

from __future__ import annotations

import numpy as np


def mean(xs) -> float:
    """`np.mean` of a non-empty list of floats, the same bits without its wrappers."""
    return float(np.add.reduce(np.array(xs)) / len(xs))


def cosine_from_norms(a, b, na, nb) -> float:
    """Cosine of 1-D rows `a` and `b` given their norms `na` and `nb`
    (`np.linalg.norm` of each row), or 0 when either norm is 0: an
    all-zero row scores 0, as `selector.candidate_pool` ranks it."""
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(min(max(a @ b / (na * nb), -1.0), 1.0))  # np.clip's value, faster on a scalar


def mean_dissimilarity(cand, n_cand, rows, norms) -> float:
    """Mean of 1 - cos of `cand` against each of `rows`, from their norms;
    0 for no rows."""
    if len(rows) == 0:
        return 0.0
    return mean([1.0 - cosine_from_norms(r, cand, n, n_cand) for r, n in zip(rows, norms)])


def intrinsic_reward(r_hat, sim, div, lambda_s, lambda_d) -> float:
    """Selection-step reward: estimate plus weighted similarity/diversity gains.

    `sim` is the cosine to the target user's preference row, in [-1, 1];
    `div` the mean (1 - cosine) against the rows already selected, in [0, 2].
    """
    return float(r_hat + lambda_s * sim + lambda_d * div)


def shape_reward(ref_rewards) -> float:
    """Aggregate reward estimate over the reference users: plain mean."""
    if len(ref_rewards) == 0:
        raise ValueError("cannot shape a reward from an empty reference set")
    return mean(ref_rewards)


def dynamic_uncertainty(r_new, r_prev, mean_sim, mean_div, eps=1e-6) -> float:
    """Reward-change magnitude scaled by how representative the selection was.

    The denominator is clamped at eps: anti-similar reference pools would
    otherwise flip the sign or divide by zero.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    return float(abs(r_new - r_prev) / max(mean_sim + mean_div, eps))


def recommender_reward(r_hat, p_u, p_e, lambda_u, lambda_e) -> float:
    """Composite training reward: estimate minus uncertainty plus entropy term.

    Used with either the dynamic or the static uncertainty value.
    """
    return float(r_hat - lambda_u * p_u + lambda_e * p_e)
