import math

import numpy as np
import pytest

from darlr import rewardmath as rm
from darlr.nncore import rng_stream


def cosine(a, b):
    """`cosine_from_norms` on `np.linalg.norm` norms, as the selection
    episode calls it for the similarity gain."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return rm.cosine_from_norms(a, b, np.linalg.norm(a), np.linalg.norm(b))


def dissimilarity(cand, rows):
    """`mean_dissimilarity` on `np.linalg.norm` norms, as the selection
    episode calls it for the diversity gain."""
    cand = np.asarray(cand, dtype=np.float64)
    rows = [np.asarray(r, dtype=np.float64) for r in rows]
    return rm.mean_dissimilarity(cand, np.linalg.norm(cand), rows, [np.linalg.norm(r) for r in rows])


class TestCosine:
    def test_identical_unit(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_closed_form(self):
        assert abs(cosine([1.0, 1.0], [1.0, 0.0]) - 1.0 / math.sqrt(2)) < 1e-12

    def test_bounded(self):
        rng = rng_stream(0, "cos")
        for _ in range(200):
            a, b = rng.normal(size=(2, 5))
            assert -1.0 <= cosine(a, b) <= 1.0


def clipped_cosine(a, b):
    """The two-norm cosine that the gains computed before norms were passed in."""
    return float(np.clip(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0))


class TestCosineFromNorms:
    def test_bits_of_the_clipped_cosine(self):
        rng = rng_stream(7, "kernel")
        for k in range(300):
            a = rng.random(40) if k % 2 else rng.normal(size=40)
            b = a * rng.uniform(0.5, 3.0) if k % 3 == 0 else rng.normal(size=40)  # near +-1 too
            b = -b if k % 5 == 0 else b
            got = rm.cosine_from_norms(a, b, np.linalg.norm(a), np.linalg.norm(b))
            assert got == clipped_cosine(a, b)

    @pytest.mark.parametrize("zero", ["a", "b", "both"])
    def test_all_zero_row_scores_zero(self, zero):
        row = np.array([0.2, 0.5, 0.3])
        a = np.zeros(3) if zero in ("a", "both") else row
        b = np.zeros(3) if zero in ("b", "both") else row
        assert rm.cosine_from_norms(a, b, np.linalg.norm(a), np.linalg.norm(b)) == 0.0

    @pytest.mark.parametrize("n_rows", [0, 1, 4, 9, 17])
    def test_mean_dissimilarity_bits(self, n_rows):
        # past eight rows numpy's mean sums pairwise; the kernel keeps its order
        rng = rng_stream(8, "dissim", n_rows)
        cand = rng.random(30)
        rows = list(rng.random((n_rows, 30)))
        if n_rows:
            rows[0] = np.zeros(30)
        want = float(np.mean([1.0 - (clipped_cosine(r, cand) if r.any() else 0.0) for r in rows])) \
            if rows else 0.0
        got = rm.mean_dissimilarity(cand, np.linalg.norm(cand), rows, [np.linalg.norm(r) for r in rows])
        assert got == want

    def test_all_zero_candidate_is_one_from_every_row(self):
        rows = [np.array([0.4, 0.1, 0.5]), np.zeros(3)]
        assert rm.mean_dissimilarity(np.zeros(3), 0.0, rows, [np.linalg.norm(r) for r in rows]) == 1.0


class TestSimilarityGain:
    def test_identical_rows(self):
        row = np.array([0.2, 0.5, 0.3])
        assert cosine(row, row) == pytest.approx(1.0, abs=1e-12)

    def test_anti_proportional(self):
        row = np.array([0.2, 0.5, 0.3])
        assert cosine(row, -2.0 * row) == pytest.approx(-1.0, abs=1e-12)

    def test_independent_scalar_oracle(self):
        a = [0.2, 0.8, 0.1]
        b = [0.1, 0.9, 0.0]
        num = math.fsum(x * y for x, y in zip(a, b))
        den = math.sqrt(math.fsum(x * x for x in a)) * math.sqrt(math.fsum(y * y for y in b))
        assert cosine(a, b) == pytest.approx(num / den, abs=1e-9)

    def test_symmetric_and_scale_invariant(self):
        rng = rng_stream(1, "sim")
        for _ in range(100):
            a, b = rng.normal(size=(2, 6))
            c = rng.random() * 5 + 0.1
            assert cosine(a, b) == pytest.approx(cosine(b, a), abs=1e-12)
            assert cosine(a, c * b) == pytest.approx(cosine(a, b), abs=1e-9)


    def test_zero_row_is_zero(self):
        row = np.array([0.2, 0.5, 0.3])
        assert cosine(np.zeros(3), row) == 0.0
        assert cosine(row, np.zeros(3)) == 0.0


class TestDiversityGain:
    def test_empty_selection_is_zero(self):
        assert dissimilarity(np.ones(3), []) == 0.0

    def test_self_selection_is_zero(self):
        row = np.array([0.4, 0.1, 0.5])
        assert dissimilarity(row, [row]) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_selection_is_one(self):
        assert dissimilarity(np.array([1.0, 0.0]), [np.array([0.0, 1.0])]) == pytest.approx(1.0)

    def test_zero_row_counts_as_orthogonal(self):
        row = np.array([0.4, 0.1, 0.5])
        assert dissimilarity(np.zeros(3), [row, row]) == 1.0
        assert dissimilarity(row, [np.zeros(3), row]) == pytest.approx(0.5, abs=1e-12)

    def test_order_invariant_and_bounded(self):
        rng = rng_stream(2, "div")
        for _ in range(50):
            cand = rng.normal(size=5)
            rows = list(rng.normal(size=(4, 5)))
            fwd = dissimilarity(cand, rows)
            rev = dissimilarity(cand, rows[::-1])
            assert fwd == pytest.approx(rev, abs=1e-12)
            assert 0.0 <= fwd <= 2.0


class TestIntrinsicReward:
    def test_zero_coefficients(self):
        assert rm.intrinsic_reward(0.37, 0.9, 0.4, 0.0, 0.0) == 0.37

    def test_arithmetic(self):
        assert rm.intrinsic_reward(0.5, 1.0, 0.0, 2.0, 0.0) == pytest.approx(2.5, abs=1e-12)

    def test_arithmetic_two_terms(self):
        assert rm.intrinsic_reward(0.4, 0.8, 0.3, 1.0, 0.1) == pytest.approx(1.23, abs=1e-12)

    def test_linear_in_coefficients(self):
        # superposition: f(a+b) = f(a) + f(b) - f(0) for the coefficient terms
        base = rm.intrinsic_reward(0.2, 0.37, 0.81, 0.0, 0.0)
        fa = rm.intrinsic_reward(0.2, 0.37, 0.81, 1.5, 0.0)
        fb = rm.intrinsic_reward(0.2, 0.37, 0.81, 0.0, 0.7)
        fab = rm.intrinsic_reward(0.2, 0.37, 0.81, 1.5, 0.7)
        assert fab == pytest.approx(fa + fb - base, abs=1e-12)


class TestShapeReward:
    def test_single(self):
        assert rm.shape_reward([0.5]) == 0.5

    def test_three(self):
        assert rm.shape_reward([0.2, 0.4, 0.6]) == pytest.approx(0.4, abs=1e-12)

    def test_matches_fsum_oracle(self):
        vals = rng_stream(3, "shape").random(20).tolist()
        assert rm.shape_reward(vals) == pytest.approx(math.fsum(vals) / 20, abs=1e-12)

    def test_permutation_invariant_and_bounded(self):
        vals = rng_stream(4, "shape").random(9)
        a = rm.shape_reward(vals)
        b = rm.shape_reward(vals[::-1])
        assert a == pytest.approx(b, abs=1e-12)
        assert vals.min() <= a <= vals.max()

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            rm.shape_reward([])


class TestDynamicUncertainty:
    def test_no_change_is_zero(self):
        assert rm.dynamic_uncertainty(0.4, 0.4, 0.9, 0.1) == 0.0

    def test_arithmetic(self):
        assert rm.dynamic_uncertainty(0.8, 0.5, 0.4, 0.2) == pytest.approx(0.5, abs=1e-12)

    def test_clamped_denominator(self):
        eps = 1e-6
        val = rm.dynamic_uncertainty(0.8, 0.5, -0.3, 0.1, eps)
        assert val == pytest.approx(0.3 / eps, rel=1e-12)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = rng_stream(5, "dyn")
        for _ in range(100):
            r_new, r_prev, s, dgain = rng.normal(size=4)
            v = rm.dynamic_uncertainty(r_new, r_prev, s, dgain)
            assert v >= 0.0
            assert (v == 0.0) == (r_new == r_prev)


class TestRecommenderReward:
    def test_zero_coefficients(self):
        assert rm.recommender_reward(0.8, 5.0, -3.0, 0.0, 0.0) == 0.8

    def test_arithmetic(self):
        assert rm.recommender_reward(0.8, 0.5, -0.69, 0.1, 0.1) == pytest.approx(0.681, abs=1e-12)

    def test_matches_scalar_oracle(self):
        rng = rng_stream(6, "rec")
        for _ in range(100):
            r, pu, pe, lu, le = rng.normal(size=5)
            oracle = math.fsum([r, -abs(lu) * pu, abs(le) * pe])
            assert rm.recommender_reward(r, pu, pe, abs(lu), abs(le)) == pytest.approx(
                oracle, abs=1e-12
            )

    def test_linear_in_coefficients(self):
        base = rm.recommender_reward(0.3, 0.7, -0.2, 0.0, 0.0)
        fu = rm.recommender_reward(0.3, 0.7, -0.2, 0.4, 0.0)
        fe = rm.recommender_reward(0.3, 0.7, -0.2, 0.0, 0.9)
        both = rm.recommender_reward(0.3, 0.7, -0.2, 0.4, 0.9)
        assert both == pytest.approx(fu + fe - base, abs=1e-12)
