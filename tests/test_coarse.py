"""Distance-formula arithmetic: thresholds, horoball distances, sandwiches."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stathyp import coarse
from stathyp.errors import DomainError, ParameterError
from stathyp.rng import CHUNK


# Scalar reference formulas in plain ``math``, one pair at a time.

def ref_log_plus(a):
    return 0.0 if a <= 1.0 else math.log(a)


def ref_threshold(value, m0):
    return value if value >= m0 else 0.0


def ref_horoball_distance(l_x, l_y, d_c):
    h1, h2 = max(1.0, 1.0 / l_x), max(1.0, 1.0 / l_y)
    s1, s2 = math.sqrt(h1), math.sqrt(h2)
    return 2.0 * math.asinh(0.5 * math.hypot(d_c / s1 / s2, (h2 - h1) / s1 / s2))


def ref_log_max_proxy(l_x, l_y, d_c):
    return max(ref_log_plus(d_c), ref_log_plus(1.0 / l_x), ref_log_plus(1.0 / l_y))


def ref_twist_only_distance(d_c):
    return 2.0 * math.asinh(0.5 * d_c)


def terms(pairs):
    """The horoball distances and log-max proxies the two checks take."""
    return coarse.horoball_distance(pairs), coarse.log_max_proxy(pairs)


class TestLogPlus:
    def test_examples(self):
        assert coarse.log_plus(0.5) == 0.0
        assert coarse.log_plus(1.0) == 0.0
        assert coarse.log_plus(math.e) == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            coarse.log_plus(-0.1)

    @given(st.floats(min_value=0.0, max_value=1e300))
    def test_nonnegative_and_flat_below_one(self, a):
        v = coarse.log_plus(a)
        assert v >= 0.0
        if a <= 1.0:
            assert v == 0.0
        else:
            assert v == math.log(a)


class TestThreshold:
    def test_examples(self):
        assert coarse.threshold(5.0, 10.0) == 0.0
        assert coarse.threshold(15.0, 10.0) == 15.0
        assert coarse.threshold(10.0, 10.0) == 10.0

    @given(st.floats(min_value=0, max_value=1e300),
           st.floats(min_value=1e-300, max_value=1e300))
    def test_pass_through_or_zero(self, value, m0):
        assert coarse.threshold(value, m0) == (value if value >= m0 else 0.0)

    def test_rejects_bad_m0(self):
        with pytest.raises(ParameterError):
            coarse.threshold(1.0, 0.0)


class TestHoroballDistance:
    def test_identical_projections(self):
        assert coarse.horoball_distance(coarse.HoroballPair(1.0, 1.0, 0.0)) == 0.0

    def test_vertical(self):
        # (0, e^5) to (0, 1) along the imaginary axis
        pair = coarse.HoroballPair(math.exp(-5.0), 1.0, 0.0)
        assert coarse.horoball_distance(pair) == pytest.approx(5.0, abs=1e-12)

    def test_horizontal_arccosh(self):
        pair = coarse.HoroballPair(1.0, 1.0, 2.0)
        assert coarse.horoball_distance(pair) == pytest.approx(math.acosh(3.0), abs=1e-12)

    def test_matches_naive_formula_in_safe_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            lx, ly = math.exp(rng.uniform(-5, 1)), math.exp(rng.uniform(-5, 1))
            dc = math.exp(rng.uniform(-3, 4))
            pair = coarse.HoroballPair(lx, ly, dc)
            h1, h2 = max(1, 1 / lx), max(1, 1 / ly)
            naive = math.acosh(1 + (dc ** 2 + (h2 - h1) ** 2) / (2 * h1 * h2))
            assert coarse.horoball_distance(pair) == pytest.approx(naive, rel=1e-9)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(DomainError):
            coarse.HoroballPair(0.0, 1.0, 0.0)


class TestLogMaxProxy:
    def test_length_term_dominates(self):
        assert coarse.log_max_proxy(coarse.HoroballPair(math.exp(-5), 1.0, 0.0)) == pytest.approx(5.0)

    def test_twist_term_dominates(self):
        assert coarse.log_max_proxy(coarse.HoroballPair(1.0, 1.0, math.exp(3))) == pytest.approx(3.0)

    def test_all_terms_vanish(self):
        assert coarse.log_max_proxy(coarse.HoroballPair(1.0, 1.0, 0.5)) == 0.0


class TestMaxLogIdentity:
    def test_all_zero(self):
        lhs, rhs, ok = coarse.max_log_identity(0.0, 0.0, 0.0, math.e ** 2)
        assert (lhs, rhs, ok) == (0.0, 0.0, True)

    def test_single_active_term(self):
        lhs, rhs, ok = coarse.max_log_identity(math.e ** 5, 0.0, 0.0, math.e ** 2)
        assert lhs == pytest.approx(5.0)
        assert rhs == pytest.approx(5.0)
        assert ok

    @given(st.tuples(*[st.floats(min_value=0, max_value=1e280)] * 3))
    def test_factor_three_property(self, fgh):
        f, g, h = fgh
        _, _, ok = coarse.max_log_identity(f, g, h, math.e ** 3)
        assert ok

    def test_sweep_no_failures(self):
        rng = np.random.default_rng(7)
        m0 = math.e ** 3
        for _ in range(20000):
            f, g, h = np.exp(rng.uniform(-7, 20, size=3))
            assert coarse.max_log_identity(f, g, h, m0)[2]


class TestSandwiches:
    def test_proxy_sandwich_above_floor(self):
        eps0 = math.exp(-10.0)
        floor = coarse.threshold_floor(eps0)
        assert floor == pytest.approx(360.0)
        pairs = coarse.random_pairs(20000, seed=3, eps0=eps0)
        d, p = terms(pairs)
        above = np.maximum(d, p) >= floor
        tested = np.count_nonzero(above)
        assert np.all(coarse.proxy_sandwich_holds(d, p)[above])
        assert np.all(coarse.proxy_sandwich_holds(d, p, floor))
        assert tested > 1000  # the generator must actually reach the regime

    def test_twist_log_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(20000):
            d_c = math.exp(rng.uniform(-5.0, 300.0))
            b = coarse.twist_only_distance(d_c)
            if b >= 3.0 or d_c >= 3.0:
                lp = coarse.log_plus(d_c)
                assert lp <= b + 1e-12
                assert b <= 4.0 * lp + 1e-12

    def test_chain_inequality(self):
        eps0 = math.exp(-10.0)
        m0 = 400.0
        assert m0 >= coarse.threshold_floor(eps0)
        for seed in range(300):
            pairs = coarse.random_pairs(40, seed=seed, eps0=eps0)
            assert coarse.chain_inequality_holds(*terms(pairs), m0)


class TestArrayForms:
    """Batch arithmetic against the scalar references, extremes included."""

    @staticmethod
    def extreme_batch(n=10_000):
        rng = np.random.default_rng(17)
        l_x = np.exp(rng.uniform(-600.0, 0.0, n))
        l_y = np.exp(rng.uniform(-600.0, 0.0, n))
        d_c = np.where(rng.uniform(size=n) < 0.25, 0.0, np.exp(rng.uniform(-600.0, 600.0, n)))
        lengths = (math.exp(-600.0), math.exp(-300.0), 1e-5, 1.0)
        twists = (0.0, math.exp(-600.0), 1.0, 2.0, math.exp(600.0))
        corners = list(itertools.product(lengths, lengths, twists))
        l_x[:len(corners)], l_y[:len(corners)], d_c[:len(corners)] = zip(*corners)
        return coarse.HoroballPair(l_x, l_y, d_c)

    def test_distances_match_reference(self):
        pairs = self.extreme_batch()
        rows = list(zip(pairs.l_x.tolist(), pairs.l_y.tolist(), pairs.d_c.tolist()))
        for fn, ref in ((coarse.horoball_distance, ref_horoball_distance),
                        (coarse.log_max_proxy, ref_log_max_proxy)):
            expected = np.array([ref(*row) for row in rows])
            np.testing.assert_allclose(fn(pairs), expected, rtol=1e-12, atol=0.0)
        expected = np.array([ref_twist_only_distance(d) for d in pairs.d_c.tolist()])
        np.testing.assert_allclose(coarse.twist_only_distance(pairs.d_c), expected,
                                   rtol=1e-12, atol=0.0)

    def test_scalar_pair_matches_batch(self):
        pairs = self.extreme_batch(200)
        for i in range(len(pairs)):
            pair = coarse.HoroballPair(float(pairs.l_x[i]), float(pairs.l_y[i]),
                                       float(pairs.d_c[i]))
            assert coarse.horoball_distance(pair) == coarse.horoball_distance(pairs)[i]
            assert coarse.log_max_proxy(pair) == coarse.log_max_proxy(pairs)[i]

    def test_log_plus_and_threshold_exact(self):
        pairs = self.extreme_batch()
        values = np.concatenate([pairs.d_c, 1.0 / pairs.l_x, 1.0 / pairs.l_y,
                                 coarse.horoball_distance(pairs)])
        np.testing.assert_array_equal(coarse.log_plus(values),
                                      [ref_log_plus(v) for v in values.tolist()])
        for m0 in (1e-3, 1.0, 360.0, 2400.0):
            np.testing.assert_array_equal(coarse.threshold(values, m0),
                                          [ref_threshold(v, m0) for v in values.tolist()])

    @pytest.mark.parametrize("field,bad", [("l_x", math.nan), ("l_y", -1e-3),
                                           ("d_c", math.nan), ("d_c", -2.0),
                                           ("l_x", 0.0), ("d_c", math.inf)])
    def test_bad_field_in_batch_raises(self, field, bad):
        pairs = self.extreme_batch(100)
        fields = {"l_x": pairs.l_x.copy(), "l_y": pairs.l_y.copy(), "d_c": pairs.d_c.copy()}
        fields[field][57] = bad
        with pytest.raises(DomainError):
            coarse.HoroballPair(**fields)

    def test_log_plus_rejects_negative_element(self):
        with pytest.raises(DomainError):
            coarse.log_plus(np.array([2.0, 0.5, -1e-300, 4.0]))

    def test_batch_shape(self):
        pairs = coarse.HoroballPair(np.array([1e-5, 1e-5, 1.0]), np.array([1e-5, 1.0, 1e-5]),
                                    np.zeros(3))
        assert len(pairs) == 3
        with pytest.raises(ParameterError):
            coarse.HoroballPair(np.ones(3), np.ones(2), np.zeros(3))

    def test_chain_profiles_match_single_calls(self):
        eps0 = math.exp(-10.0)
        drawn = coarse.random_pairs(4 * 40 + 7, seed=5, eps0=eps0)
        l_x, l_y, d_c = drawn.l_x.copy(), drawn.l_y.copy(), drawn.d_c.copy()
        # doubly short curves with no twist: proxy 11.5 against distance 0,
        # which breaks the chain of profile 2 at a low threshold
        l_x[80:120], l_y[80:120], d_c[80:120] = 1e-5, 1e-5, 0.0
        pairs = coarse.HoroballPair(l_x, l_y, d_c)
        for m0, expected in ((400.0, [True] * 5), (1.0, [True, True, False, True, True])):
            verdicts = coarse.chain_inequality_holds(*terms(pairs), m0, profile_size=40)
            assert verdicts.tolist() == expected
            for k, verdict in enumerate(verdicts):
                part = slice(40 * k, 40 * (k + 1))
                one = coarse.HoroballPair(l_x[part], l_y[part], d_c[part])
                assert verdict == coarse.chain_inequality_holds(*terms(one), m0)


class TestRandomPairs:
    def test_prefix_stable_across_chunk_boundary(self):
        # pair j depends only on (seed, j), as for every sampler in the package
        eps0 = math.exp(-10.0)
        for n_more, n_fewer in ((CHUNK + 7, CHUNK + 1), (100, 50)):
            more = coarse.random_pairs(n_more, seed=21, eps0=eps0)
            fewer = coarse.random_pairs(n_fewer, seed=21, eps0=eps0)
            assert (len(more), len(fewer)) == (n_more, n_fewer)
            for name in ("l_x", "l_y", "d_c"):
                np.testing.assert_array_equal(getattr(more, name)[:n_fewer],
                                              getattr(fewer, name))

    def test_first_chunk_draws_a_later_run(self):
        eps0 = math.exp(-10.0)
        whole = coarse.random_pairs(CHUNK + 30, seed=4, eps0=eps0)
        tail = coarse.random_pairs(30, seed=4, eps0=eps0, first=1)
        for name in ("l_x", "l_y", "d_c"):
            np.testing.assert_array_equal(getattr(whole, name)[CHUNK:], getattr(tail, name))

    def test_off_the_doubly_short_set(self):
        eps0 = math.exp(-10.0)
        pairs = coarse.random_pairs(5000, seed=2, eps0=eps0)
        assert not np.any((pairs.l_x < eps0) & (pairs.l_y < eps0))
        assert 0.2 < np.mean(pairs.d_c == 0.0) < 0.3
