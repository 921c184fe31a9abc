"""AR model tests against companion-form and closed-form references."""

import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_lyapunov, solve_toeplitz
from scipy.optimize import least_squares, minimize
from scipy.signal import lfilter, lfiltic

from sdpkit import armodel, storage
from sdpkit.armodel import AcfSeries, ARModel


def oracle_acf(phi, max_lag):
    """Reference autocorrelations via the companion-form Lyapunov equation.

    For state z_t = (x_t, ..., x_{t-p+1}) the stationary covariance S
    solves S = A S A^T + B, and gamma(k) = (A^k S)[0, 0].  This route
    shares nothing with the order-p linear system used by the library.
    """
    coeffs = np.atleast_1d(np.asarray(phi, dtype=np.float64))
    p = coeffs.size
    companion = np.zeros((p, p))
    companion[0, :] = coeffs
    if p > 1:
        companion[1:, :-1] = np.eye(p - 1)
    noise_cov = np.zeros((p, p))
    noise_cov[0, 0] = 1.0
    cov = solve_discrete_lyapunov(companion, noise_cov)
    out = np.empty(max_lag + 1)
    power = np.eye(p)
    for k in range(max_lag + 1):
        out[k] = (power @ cov)[0, 0]
        power = companion @ power
    return out / out[0]


def pxp_acf_head(phi):
    """rho(0..p) from the order-p linear system, as theoretical_acf solves it."""
    p = len(phi)
    a = np.eye(p)
    rhs = np.zeros(p)
    for k in range(1, p + 1):
        for j in range(1, p + 1):
            lag = abs(k - j)
            if lag == 0:
                rhs[k - 1] += phi[j - 1]
            else:
                a[k - 1, lag - 1] -= phi[j - 1]
    return np.concatenate([[1.0], np.linalg.solve(a, rhs)])


def exact_acf_tail(phi, head, max_lag):
    """rho(0..max_lag) extended exactly from the float head, and a rounding-error bound per lag.

    The recursion rho(k) = sum_j phi_j rho(k - j) runs in rationals from
    the same float phi and head.  A floating-point run of it, summing the
    p products in any order, stays within e_k of the exact values, with
    e_k = 0 on the head and
    e_k = sum_j |phi_j| e_{k-j} + gamma_{p+1} sum_j |phi_j| (|rho_{k-j}| + e_{k-j}) + p eta,
    gamma_n = n u / (1 - n u) for the unit roundoff u, and eta the smallest
    subnormal, for products that underflow (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2002, sections 2.1 and 3.1).  Each bound is
    rounded up to the next float, which keeps it a bound and the rationals
    short.
    """
    def up(bound):
        return Fraction(math.nextafter(float(bound), math.inf))

    coeffs = [Fraction(c) for c in phi]
    unit = (len(coeffs) + 1) * Fraction(1, 2**53)
    gamma = up(unit / (1 - unit))
    underflow = len(coeffs) * Fraction(1, 2**1074)
    rho = [Fraction(h) for h in head]
    err = [Fraction(0)] * len(rho)
    for k in range(len(head), max_lag + 1):
        lagged = [(up(abs(c)), up(abs(rho[k - j])), err[k - j]) for j, c in enumerate(coeffs, start=1)]
        rho.append(sum(c * rho[k - j] for j, c in enumerate(coeffs, start=1)))
        err.append(up(sum(a * e for a, _, e in lagged) + gamma * sum(a * (r + e) for a, r, e in lagged)
                      + underflow))
    return rho, err


def filter_acf(phi, max_lag):
    """rho(0..max_lag): the p x p head extended by scipy's all-pole filter, as theoretical_acf does."""
    head = pxp_acf_head(phi)
    denom = np.concatenate([[1.0], -np.asarray(phi, dtype=np.float64)])
    state = lfiltic([1.0], denom, head[:0:-1])
    tail = lfilter([1.0], denom, np.zeros(max(max_lag - len(phi), 0)), zi=state)[0]
    return np.concatenate([head, tail])[: max_lag + 1]


def acf_criterion(phi, acf, lag_count):
    """Sum of squared autocorrelation errors over lags 1..lag_count."""
    diff = armodel.theoretical_acf(phi, lag_count).values[1:] - acf.values[1 : lag_count + 1]
    return float(diff @ diff)


def nelder_mead_fit(acf, p, lag_count):
    """The simplex search fit_multilag used before, as a reference: non-stationary points score +inf."""
    def mismatch(phi):
        return acf_criterion(phi, acf, lag_count) if armodel.is_stationary(phi) else math.inf

    start = solve_toeplitz(acf.values[:p], acf.values[1 : p + 1])
    result = minimize(mismatch, start, method="Nelder-Mead",
                      options={"maxfev": 10000, "xatol": 1e-10, "fatol": 1e-16})
    return result.x, float(result.fun)


def least_squares_criterion(acf, p, lag_count):
    """The criterion scipy's least_squares(method="lm") reaches from fit_multilag's start, as fits ran before.

    The start is the Yule-Walker point by scipy's Toeplitz solve; a search that leaves the
    stationarity region, or ends above its start, scores its start.
    """
    kappa = armodel.pacf_from_phi(solve_toeplitz(acf.values[:p], acf.values[1 : p + 1]))
    start = np.arctanh(np.where(np.abs(kappa) < 1, kappa, np.sign(kappa) * armodel.START_PACF))

    def residual(u):
        phi = armodel.phi_from_pacf(np.tanh(np.clip(u, -armodel.MAX_PACF_U, armodel.MAX_PACF_U)))
        return armodel.theoretical_acf(phi, lag_count).values[1:] - acf.values[1 : lag_count + 1]

    start_fun = residual(start)
    try:
        fun = least_squares(residual, start, method="lm").fun
    except (ValueError, np.linalg.LinAlgError):
        fun = start_fun
    return float(min(start_fun @ start_fun, fun @ fun))


def noisy_acf():
    """The ACF of AR(2) (0.7, 0.1) with N(0, 0.01) noise on lags 1..20."""
    acf = armodel.theoretical_acf((0.7, 0.1), max_lag=20)
    rng = np.random.default_rng(17)
    return AcfSeries(np.concatenate([[1.0], acf.values[1:] + rng.normal(0, 0.01, 20)]))


def ar2_stationary_variance(phi1, phi2, sigma):
    """Closed-form stationary variance of an AR(2) process."""
    return sigma**2 * (1 - phi2) / ((1 + phi2) * ((1 - phi2) ** 2 - phi1**2))


class TestSampleAcf:
    def test_alternating_series_exact(self):
        n = 64
        x = np.array([(-1.0) ** t for t in range(n)])
        acf = armodel.sample_acf(x, max_lag=3)
        assert acf.values[0] == 1.0
        assert acf.values[1] == -(n - 1) / n
        assert acf.values[2] == (n - 2) / n

    def test_white_noise_decorrelates(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=200_000)
        acf = armodel.sample_acf(x, max_lag=5)
        assert np.max(np.abs(acf.values[1:])) < 4.0 / math.sqrt(x.size)

    def test_mean_is_removed(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=5000)
        shifted = armodel.sample_acf(x + 123.0, max_lag=4)
        plain = armodel.sample_acf(x, max_lag=4)
        assert np.allclose(shifted.values, plain.values, rtol=0, atol=1e-9)

    def test_biased_estimator_is_psd(self):
        # full-N denominator keeps the acf sequence positive semidefinite
        rng = np.random.default_rng(7)
        x = rng.normal(size=40)
        acf = armodel.sample_acf(x, max_lag=20)
        full = np.concatenate([acf.values[::-1], acf.values[1:]])
        toeplitz = np.array([full[20 + i - np.arange(21)] for i in range(21)])
        assert np.linalg.eigvalsh(toeplitz).min() > -1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            armodel.sample_acf(np.ones(50), max_lag=2)  # constant
        with pytest.raises(ValueError):
            armodel.sample_acf(np.arange(10.0), max_lag=10)  # too few
        with pytest.raises(ValueError):
            armodel.sample_acf(np.arange(10.0), max_lag=0)


class TestStationarity:
    @pytest.mark.parametrize("phi,expected", [
        ((0.5,), True),
        ((1.0,), False),
        ((-0.999,), True),
        ((1.9799, -0.9879), True),
        ((1.5, -0.5), False),   # unit root
        ((0.2, 0.9), False),
        ((), True),
    ])
    def test_known_cases(self, phi, expected):
        assert armodel.is_stationary(phi) is expected

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-2.9, 2.9), st.floats(-1.4, 1.4))
    def test_ar2_triangle(self, phi1, phi2):
        # AR(2) is stationary iff |phi2| < 1 and phi2 +- phi1 < 1
        margin = min(1 - abs(phi2), 1 - (phi1 + phi2), 1 - (phi2 - phi1))
        if abs(margin) < 1e-6:
            return  # too close to the boundary for root finding
        assert armodel.is_stationary((phi1, phi2)) is (margin > 0)


class TestTheoreticalAcf:
    @pytest.mark.parametrize("phi", [
        (0.8,),
        (-0.6,),
        (0.9, -0.2),
        (1.9799, -0.9879),
        (0.4, 0.1, -0.3),
        (0.2, -0.1, 0.05, 0.3),
    ])
    def test_matches_lyapunov_oracle(self, phi):
        acf = armodel.theoretical_acf(phi, max_lag=25)
        assert np.allclose(acf.values, oracle_acf(phi, 25), rtol=1e-9, atol=1e-9)

    def test_ar1_closed_form(self):
        acf = armodel.theoretical_acf((0.7,), max_lag=6)
        assert np.allclose(acf.values, 0.7 ** np.arange(7), rtol=1e-13, atol=0)

    def test_bundled_model_first_lag(self):
        acf = armodel.theoretical_acf((1.9799, -0.9879), max_lag=1)
        # rho(1) = phi1 / (1 - phi2) for AR(2)
        assert acf.values[1] == pytest.approx(1.9799 / 1.9879, rel=1e-14)
        assert acf.values[1] == pytest.approx(0.9959756526988279, rel=1e-14)

    def test_rejects_non_stationary(self):
        with pytest.raises(ValueError):
            armodel.theoretical_acf((1.01,), max_lag=3)

    @settings(max_examples=200, deadline=None)
    @given(u=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5), max_lag=st.integers(1, 60))
    @example(u=[3.0] * 5, max_lag=27)  # near the unit root: once off by 1.008e-12 from a float reference
    def test_filter_tail_matches_scalar_recursion(self, u, max_lag):
        phi = armodel.phi_from_pacf(np.tanh(u))
        head = pxp_acf_head(phi)[: max_lag + 1]
        exact, bound = exact_acf_tail(phi, head, max_lag)
        got = armodel.theoretical_acf(phi, max_lag).values
        assert all(abs(Fraction(g) - r) <= e for g, r, e in zip(got.tolist(), exact, bound))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5), st.integers(1, 60))
    def test_head_is_the_pxp_solve_bit_for_bit(self, u, max_lag):
        phi = armodel.phi_from_pacf(np.tanh(u))
        upto = min(phi.size, max_lag)
        got = armodel.theoretical_acf(phi, max_lag).values[: upto + 1]
        assert np.array_equal(got, pxp_acf_head(phi)[: upto + 1])

    @pytest.mark.parametrize("phi", [(0.8,), (0.9, -0.2), (1.9799, -0.9879), (0.4, 0.1, -0.3)])
    def test_filter_runs_only_for_lags_beyond_the_order(self, phi):
        self.check_filter_runs_only_for_lags_beyond_the_order(phi)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5))
    @example([0.0, 0.0, 0.0])  # every coefficient zero: the tail is all zeros
    def test_filter_runs_only_for_lags_beyond_the_order_drawn(self, u):
        self.check_filter_runs_only_for_lags_beyond_the_order(tuple(armodel.phi_from_pacf(np.tanh(u))))

    @staticmethod
    def check_filter_runs_only_for_lags_beyond_the_order(phi):
        # lags up to p come from the p x p solve alone; beyond p the all-pole
        # kernel extends them as scipy's lfiltic and lfilter do, to the bit
        p = len(phi)
        for max_lag in range(1, p + 1):
            got = armodel.theoretical_acf(phi, max_lag).values
            assert np.array_equal(got, pxp_acf_head(phi)[: max_lag + 1])
        for max_lag in (*range(p + 1, p + 6), 150):
            got = armodel.theoretical_acf(phi, max_lag).values
            assert got.tobytes() == filter_acf(phi, max_lag).tobytes()


class TestPacfMaps:
    def test_known_ar2(self):
        # kappa_1 = rho(1) = phi_1 / (1 - phi_2) and kappa_2 = phi_2 for AR(2)
        kappa = armodel.pacf_from_phi((0.9, -0.2))
        assert kappa == pytest.approx([0.9 / 1.2, -0.2], rel=1e-14)
        assert armodel.phi_from_pacf(kappa) == pytest.approx([0.9, -0.2], rel=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5))
    def test_pacf_cube_maps_to_stationary_models(self, u):
        assert armodel.is_stationary(armodel.phi_from_pacf(np.tanh(u)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5))
    def test_round_trip(self, u):
        phi = armodel.phi_from_pacf(np.tanh(u))
        back = armodel.phi_from_pacf(armodel.pacf_from_phi(phi))
        assert np.max(np.abs(back - phi)) <= 1e-8

    def test_non_stationary_model_has_pacf_outside_the_unit_interval(self):
        assert np.max(np.abs(armodel.pacf_from_phi((0.2, 0.9)))) > 1.0
        assert np.max(np.abs(armodel.pacf_from_phi((1.01,)))) > 1.0


class TestFitCls:
    def test_noiseless_recursion_recovered_exactly(self):
        phi = (0.6, 0.2)
        x = np.empty(60)
        x[0], x[1] = 3.0, -2.0
        for t in range(2, x.size):
            x[t] = phi[0] * x[t - 1] + phi[1] * x[t - 2]
        fit = armodel.fit_cls(x, p=2, dt=0.1)
        assert fit.phi == pytest.approx(phi, abs=1e-8)
        assert fit.sigma_eps == pytest.approx(0.0, abs=1e-9)
        assert fit.dt == 0.1

    def test_recovers_simulated_coefficients(self):
        model = ARModel((0.9, -0.2), 1.0, 1.0)
        x = armodel.simulate(model, n=20_000, seed=12)
        fit = armodel.fit_cls(x, p=2, dt=1.0)
        assert fit.phi == pytest.approx(model.phi, abs=0.02)
        assert fit.sigma_eps == pytest.approx(1.0, abs=0.02)

    def test_white_noise_gives_near_zero_coefficient(self):
        x = np.random.default_rng(9).normal(size=50_000)
        fit = armodel.fit_cls(x, p=1, dt=1.0)
        assert abs(fit.phi[0]) < 0.02

    def test_intercept_absorbs_offset(self):
        model = ARModel((0.7,), 0.5, 1.0)
        x = armodel.simulate(model, n=10_000, seed=3)
        fit_plain = armodel.fit_cls(x, p=1, dt=1.0)
        fit_shift = armodel.fit_cls(x + 50.0, p=1, dt=1.0)
        assert fit_shift.phi == pytest.approx(fit_plain.phi, abs=1e-6)
        assert fit_shift.sigma_eps == pytest.approx(fit_plain.sigma_eps, abs=1e-6)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            armodel.fit_cls(np.arange(10.0), p=0, dt=1.0)
        with pytest.raises(ValueError):
            armodel.fit_cls(np.arange(3.0), p=2, dt=1.0)
        with pytest.raises(ValueError):
            armodel.fit_cls(np.array([1.0, np.inf, 2.0, 3.0]), p=1, dt=1.0)


class TestFitMultilag:
    def test_exact_acf_recovered(self):
        phi = (0.9, -0.2)
        acf = armodel.theoretical_acf(phi, max_lag=30)
        fitted, crit = armodel.fit_multilag(acf, p=2, lag_count=30)
        assert fitted == pytest.approx(phi, abs=1e-6)
        assert crit < 1e-12

    def test_oscillatory_model_recovered(self):
        phi = (1.9799, -0.9879)
        acf = armodel.theoretical_acf(phi, max_lag=100)
        fitted, crit = armodel.fit_multilag(acf, p=2, lag_count=100)
        assert fitted == pytest.approx(phi, abs=1e-5)
        assert crit < 1e-10

    def test_result_is_stationary_for_noisy_acf(self):
        fitted, crit = armodel.fit_multilag(noisy_acf(), p=2, lag_count=20)
        assert armodel.is_stationary(fitted)
        assert math.isfinite(crit)

    def test_longer_lag_window_changes_tradeoff(self):
        # with a mis-specified order the fit depends on the lag window
        phi = (0.5, 0.2, 0.15)
        acf = armodel.theoretical_acf(phi, max_lag=40)
        short, _ = armodel.fit_multilag(acf, p=2, lag_count=2)
        long, _ = armodel.fit_multilag(acf, p=2, lag_count=40)
        assert short != pytest.approx(long, abs=1e-6)

    def test_rejects_bad_lag_count(self):
        acf = armodel.theoretical_acf((0.5,), max_lag=5)
        with pytest.raises(ValueError):
            armodel.fit_multilag(acf, p=1, lag_count=6)
        with pytest.raises(ValueError):
            armodel.fit_multilag(acf, p=0, lag_count=3)

    def test_singular_toeplitz_block_is_a_value_error(self):
        acf = AcfSeries([1.0, 1.0, 0.3])  # rho(1) = 1: the 2x2 block [[1, 1], [1, 1]]
        with pytest.raises(ValueError, match="order 2 over 2 lags: singular"):
            armodel.fit_multilag(acf, p=2, lag_count=2)

    @pytest.mark.parametrize("acf, p, lag_count", [
        (armodel.theoretical_acf((0.9, -0.2), max_lag=30), 2, 30),
        (armodel.theoretical_acf((1.9799, -0.9879), max_lag=100), 2, 100),
        (noisy_acf(), 2, 20),
        (armodel.theoretical_acf((0.5, 0.2, 0.15), max_lag=40), 2, 2),
        (armodel.theoretical_acf((0.5, 0.2, 0.15), max_lag=40), 2, 40),
    ], ids=["exact", "oscillatory", "noisy", "misspecified-2", "misspecified-40"])
    def test_matches_the_nelder_mead_search(self, acf, p, lag_count):
        fitted, crit = armodel.fit_multilag(acf, p, lag_count)
        reference, reference_crit = nelder_mead_fit(acf, p, lag_count)
        assert crit == acf_criterion(fitted, acf, lag_count)
        assert crit <= reference_crit * (1.0 + 1e-8) + 1e-24
        assert fitted == pytest.approx(reference, abs=1e-5)

    def test_non_stationary_yule_walker_start(self):
        # rho(1) = 0.9 then rho(2) = 0.2: the lag-2 partial autocorrelation is -3.2
        acf = AcfSeries(np.array([1.0, 0.9, 0.2, 0.1, 0.0, -0.1]))
        assert not armodel.is_stationary(solve_toeplitz(acf.values[:2], acf.values[1:3]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitted, crit = armodel.fit_multilag(acf, p=2, lag_count=5)
        assert armodel.is_stationary(fitted)
        assert math.isfinite(crit)
        assert crit == acf_criterion(fitted, acf, 5)
        clipped_start = armodel.phi_from_pacf((0.9, -armodel.START_PACF))
        assert crit < acf_criterion(clipped_start, acf, 5)

    def test_a_search_that_meets_the_stationarity_boundary_goes_on(self):
        # least_squares raised at a point whose phi rounded onto the stationarity boundary, and the
        # fit returned its clipped start; a Jacobian probe there now steps backward, and a trial step
        # there is rejected
        acf = AcfSeries(np.array([1.0, -0.9, -0.8, -0.3, 0.7, 0.0, 0.9, -0.6, -0.6]))
        fitted, crit = armodel.fit_multilag(acf, p=5, lag_count=8)
        kappa = armodel.pacf_from_phi(solve_toeplitz(acf.values[:5], acf.values[1:6]))
        start = armodel.phi_from_pacf(np.where(np.abs(kappa) < 1, kappa, np.sign(kappa) * armodel.START_PACF))
        assert armodel.is_stationary(fitted)
        assert crit == acf_criterion(fitted, acf, 8)
        assert crit < acf_criterion(start, acf, 8)

    @pytest.mark.parametrize("values, p", [
        ([1.0, 0.3, -0.8, 0.4, 0.3], 4),
        ([1.0, 0.8, -0.9, 0.4, 0.7, -0.5], 4),
        ([1.0, -0.6, -0.6, -0.9, -0.6], 4),
    ])
    def test_boundary_optimum_of_a_non_psd_acf(self, values, p):
        # no stationary model reaches these: the search drives several kappa to the clip
        acf = AcfSeries(np.array(values))
        lag_count = acf.max_lag
        fitted, crit = armodel.fit_multilag(acf, p, lag_count)
        assert armodel.is_stationary(fitted)
        assert crit == acf_criterion(fitted, acf, lag_count)
        kappa = armodel.pacf_from_phi(solve_toeplitz(acf.values[:p], acf.values[1 : p + 1]))
        start = armodel.phi_from_pacf(np.where(np.abs(kappa) < 1, kappa, np.sign(kappa) * armodel.START_PACF))
        assert crit <= acf_criterion(start, acf, lag_count)


@pytest.fixture(scope="module")
def bundled_model_acfs():
    """Sample ACFs (150 lags) of the 10k-step series of seeds 1-3, as `sdpkit fit` sees them."""
    model = storage.bundled_speed_model()
    return [armodel.sample_acf(armodel.simulate(model, 10_000, seed), 150)
            for seed in (1, 2, 3)]


class TestFitMultilagOracle:
    @pytest.mark.parametrize("index", [0, 1, 2], ids=["seed1", "seed2", "seed3"])
    def test_no_point_of_a_brute_force_grid_scores_lower(self, bundled_model_acfs, index):
        acf = bundled_model_acfs[index]
        fitted, crit = armodel.fit_multilag(acf, p=2, lag_count=150)
        assert armodel.is_stationary(fitted)
        offsets = np.linspace(-1e-4, 1e-4, 21)
        grid_min = min(acf_criterion((fitted[0] + d1, fitted[1] + d2), acf, 150)
                       for d1 in offsets for d2 in offsets)
        assert crit <= grid_min
        yule_walker = solve_toeplitz(acf.values[:2], acf.values[1:3])
        assert crit <= acf_criterion(yule_walker, acf, 150)

    @settings(max_examples=100, deadline=None)
    @given(u=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=4), n=st.integers(5000, 20000),
           lag_count=st.integers(4, 100), seed=st.integers(0, 2**32 - 1))
    def test_no_worse_than_least_squares_from_the_same_start(self, u, n, lag_count, seed):
        # Stationary AR(p), p = 1..4, with partial autocorrelations tanh(u), |tanh(u)| <= 0.905, and the
        # sample ACF of a series half to twice as long as the acceptance series (a fixed burn-in: the
        # default one grows without bound near a unit root).  On shorter series, or nearer the unit
        # circle, order 3-4 criteria can have several basins or narrow valleys that both searches crawl
        # to the evaluation cap; there the two, parted by rounding, may end either side of each other.
        model = ARModel(tuple(armodel.phi_from_pacf(np.tanh(u))), 1.0, 1.0)
        acf = armodel.sample_acf(armodel.simulate(model, n, seed, burn_in=1000), lag_count)
        fitted, crit = armodel.fit_multilag(acf, len(u), lag_count)
        assert armodel.is_stationary(fitted)
        assert crit == acf_criterion(fitted, acf, lag_count)
        assert crit <= least_squares_criterion(acf, len(u), lag_count) * (1.0 + 1e-8) + 1e-24

    def test_few_residual_evaluations(self, bundled_model_acfs, monkeypatch):
        calls = []
        real = armodel.theoretical_acf

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(armodel, "theoretical_acf", counted)
        for acf in bundled_model_acfs:
            calls.clear()
            armodel.fit_multilag(acf, p=2, lag_count=150)
            assert len(calls) <= 50


class TestInnovationStd:
    def test_ar1_closed_form(self):
        acf = armodel.theoretical_acf((0.8,), max_lag=1)
        out = armodel.innovation_std_from_acf((0.8,), 1.0, acf)
        assert out == pytest.approx(0.6, rel=1e-12)

    def test_consistency_with_stationary_moments(self):
        model = ARModel((1.9799, -0.9879), 0.00347, 0.1)
        std_x, _ = armodel.stationary_moments(model)
        acf = armodel.theoretical_acf(model.phi, max_lag=2)
        back = armodel.innovation_std_from_acf(model.phi, std_x**2, acf)
        assert back == pytest.approx(model.sigma_eps, rel=1e-10)

    def test_rejects_negative_radicand(self):
        bad = AcfSeries(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            armodel.innovation_std_from_acf((0.9,), 1.0, bad)


class TestSimulate:
    def test_deterministic_in_seed(self):
        model = armodel.ARModel((0.7,), 1.0, 1.0)
        a = armodel.simulate(model, n=500, seed=21)
        b = armodel.simulate(model, n=500, seed=21)
        c = armodel.simulate(model, n=500, seed=22)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_zero_noise_is_identically_zero(self):
        model = armodel.ARModel((0.9, -0.2), 0.0, 1.0)
        x = armodel.simulate(model, n=100, seed=0)
        assert np.array_equal(x, np.zeros(100))

    def test_variance_matches_stationary_moments(self):
        model = armodel.ARModel((0.9, -0.2), 1.0, 1.0)
        std_x, _ = armodel.stationary_moments(model)
        x = armodel.simulate(model, n=400_000, seed=33)
        assert np.std(x) == pytest.approx(std_x, rel=0.02)

    def test_burn_in_override(self):
        model = armodel.ARModel((0.7,), 1.0, 1.0)
        x = armodel.simulate(model, n=10, seed=1, burn_in=0)
        rng = np.random.default_rng(1)
        eps = rng.normal(0.0, 1.0, size=10)
        manual = np.empty(10)
        prev = 0.0
        for t in range(10):
            manual[t] = 0.7 * prev + eps[t]
            prev = manual[t]
        assert np.allclose(x, manual, rtol=1e-14, atol=0)

    @settings(max_examples=100, deadline=None)
    @given(u=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5),
           sigma=st.one_of(st.just(0.0), st.floats(0.0, 1e3)), n=st.integers(1, 100_000),
           default_burn_in=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(u=[0.0, 0.0], sigma=1.0, n=10, default_burn_in=True, seed=0)  # white noise: no burn-in
    @example(u=[2.5, -2.0, 1.0], sigma=2.0, n=100_000, default_burn_in=False, seed=5)
    def test_matches_scipy_lfilter_to_the_bit(self, u, sigma, n, default_burn_in, seed):
        phi = armodel.phi_from_pacf(np.tanh(u))
        burn_in = armodel._default_burn_in(phi) if default_burn_in else 0
        assume(n + burn_in <= 100_000)
        got = armodel.simulate(ARModel(tuple(phi), sigma, 0.1), n, seed, None if default_burn_in else 0)
        eps = np.random.default_rng(seed).normal(0.0, sigma, size=n + burn_in)
        want = lfilter([1.0], np.concatenate([[1.0], -phi]), eps)[burn_in:]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_default_burn_in_above_the_cap_raises_before_drawing(self, monkeypatch):
        # ten slowest characteristic times of this AR(4) are 6.6e11 steps, far more than memory holds
        model = ARModel(tuple(armodel.phi_from_pacf(np.tanh([3.2] * 4))), 1.0, 0.1)
        assert armodel._default_burn_in(model.phi) > 1e11
        monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("innovations were drawn"))
        with pytest.raises(ValueError, match=r"^slowest characteristic time 6\.\d+e\+10 steps: .* exceeds 2000000$"):
            armodel.simulate(model, n=10, seed=0)

    def test_an_explicit_burn_in_is_not_capped(self, monkeypatch):
        model = ARModel((0.9,), 1.0, 1.0)
        burn_in = armodel._default_burn_in(model.phi)  # 95 steps
        want = armodel.simulate(model, n=10, seed=4)
        monkeypatch.setattr(armodel, "MAX_DEFAULT_BURN_IN", burn_in - 1)
        with pytest.raises(ValueError, match=f"default burn-in of {burn_in} steps exceeds {burn_in - 1}$"):
            armodel.simulate(model, n=10, seed=4)
        assert armodel.simulate(model, n=10, seed=4, burn_in=burn_in).tobytes() == want.tobytes()

    def test_rejects_non_stationary_default_burn_in(self):
        with pytest.raises(ValueError):
            armodel.simulate(armodel.ARModel((1.2,), 1.0, 1.0), n=10, seed=0)

    def test_rejects_bad_args(self):
        model = armodel.ARModel((0.5,), 1.0, 1.0)
        with pytest.raises(ValueError):
            armodel.simulate(model, n=0, seed=0)
        with pytest.raises(ValueError):
            armodel.simulate(model, n=10, seed=0, burn_in=-1)


class TestStateSpace:
    def test_transition_entries(self):
        model = armodel.ARModel((1.9799, -0.9879), 0.00347, 0.1)
        t = armodel.to_state_space(model)
        assert t.shape == (2, 2)
        assert t[0, 0] == pytest.approx(0.992, rel=1e-12)
        assert t[0, 1] == pytest.approx(0.09879, rel=1e-12)
        assert t[1, 0] == pytest.approx(-0.08, rel=1e-9)
        assert t[1, 1] == pytest.approx(0.9879, rel=1e-12)

    def test_step_reproduces_scalar_recursion(self):
        model = armodel.ARModel((0.9, -0.5), 1.0, 0.25)
        t = armodel.to_state_space(model)
        g = (1.0, 1.0 / model.dt)  # the innovation drives the value once and the difference per dt
        rng = np.random.default_rng(8)
        eps = rng.normal(size=200)
        x_prev, x_cur = 0.3, -0.1
        value, diff = x_cur, (x_cur - x_prev) / model.dt
        for e in eps:
            x_next = model.phi[0] * x_cur + model.phi[1] * x_prev + e
            value, diff = t[0, 0] * value + t[0, 1] * diff + g[0] * e, t[1, 0] * value + t[1, 1] * diff + g[1] * e
            assert value == pytest.approx(x_next, rel=1e-10, abs=1e-12)
            assert diff == pytest.approx((x_next - x_cur) / model.dt, rel=1e-9, abs=1e-9)
            x_prev, x_cur = x_cur, x_next

    def test_rejects_wrong_order(self):
        with pytest.raises(ValueError):
            armodel.to_state_space(armodel.ARModel((0.5,), 1.0, 1.0))

    def test_transition_is_frozen(self):
        t = armodel.to_state_space(armodel.ARModel((0.5, 0.1), 1.0, 1.0))
        with pytest.raises(ValueError):
            t[0, 0] = 0.0


class TestStationaryMoments:
    def test_ar1_closed_form(self):
        std_x, std_diff = armodel.stationary_moments(armodel.ARModel((0.5,), 1.0, 1.0))
        assert std_x == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-13)
        assert std_diff == pytest.approx(math.sqrt(2 * (4 / 3) * 0.5), rel=1e-13)

    def test_ar2_closed_form(self):
        phi1, phi2, sigma, dt = 0.6, 0.2, 0.8, 0.5
        model = armodel.ARModel((phi1, phi2), sigma, dt)
        std_x, std_diff = armodel.stationary_moments(model)
        gamma0 = ar2_stationary_variance(phi1, phi2, sigma)
        rho1 = phi1 / (1 - phi2)
        assert std_x == pytest.approx(math.sqrt(gamma0), rel=1e-12)
        assert std_diff == pytest.approx(math.sqrt(2 * gamma0 * (1 - rho1)) / dt, rel=1e-12)

    def test_bundled_model_values(self):
        model = armodel.ARModel((1.9799, -0.9879), 0.00347, 0.1)
        std_x, std_diff = armodel.stationary_moments(model)
        gamma0 = ar2_stationary_variance(1.9799, -0.9879, 0.00347)
        assert std_x == pytest.approx(math.sqrt(gamma0), rel=1e-12)
        assert std_x == pytest.approx(0.2496400014603404, rel=1e-13)
        assert std_diff == pytest.approx(0.22396332213051348, rel=1e-13)

    def test_rejects_non_stationary(self):
        with pytest.raises(ValueError):
            armodel.stationary_moments(armodel.ARModel((1.1,), 1.0, 1.0))


class TestModelValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            armodel.ARModel((0.5,), -1.0, 1.0)
        with pytest.raises(ValueError):
            armodel.ARModel((0.5,), 1.0, 0.0)
        with pytest.raises(ValueError):
            armodel.ARModel((np.nan,), 1.0, 1.0)

    def test_acfseries_must_start_at_one(self):
        with pytest.raises(ValueError):
            AcfSeries(np.array([0.99, 0.5]))


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        model = armodel.ARModel((1.9799, -0.9879), 0.00347, 0.1)
        path = tmp_path / "model.json"
        armodel.save_ar_model(model, path)
        back, fit = armodel.load_ar_model(path)
        assert back == model
        assert fit is None

    def test_roundtrip_with_provenance(self, tmp_path):
        model = armodel.ARModel((0.5,), 1.0, 1.0)
        prov = {"method": "multilag", "lag_count": 40, "criterion": 1.5e-9}
        path = tmp_path / "model.json"
        armodel.save_ar_model(model, path, provenance=prov)
        back, fit = armodel.load_ar_model(path)
        assert back == model
        assert fit == prov

    def test_rejects_inconsistent_order(self, tmp_path):
        path = tmp_path / "model.json"
        armodel.save_ar_model(armodel.ARModel((0.5, 0.2), 1.0, 1.0), path)
        doc = path.read_text().replace('"p": 2', '"p": 3')
        path.write_text(doc)
        with pytest.raises(ValueError, match="declared order"):
            armodel.load_ar_model(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{{{{")
        with pytest.raises(ValueError, match="corrupt"):
            armodel.load_ar_model(path)

    @pytest.mark.parametrize("doc, message", [
        ([], "not a JSON object"),
        ("armodel-v1", "not a JSON object"),
        ({"format": "armodel-v1"}, r"lacks the field\(s\) p, phi, sigma_eps, dt$"),
        ("p", r"lacks the field\(s\) p$"),
        ("phi", r"lacks the field\(s\) phi$"),
        ("sigma_eps", r"lacks the field\(s\) sigma_eps$"),
        ("dt", r"lacks the field\(s\) dt$"),
        ({"phi": 0.5}, "malformed field"),
        ({"sigma_eps": None}, "malformed field"),
        ({"p": None}, "malformed field"),
    ], ids=["list", "string", "format-only", "no-p", "no-phi", "no-sigma_eps", "no-dt",
            "number-phi", "null-sigma_eps", "null-p"])
    def test_rejects_malformed_document(self, tmp_path, doc, message):
        """A non-object, a document without the field named by ``doc``, or one with ``doc``'s fields."""
        path = tmp_path / "model.json"
        armodel.save_ar_model(armodel.ARModel((0.5,), 1.0, 1.0), path)
        saved = json.loads(path.read_text())
        if doc in ("p", "phi", "sigma_eps", "dt"):
            doc = {k: v for k, v in saved.items() if k != doc}
        elif isinstance(doc, dict) and "format" not in doc:
            doc = {**saved, **doc}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            armodel.load_ar_model(path)

    @pytest.mark.parametrize("fields, name", [
        ({"p": 2, "phi": "12"}, "phi"),
        ({"phi": {"0.5": 1}}, "phi"),
        ({"phi": []}, "phi"),
        ({"phi": [0.5, True]}, "phi"),
        ({"p": 2.9, "phi": [0.5, 0.2]}, "p"),
        ({"p": True}, "p"),
        ({"sigma_eps": "0.1"}, "sigma_eps"),
        ({"dt": True}, "dt"),
    ], ids=["string-phi", "object-phi", "empty-phi", "bool-in-phi", "float-p", "bool-p", "string-sigma_eps",
            "bool-dt"])
    def test_rejects_a_field_of_the_wrong_type(self, tmp_path, fields, name):
        """Each document is otherwise consistent, so only the type check can reject it."""
        path = tmp_path / "model.json"
        doc = {"format": armodel.ARMODEL_FORMAT, "p": 1, "phi": [0.5], "sigma_eps": 1.0, "dt": 1.0, **fields}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed field {name}: "):
            armodel.load_ar_model(path)

    @pytest.mark.parametrize("fields", [{"dt": 10**400}, {"phi": [10**400]}], ids=["dt", "phi"])
    def test_rejects_an_integer_too_large_for_a_float(self, tmp_path, fields):
        path = tmp_path / "model.json"
        doc = {"format": armodel.ARMODEL_FORMAT, "p": 1, "phi": [0.5], "sigma_eps": 1.0, "dt": 1.0, **fields}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed field: int too large"):
            armodel.load_ar_model(path)
