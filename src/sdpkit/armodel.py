"""Autoregressive modelling of sampled time series.

Supports fitting AR(p) models either by conditional least squares or by
matching the model autocorrelation to the sample autocorrelation over
many lags, plus the closed-form machinery needed downstream: stationary
moments, theoretical autocorrelations, simulation, and the companion
state-space form in (value, backward-difference) coordinates used by the
storage controller.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grids import _is_number, write_json

__all__ = [
    "ARModel",
    "AcfSeries",
    "sample_acf",
    "theoretical_acf",
    "is_stationary",
    "phi_from_pacf",
    "pacf_from_phi",
    "fit_cls",
    "fit_multilag",
    "innovation_std_from_acf",
    "simulate",
    "to_state_space",
    "stationary_moments",
    "save_ar_model",
    "load_ar_model",
]

ARMODEL_FORMAT = "armodel-v1"

# The default burn-in is this many slowest characteristic times, at most MAX_DEFAULT_BURN_IN steps (drawn at once).
BURN_IN_FACTOR = 10.0
MAX_DEFAULT_BURN_IN = 2_000_000

# fit_multilag starts a Yule-Walker kappa beyond +-1 at +-START_PACF, where the fit
# still responds, and searches u = atanh(kappa) within +-MAX_PACF_U (|kappa| <= 1 - 1.7e-6).
START_PACF = 0.99
MAX_PACF_U = 7.0


@dataclass(frozen=True)
class ARModel:
    """AR(p) model x_t = phi_1 x_{t-1} + ... + phi_p x_{t-p} + eps_t."""

    phi: tuple[float, ...]
    sigma_eps: float
    dt: float

    def __post_init__(self) -> None:
        phi = tuple(float(c) for c in self.phi)
        object.__setattr__(self, "phi", phi)
        if len(phi) < 1:
            raise ValueError("model order must be at least 1")
        if not all(math.isfinite(c) for c in phi):
            raise ValueError(f"coefficients must be finite, got {phi}")
        if not (math.isfinite(self.sigma_eps) and self.sigma_eps >= 0.0):
            raise ValueError(f"innovation std must be >= 0, got {self.sigma_eps}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"sample period must be > 0, got {self.dt}")

    @property
    def p(self) -> int:
        return len(self.phi)


@dataclass(frozen=True)
class AcfSeries:
    """Autocorrelations rho(0..max_lag); rho(0) is always 1."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(self.values, dtype=np.float64).reshape(-1)
        if vals.size < 1:
            raise ValueError("autocorrelation series needs at least lag 0")
        if not np.isfinite(vals).all():
            raise ValueError("autocorrelations must be finite")
        if vals[0] != 1.0:
            raise ValueError(f"lag-0 autocorrelation must be 1, got {vals[0]}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def max_lag(self) -> int:
        return self.values.size - 1


def sample_acf(series, max_lag: int) -> AcfSeries:
    """Biased sample autocorrelation of a series up to ``max_lag`` samples.

    Uses the full-length denominator (the estimate of lag k divides by N,
    not N - k), which keeps the estimated sequence positive semidefinite.
    The series is centred on its sample mean first.
    """
    x = np.ascontiguousarray(series, dtype=np.float64).reshape(-1)
    n = x.size
    if not 1 <= max_lag < n:
        raise ValueError(f"max_lag must be in [1, {n - 1}], got {max_lag}")
    if not np.isfinite(x).all():
        raise ValueError("series must be finite")
    x = x - x.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        raise ValueError("series is constant; autocorrelation is undefined")
    vals = np.empty(max_lag + 1)
    vals[0] = 1.0
    for k in range(1, max_lag + 1):
        vals[k] = float(np.dot(x[:-k], x[k:])) / denom
    return AcfSeries(vals)


def is_stationary(phi) -> bool:
    """True when every root of 1 - phi_1 z - ... - phi_p z^p lies outside the unit circle.

    Checked on the companion matrix of the recursion, whose eigenvalues
    are the inverse roots; this avoids normalising the polynomial by a
    possibly tiny leading coefficient.
    """
    coeffs = np.asarray(phi, dtype=np.float64)
    if coeffs.size == 0:
        return True
    if not np.isfinite(coeffs).all():
        return False
    return _spectral_radius(coeffs) < 1.0


def _spectral_radius(coeffs: np.ndarray) -> float:
    """Largest modulus of the inverse roots: the eigenvalues of the recursion's companion matrix."""
    companion = np.zeros((coeffs.size, coeffs.size))
    companion[0, :] = coeffs
    companion[np.arange(1, coeffs.size), np.arange(coeffs.size - 1)] = 1.0
    return float(np.max(np.abs(np.linalg.eigvals(companion))))


def phi_from_pacf(kappa) -> np.ndarray:
    """Levinson step-up: the AR coefficients whose partial autocorrelations are kappa."""
    phi = np.empty(0)
    for k in np.asarray(kappa, dtype=np.float64).reshape(-1):
        phi = np.append(phi - k * phi[::-1], k)
    return phi


def pacf_from_phi(phi) -> np.ndarray:
    """Levinson step-down, the inverse of :func:`phi_from_pacf`."""
    phi = np.asarray(phi, dtype=np.float64).reshape(-1)
    kappa = np.empty(phi.size)
    for m in range(phi.size - 1, -1, -1):
        kappa[m] = k = phi[m]
        phi = (phi[:m] + k * phi[:m][::-1]) / (1.0 - k * k)
    return kappa


def theoretical_acf(phi, max_lag: int) -> AcfSeries:
    """Exact autocorrelation of a stationary AR(p) model, lags counted in steps.

    Solves the order-p linear system for rho(1..p) and extends with the recursion
    rho(k) = sum_j phi_j rho(k - j), run by :func:`_all_pole` from lfiltic's state.
    """
    coeffs = np.asarray(phi, dtype=np.float64).reshape(-1)
    p = coeffs.size
    if p < 1:
        raise ValueError("model order must be at least 1")
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    if not is_stationary(coeffs):
        raise ValueError(f"AR coefficients {tuple(coeffs)} are not stationary")

    # rho(k) = sum_j phi_j rho(|k - j|) for k = 1..p, with rho(0) = 1
    a, rhs = np.eye(p), 0.0 + coeffs  # the j = k terms, each added to 0.0
    for k in range(1, p + 1):
        for j in range(1, p + 1):
            if j != k:
                a[k - 1, abs(k - j) - 1] -= coeffs[j - 1]
    rho_head = np.linalg.solve(a, rhs)
    state = [0.0 - float(np.sum(-coeffs[m:] * rho_head[::-1][: p - m])) for m in range(p)]
    tail = _all_pole(coeffs.tolist(), [0.0] * (max_lag - p), state)
    return AcfSeries(np.concatenate([[1.0], rho_head, tail])[: max_lag + 1])


def _all_pole(phi, drive, state) -> list[float]:
    """y_t = x_t + phi_1 y_{t-1} + ... + phi_p y_{t-p} over floats x in ``drive``, from ``state``.

    ``scipy.signal.lfilter([1], [1, -phi])``'s transposed direct form II, in its order: y = z_0 + x,
    then z_j = z_{j+1} + y phi_{j+1}.  Without its x * 0 terms a zero delay may change sign, no output.
    """
    out = []
    append = out.append
    if len(phi) == 2:  # the speed model's order, unrolled
        (f1, f2), (z0, z1) = phi, state
        for x in drive:
            append(y := z0 + x)
            z0, z1 = z1 + y * f1, y * f2
        return out
    z, taps = [*state, 0.0], range(len(phi))
    for x in drive:
        append(y := z[0] + x)
        for j in taps:
            z[j] = z[j + 1] + y * phi[j]
    return out


def fit_cls(series, p: int, dt: float) -> ARModel:
    """Conditional least-squares fit of an AR(p) model.

    Regresses x_t on its p lags over t = p..N-1 with a free intercept
    (absorbing the sample mean), so a noiseless AR recursion is recovered
    exactly.  The innovation std is the residual root mean square.
    """
    x = np.ascontiguousarray(series, dtype=np.float64).reshape(-1)
    if p < 1:
        raise ValueError(f"model order must be >= 1, got {p}")
    if x.size < p + 2:
        raise ValueError(f"need more than {p + 1} samples to fit order {p}, got {x.size}")
    if not np.isfinite(x).all():
        raise ValueError("series must be finite")

    y = x[p:]
    design = np.empty((y.size, p + 1))
    design[:, 0] = 1.0
    for j in range(1, p + 1):
        design[:, j] = x[p - j : x.size - j]
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    sigma = math.sqrt(float(np.mean(resid**2)))
    return ARModel(tuple(beta[1:]), sigma, dt)


def fit_multilag(acf_data: AcfSeries, p: int, lag_count: int) -> tuple[tuple[float, ...], float]:
    """Fit AR coefficients by matching autocorrelations over many lags.

    Minimises sum_k (rho_model(k) - rho_data(k))^2 for k = 1..lag_count by
    Levenberg-Marquardt over u = atanh(kappa), kappa the partial autocorrelations
    (Barndorff-Nielsen & Schou 1973), so every proposal is stationary.  Starts at the
    Yule-Walker point and accepts only steps that lower the criterion, so it never
    ends worse than that start.
    """
    if p < 1:
        raise ValueError(f"model order must be >= 1, got {p}")
    if not 1 <= lag_count <= acf_data.max_lag:
        raise ValueError(
            f"lag_count must be in [1, {acf_data.max_lag}], got {lag_count}"
        )
    if acf_data.max_lag < p:
        raise ValueError(f"need at least {p} lags to fit order {p}")

    rho, kappa, phi, err = acf_data.values, np.empty(p), np.empty(0), 1.0
    for k in range(p):  # Durbin's recursion; err is the order-k prediction error
        if err == 0.0:
            raise ValueError(f"cannot fit order {p} over {lag_count} lags: "
                             f"singular order-{p} Toeplitz block")
        kappa[k] = c = (rho[k + 1] - phi @ rho[k:0:-1]) / err
        phi, err = np.append(phi - c * phi[::-1], c), err * (1.0 - c * c)
    kappa = np.where(np.abs(kappa) < 1.0, kappa, np.sign(kappa) * START_PACF)
    u, target, evals = np.clip(np.arctanh(kappa), -MAX_PACF_U, MAX_PACF_U), rho[1 : lag_count + 1], 0

    def residual(u):  # None outside |u| <= MAX_PACF_U, or where phi fails theoretical_acf's stationarity check
        nonlocal evals
        evals += 1
        if np.max(np.abs(u)) > MAX_PACF_U:
            return None
        try:
            return theoretical_acf(phi_from_pacf(np.tanh(u)), lag_count).values[1:] - target
        except (ValueError, np.linalg.LinAlgError):
            return None

    # MINPACK's trust-region Levenberg-Marquardt (lmder), the region scaled by the running maxima of the column
    # norms, with least_squares' lm defaults (gtol = 1e-8, no step after 100 p (p + 1) evaluations) but for
    # ftol = xtol = 1e-10: where both crawl along a narrow valley, it then ends at or below least_squares.
    r, jac, scale, delta, accepted, done = residual(u), np.empty((lag_count, p)), np.zeros(p), 0.0, False, False
    if r is None:
        raise ValueError(f"cannot fit order {p} over {lag_count} lags: non-stationary start")
    while not done and evals < 100 * p * (p + 1) and r @ r > 0.0:
        for j in range(p):  # forward differences of relative step sqrt(eps); a failed probe steps backward
            for sign in (1.0, -1.0):
                probe = u.copy()
                probe[j] += sign * math.copysign(2.0**-26 * max(1.0, abs(u[j])), u[j])
                new = residual(probe)
                if new is not None:
                    break
            jac[:, j] = 0.0 if new is None else (new - r) / (probe[j] - u[j])
        norms = np.linalg.norm(jac, axis=0)
        if np.all(np.abs(jac.T @ r) <= 1e-8 * norms * math.sqrt(r @ r)):
            break
        scale = np.maximum(scale, norms)
        scale[scale == 0.0] = 1.0
        delta = delta or 100.0 * (np.linalg.norm(scale * u) or 1.0)
        left, s, vt = np.linalg.svd(jac / scale, full_matrices=False)
        sg = s * (left.T @ r)
        while evals < 100 * p * (p + 1):
            par = 0.0  # lmpar: Newton steps on 1/||y|| to the damping whose step is within 10% of delta
            for i in range(10):
                w = np.divide(1.0, s * s + par, out=np.zeros(s.size), where=s > 0.0)
                q = np.linalg.norm(y := -sg * w)
                if q <= 1.1 * delta and (par == 0.0 or q >= 0.9 * delta) or i == 9:
                    break
                par += (q - delta) * q * q / (delta * (y * y) @ w)
            step = vt.T @ y / scale
            delta = delta if accepted else min(delta, q)
            new = residual(u + step)
            cost, trial = r @ r, math.inf if new is None else new @ new
            actred = 1.0 - trial / cost if 0.01 * trial < cost else -1.0
            linear, damping = np.sum((jac @ step) ** 2) / cost, par * q * q / cost
            prered = linear + 2.0 * damping
            ratio = actred / prered if prered > 0.0 else 0.0
            if ratio <= 0.25:  # shrink the region, at most tenfold
                shrink = 0.5 if actred >= 0.0 else 0.5 * (linear + damping) / (linear + damping - 0.5 * actred)
                delta = (shrink if 0.01 * trial < cost and shrink > 0.1 else 0.1) * min(delta, 10.0 * q)
            elif par == 0.0 or ratio >= 0.75:
                delta = 2.0 * q
            if ratio >= 1e-4:
                u, r, accepted = u + step, new, True
            done = abs(actred) <= 1e-10 and prered <= 1e-10 and ratio <= 2.0 or delta <= 1e-10 * np.linalg.norm(scale * u)
            if done or ratio >= 1e-4:
                break
    return tuple(float(c) for c in phi_from_pacf(np.tanh(u))), float(r @ r)


def innovation_std_from_acf(phi, gamma0: float, acf_data: AcfSeries) -> float:
    """Innovation std implied by a variance and autocorrelations.

    Uses sigma_eps^2 = gamma0 * (1 - sum_j phi_j rho(j)); raises if the
    coefficients and autocorrelations imply a negative innovation
    variance.
    """
    coeffs = np.asarray(phi, dtype=np.float64).reshape(-1)
    p = coeffs.size
    if gamma0 < 0.0 or not math.isfinite(gamma0):
        raise ValueError(f"variance must be finite and >= 0, got {gamma0}")
    if acf_data.max_lag < p:
        raise ValueError(f"need autocorrelations up to lag {p}")
    var = gamma0 * (1.0 - float(np.dot(coeffs, acf_data.values[1 : p + 1])))
    if var < 0.0:
        raise ValueError(
            f"coefficients and autocorrelations imply negative innovation variance {var}"
        )
    return math.sqrt(var)


def _default_burn_in(phi) -> int:
    """Ten times the slowest characteristic time of the recursion, in steps."""
    coeffs = np.asarray(phi, dtype=np.float64)
    if not np.any(coeffs):
        return 0
    radius = _spectral_radius(coeffs)
    if radius >= 1.0:
        raise ValueError("cannot pick a burn-in for a non-stationary model")
    tau = -1.0 / math.log(radius)
    return int(math.ceil(BURN_IN_FACTOR * tau))


def simulate(model: ARModel, n: int, seed: int, burn_in: int | None = None) -> np.ndarray:
    """Simulate ``n`` samples of the model with Gaussian innovations.

    Starts from zero initial lags and discards ``burn_in`` warm-up steps
    (default: ten times the slowest characteristic time; ValueError above
    ``MAX_DEFAULT_BURN_IN`` steps).  The output is a deterministic function
    of (model, n, seed, burn_in).
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if burn_in is None:
        burn_in = _default_burn_in(model.phi)
        if burn_in > MAX_DEFAULT_BURN_IN:
            raise ValueError(f"slowest characteristic time {burn_in / BURN_IN_FACTOR:.4g} steps: the default burn-in "
                             f"of {burn_in} steps exceeds {MAX_DEFAULT_BURN_IN}")
    if burn_in < 0:
        raise ValueError(f"burn-in must be >= 0, got {burn_in}")
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, model.sigma_eps, size=n + burn_in)
    return np.array(_all_pole(model.phi, eps.tolist(), [0.0] * model.p)[burn_in:])


def to_state_space(model: ARModel) -> np.ndarray:
    """Read-only 2x2 transition of an AR(2) model on the (value, backward-difference) state.

    With a_k = (x_k - x_{k-1}) / dt, substituting x_{t-2} = x_{t-1} - dt * a_{t-1} into the
    recursion gives ``(x, a)_next = transition @ (x, a) + (1, 1/dt) * eps``, the same innovation.
    """
    if model.p != 2:
        raise ValueError(f"state-space form needs an AR(2) model, got order {model.p}")
    c1, c2 = model.phi
    dt = model.dt
    transition = np.array(
        [
            [c1 + c2, -c2 * dt],
            [(c1 + c2 - 1.0) / dt, -c2],
        ]
    )
    transition.flags.writeable = False
    return transition


def stationary_moments(model: ARModel) -> tuple[float, float]:
    """Stationary stds of the process and of its backward difference.

    Returns ``(std_x, std_diff)`` where the difference is taken per
    sample period: diff_k = (x_k - x_{k-1}) / dt, so
    var(diff) = 2 gamma_0 (1 - rho(1)) / dt^2.
    """
    if not is_stationary(model.phi):
        raise ValueError("stationary moments require a stationary model")
    rho = theoretical_acf(model.phi, max(model.p, 1)).values
    gamma0 = model.sigma_eps**2 / (1.0 - float(np.dot(model.phi, rho[1 : model.p + 1])))
    std_x = math.sqrt(gamma0)
    std_diff = math.sqrt(2.0 * gamma0 * (1.0 - rho[1])) / model.dt
    return std_x, std_diff


def save_ar_model(model: ARModel, path, provenance: dict | None = None) -> None:
    """Write a model (plus optional fit provenance) as a JSON text document."""
    doc = {
        "format": ARMODEL_FORMAT,
        "p": model.p,
        "phi": list(model.phi),
        "sigma_eps": model.sigma_eps,
        "dt": model.dt,
    }
    if provenance is not None:
        doc["fit"] = provenance
    write_json(path, doc)


def load_ar_model(path) -> tuple[ARModel, dict | None]:
    """Read back a model written by :func:`save_ar_model`."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt model file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: model file is not a JSON object")
    if doc.get("format") != ARMODEL_FORMAT:
        raise ValueError(f"{path} is not a model file (format={doc.get('format')!r})")
    missing = [key for key in ("p", "phi", "sigma_eps", "dt") if key not in doc]
    if missing:
        raise ValueError(f"{path} lacks the field(s) {', '.join(missing)}")
    phi = doc["phi"]
    if not (isinstance(phi, list) and phi and all(_is_number(c) for c in phi)):
        raise ValueError(f"{path}: malformed field phi: {phi!r} is not a non-empty list of numbers")
    for key in ("sigma_eps", "dt"):
        if not _is_number(doc[key]):
            raise ValueError(f"{path}: malformed field {key}: {doc[key]!r} is not a number")
    if not isinstance(doc["p"], int) or isinstance(doc["p"], bool):
        raise ValueError(f"{path}: malformed field p: {doc['p']!r} is not an integer")
    try:
        model = ARModel(tuple(phi), float(doc["sigma_eps"]), float(doc["dt"]))
    except OverflowError as exc:  # an integer too large for a float
        raise ValueError(f"{path}: malformed field: {exc}") from exc
    if model.p != doc["p"]:
        raise ValueError(f"{path}: declared order {doc['p']} does not match {model.p} coefficients")
    return model, doc.get("fit")
