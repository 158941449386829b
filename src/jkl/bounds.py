"""Closed-form stability, moment, and perturbation bounds as curves.

Every operation evaluates an explicit envelope built from the constants
in a :class:`~jkl.analyzer.StabilityReport`.  Exponential envelopes
``x0 * exp(b t) + B (exp(b t) - 1) / b`` handle the degenerate
denominator through the analytic limit ``B t``.  The perturbation
envelopes are leading-order: the underlying estimates carry remainder
terms (O(s^1/2) inside the initial-data integral, O(t^3/2) in the
coefficient bounds) with no computable constants, so those terms are
dropped and each curve is tagged ``leading_order``.  Domination of
empirical estimates is therefore only claimed on small-time windows.

Every curve but the cubic bound is computed per grid time on Python
floats, which never warn, with each edge rule in one helper: a NaN rate
counts as inf (``_growth_rate``), a zero factor gives 0 even beside inf
(``_times``), an overflow reads inf (``_float_of``, ``_pow``) and exp is
1 at t = 0 (``_exp_at``).  So no value is NaN.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .analyzer import StabilityReport, one_sided_constants
from .engine import ODE_TOL, _check_grid, _check_real_state, _check_state, _csv, integrate_rre
from .model import ReactionNetwork

__all__ = [
    "BoundCurve",
    "exp_plus",
    "first_moment_curve",
    "second_moment_curve",
    "pth_moment_curve",
    "asymptotic_check",
    "ode_divergence_bound",
    "initial_perturbation_curve",
    "coefficient_perturbation_curve",
    "cubic_blowup_lowerbound",
]

@dataclass(frozen=True)
class BoundCurve:
    """A theoretical bound evaluated on a time grid.

    ``values`` may contain ``inf`` past a blow-up asymptote; the
    ``inputs`` snapshot records every constant the formula consumed.
    """

    times: np.ndarray
    values: np.ndarray
    formula: str
    inputs: dict = field(default_factory=dict)
    leading_order: bool = False
    note: str = ""

    def to_csv(self) -> str:
        rows = ((t, v, self.formula) for t, v in zip(self.times.tolist(), self.values.tolist()))
        return _csv(["time", "value", "formula"], rows)


def exp_plus(z: np.ndarray | float) -> np.ndarray | float:
    """Positive-part exponential exp(max(z, 0)): a majorant of exp(z) that is >= 1."""
    return np.exp(np.maximum(z, 0.0))


def _envelope(x0_pow: float, b_const: float, beta: float, grid: np.ndarray) -> np.ndarray:
    """:func:`_envelope_at` at each grid time."""
    return np.array([_envelope_at(x0_pow, b_const, beta, t) for t in grid.tolist()])


def _envelope_at(x0_pow: float, b_const: float, beta: float, t: float) -> float:
    """``x0_pow exp(z) + b_const t (exp(z) - 1) / z`` at one time, ``z = max(beta, 0) t``.

    ``exp`` and ``expm1`` are numpy's, each result a float at once.  A
    second-order series keeps ~1e-10 accuracy where ``z <= 1e-12``.  At
    t = 0 the value is ``x0_pow`` whatever beta and B are; for t > 0 an
    infinite (or NaN) beta makes every term with a nonzero coefficient inf.
    """
    x0_pow, b_const, t, beta = float(x0_pow), float(b_const), float(t), float(beta)
    if t == 0.0:
        return x0_pow or 0.0  # a zero x0_pow reads +0.0, as the sum of no terms
    growth = _growth_rate(beta)
    z = growth * t if growth > 0.0 else 0.0
    out = _times(x0_pow, _float_of(np.exp, z))
    if b_const:
        if z == math.inf:
            phi = math.inf  # (exp(z) - 1) / z would be inf / inf
        elif z > 1e-12:
            phi = _float_of(np.expm1, z) / z
        else:
            phi = 1.0 + z / 2.0 + z * z / 6.0
        out = out + b_const * t * phi
    return out


def _float_of(ufunc, z: float) -> float:
    """``ufunc(z)`` as a float for exp or expm1, which overflow to inf just
    past z = 709.78: certainly from 710, and silently here."""
    if z < 709.0:
        return float(ufunc(z))
    if z >= 710.0:
        return math.inf
    with np.errstate(over="ignore"):
        return float(ufunc(z))


def _pow(x: float, p: int) -> float:
    """``x ** p`` for x >= 0, inf where it overflows."""
    try:
        return x**p
    except OverflowError:
        return math.inf


def _times(a: float, b: float) -> float:
    """``a * b`` for a, b >= 0, with a zero factor giving 0 even beside inf."""
    return a * b if a and b else 0.0


def _check_x0_norm(x0_norm: float) -> None:
    """Reject a starting norm that is not finite and >= 0."""
    if not (math.isfinite(x0_norm) and x0_norm >= 0):
        raise ValueError(f"x0_norm must be finite and >= 0, got {x0_norm!r}")


def _exp_at(rate: float, t: float) -> float:
    """``exp(rate t)`` at one time t >= 0, as the array formula computes it;
    1 at t = 0 whatever the rate, so an infinite rate never meets ``inf * 0``."""
    return 1.0 if t == 0.0 else _float_of(np.exp, rate * t)


def _growth_rate(rate: float) -> float:
    """A NaN rate (an inf - inf sum) counts as inf: every envelope grows with it."""
    return math.inf if math.isnan(rate) else rate


def _trapezoid(values: list[float], times: list[float]) -> list[float]:
    """int_0^t values ds at every grid time, by the trapezoid rule summed in grid order."""
    steps = (0.5 * (v + u) * (t - s) for u, v, s, t in zip(values, values[1:], times, times[1:]))
    return list(itertools.accumulate(steps, initial=0.0))


def first_moment_curve(
    report: StabilityReport, x0_norm: float, grid: Sequence[float]
) -> BoundCurve:
    """Envelope for E|X_t|_1: |X_0|_1 e^(a+ t) + A (e^(a+ t) - 1)/a+.

    Raises:
        ValueError: for a bad grid, or an x0_norm that is not finite and >= 0.
    """
    grid = _check_grid(grid)
    _check_x0_norm(x0_norm)
    values = _envelope(x0_norm, report.A, report.alpha, grid)
    return BoundCurve(
        grid,
        values,
        "first-moment-envelope",
        inputs={"A": report.A, "alpha": report.alpha, "x0_norm": x0_norm},
    )


def _second_moment_consts(report: StabilityReport):
    """The function ``eps -> (beta, B)`` of the second-moment envelope.

    ``beta = (s2 gamma + eps) + 2 alpha`` and ``B = s2 Gamma + A^2 / eps``
    with ``s2 = norm_1tN_sq``; the eps-free terms are computed once.
    """
    s2 = report.norm_1tN_sq
    s2_gamma, two_alpha = s2 * report.gamma, 2.0 * report.alpha
    s2_big_gamma, a_sq = s2 * report.Gamma, _pow(report.A, 2)

    def consts(eps: float) -> tuple[float, float]:
        return s2_gamma + eps + two_alpha, s2_big_gamma + (a_sq / eps if eps > 0 else 0.0)

    return consts


def second_moment_curve(
    report: StabilityReport,
    x0_norm: float,
    grid: Sequence[float],
    eps: float | None = None,
) -> BoundCurve:
    """Envelope for E|X_t|_1^2 with the free split parameter optimized.

    beta = |(1^T N)^2|_inf gamma + eps + 2 alpha and
    B = |(1^T N)^2|_inf Gamma + A^2 / eps hold for every eps > 0; unless
    given, eps minimizes the envelope at the grid midpoint by
    golden-section search (with A = 0 the limit eps -> 0 is exact).  An
    explicit eps must be finite and > 0; eps = 0 is accepted only when
    A = 0, since the A^2 / eps term is infinite there otherwise.

    Raises:
        ValueError: for any other explicit eps (0 with A > 0, negative,
            infinite or NaN), a bad grid, or an x0_norm that is not finite
            and >= 0.
    """
    grid = _check_grid(grid)
    _check_x0_norm(x0_norm)
    if eps is not None and not (
        (eps > 0 and math.isfinite(eps)) or (eps == 0 and report.A == 0)
    ):
        raise ValueError(f"eps must be finite and > 0 (or 0 when A = 0), got {eps!r}")
    consts = _second_moment_consts(report)
    if eps is None:
        if report.A == 0.0:
            eps = 0.0
        else:
            t_mid = 0.5 * (float(grid[0]) + float(grid[-1]))
            t_mid = max(t_mid, 1e-12)
            x0_sq = _pow(x0_norm, 2)

            def val(e: float) -> float:
                beta, b_const = consts(e)
                return _envelope_at(x0_sq, b_const, beta, t_mid)

            eps = _golden_min(val, 1e-9, 1e3)
    beta, b_const = consts(eps)
    values = _envelope(_pow(x0_norm, 2), b_const, beta, grid)
    return BoundCurve(
        grid,
        values,
        "second-moment-envelope",
        inputs={
            "beta": beta,
            "B": b_const,
            "eps": eps,
            "x0_norm": x0_norm,
            "norm_1tN_sq": report.norm_1tN_sq,
        },
    )


def _golden_min(f, lo: float, hi: float, iters: int = 200) -> float:
    # golden-section on log-scale; deterministic for reproducible curves
    a, b = math.log(lo), math.log(hi)
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = f(math.exp(c)), f(math.exp(d))
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(math.exp(d))
        if b - a < 1e-12:
            break
    return math.exp((a + b) / 2.0)


def pth_moment_curve(
    report: StabilityReport, x0_norm: float, p: int, grid: Sequence[float]
) -> BoundCurve:
    """Envelope for E|X_t|_1^p, integer p > 2.

    beta <= (p - 1 + p alpha) + (Gamma + gamma)(2^p - 2 - p) |1^T N|_inf^p,
    B <= A^p + Gamma |1^T N|_inf^p.

    Raises:
        ValueError: for p <= 2, a bad grid, or an x0_norm that is not
            finite and >= 0.
    """
    if not isinstance(p, int) or p <= 2:
        raise ValueError("p must be an integer > 2; use the first/second moment curves")
    grid = _check_grid(grid)
    _check_x0_norm(x0_norm)
    npow = _pow(report.norm_1tN, p)
    beta = (p - 1 + p * report.alpha) + _times(
        _times(report.Gamma + report.gamma, _pow(2.0, p) - 2 - p), npow
    )
    b_const = _pow(report.A, p) + _times(report.Gamma, npow)
    values = _envelope(_pow(x0_norm, p), b_const, beta, grid)
    return BoundCurve(
        grid,
        values,
        "pth-moment-envelope",
        inputs={"p": p, "beta": beta, "B": b_const, "x0_norm": x0_norm},
    )


def asymptotic_check(report: StabilityReport, p: int) -> float | None:
    """Margin kappa_p > 0 when 2 alpha + gamma |(1^T N)^2|_inf (p-1) < 0.

    A positive return value certifies that E|X_t|_1^p stays bounded for
    all time; None means the criterion is not satisfied.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    kappa = -(2.0 * report.alpha + report.gamma * report.norm_1tN_sq * (p - 1))
    return kappa if kappa > 0 else None


def ode_divergence_bound(
    net: ReactionNetwork,
    x0: Sequence[float],
    y0: Sequence[float],
    grid: Sequence[float],
) -> BoundCurve:
    """Envelope |x0-y0| exp(int_0^t M + mu |x_s+y_s|_1 ds) for the rate ODE.

    Both trajectories are integrated numerically; the exponent is a
    trapezoid quadrature on the output grid (refine the grid to refine
    the quadrature).  The value is 0 when x0 = y0, even where the
    exponent overflows.

    Raises:
        ValueError: for an invalid network, grid or initial state.
        AnalyzerError: for an order-3 or overflowing reaction, from M and mu.
        SimulationError: when either rate-equation solve fails.
    """
    grid = _check_grid(grid)
    m, mu = one_sided_constants(net)
    sol_x = integrate_rre(net, x0, grid, ODE_TOL)
    sol_y = integrate_rre(net, y0, grid, ODE_TOL)
    sigma = sol_x.states.sum(axis=1) + sol_y.states.sum(axis=1)
    integrals = _trapezoid([m + _times(mu, s) for s in sigma.tolist()], grid.tolist())
    d0 = float(np.linalg.norm(np.asarray(x0, dtype=float) - np.asarray(y0, dtype=float)))
    return BoundCurve(
        grid,
        np.array([_times(d0, _float_of(np.exp, r)) for r in integrals]),
        "ode-divergence",
        inputs={"M": m, "mu": mu, "d0": d0, "tol": ODE_TOL},
    )


def initial_perturbation_curve(
    report: StabilityReport,
    x0: Sequence[float],
    y0: Sequence[float],
    grid: Sequence[float],
) -> BoundCurve:
    """Leading-order envelope for coupled trajectories from different states.

    exp((M + mu S0) t) (|X0-Y0| + [X0 != Y0] R(t)/2) with
    R(t) = int_0^t (L' + lam' S0) exp(-(M + mu S0) s) ds and
    S0 = |X0 + Y0|_1; the O(s^1/2) remainder inside R carries no
    constant and is dropped, so domination holds on small windows only.
    R is a trapezoid sum on the grid, and the value is |X0-Y0| at t = 0.
    """
    grid = _check_grid(grid)
    x0 = _check_real_state(x0, len(report.l))
    y0 = _check_real_state(y0, len(report.l))
    sigma0 = float(x0.sum() + y0.sum())
    rate = report.M + _times(report.mu, sigma0)
    growth = _growth_rate(rate)
    d0 = float(np.linalg.norm(x0 - y0))
    same = bool(np.array_equal(x0, y0))
    coeff = report.L_prime + _times(report.lam_prime, sigma0)
    times = grid.tolist()
    integrals = _trapezoid([_times(coeff, _exp_at(-growth, t)) for t in times], times)
    values = []
    for t, r_val in zip(times, integrals):
        bracket = d0 if same else d0 + r_val / 2.0
        values.append(math.inf if bracket == math.inf else _times(_exp_at(growth, t), bracket))
    return BoundCurve(
        grid,
        np.array(values),
        "initial-perturbation-leading",
        inputs={
            "M": report.M,
            "mu": report.mu,
            "Sigma0": sigma0,
            "L_prime": report.L_prime,
            "lam_prime": report.lam_prime,
            "d0": d0,
        },
        leading_order=True,
        note="O(s^1/2) remainder dropped; valid as a small-time envelope",
    )


def coefficient_perturbation_curve(
    report: StabilityReport,
    x0: Sequence[float],
    delta: float,
    delta_f: float,
    grid: Sequence[float],
    variant: str = "small-time",
) -> BoundCurve:
    """Leading-order envelope for coupled pairs under a rate perturbation.

    With W0 = Gamma + gamma |X0|_1^2 and delta' = |1^T N^2|_inf delta:

    * small-time: exp+((M + L'/2 + (2 mu + lam') |X0|_1) t)
      [(delta' W0)^(1/2) t^(1/2) + delta_F W0 t] -- tends to 0 with the
      perturbation;
    * large-time: exp+((M + 2 mu |X0|_1) t)
      [(delta' W0)^(1/2) t^(1/2) + (delta_F W0 + L'/2 + lam' |X0|_1) t]
      -- smaller exponent, but keeps the Lipschitz terms.

    O(t^3/2) remainders are dropped.  The value is 0 at t = 0.
    """
    grid = _check_grid(grid)
    x0 = _check_real_state(x0, len(report.l))
    x_norm = float(x0.sum())
    w0 = report.Gamma + _times(report.gamma, _pow(x_norm, 2))
    delta_prime = _times(report.norm_1tN2, delta)
    sqrt_coeff = math.sqrt(_times(delta_prime, w0))
    if variant == "small-time":
        rate = (
            report.M
            + report.L_prime / 2.0
            + _times(2.0 * report.mu + report.lam_prime, x_norm)
        )
        lin_coeff = _times(delta_f, w0)
    elif variant == "large-time":
        rate = report.M + _times(2.0 * report.mu, x_norm)
        lin_coeff = (
            _times(delta_f, w0) + report.L_prime / 2.0 + _times(report.lam_prime, x_norm)
        )
    else:
        raise ValueError(f"unknown variant {variant!r} (small-time or large-time)")
    growth = max(_growth_rate(rate), 0.0)
    values = [
        _times(_exp_at(growth, t), _times(sqrt_coeff, math.sqrt(t)) + _times(lin_coeff, t))
        for t in grid.tolist()
    ]
    return BoundCurve(
        grid,
        np.array(values),
        f"coeff-perturbation-{variant}",
        inputs={
            "delta": delta,
            "delta_F": delta_f,
            "delta_prime": delta_prime,
            "W0": w0,
            "x0_norm": x_norm,
            "rate": rate,
        },
        leading_order=True,
        note="O(t^3/2) remainder dropped; valid as a small-time envelope",
    )


# sharp lattice constant for the cubic comparison: the generator of the
# third falling moment is 9 C3(x) (x - 4/3) (explicit finite differences
# of C3 under the -2/+1 steps), and gamma = min over x >= 3 of
# (x - 4/3) / C3(x)^(1/3), attained at x = 3
CUBIC_COMPARISON_GAMMA = (5.0 / 3.0) / 6.0 ** (1.0 / 3.0)


def cubic_blowup_lowerbound(x0: int, grid: Sequence[float]) -> BoundCurve:
    """Lower bound for the third falling moment of the zero-drift cubic pair.

    For m(t) = E X_t(X_t-1)(X_t-2) the generator identity gives
    d/dt m = 9 E[C3(X)(X - 4/3)] >= 9 gamma E[C3^(4/3)] >= 9 gamma m^(4/3)
    (lattice comparison plus Jensen), which integrates via u = m^(1/3)
    (whose reciprocal decreases at rate at least 3 gamma) to

        m(t) >= m0 / (1 - 3 gamma t m0^(1/3))^3,

    blowing up no later than t = 1 / (3 gamma m0^(1/3)).  Grid points at
    or past the asymptote are reported infinite.  For X0 < 3 the bound
    is the zero curve (m0 = 0).

    Raises:
        ValueError: for a bad grid, or an x0 that is not a non-negative count.
    """
    grid = _check_grid(grid)
    (x0,) = _check_state([x0], 1)
    if x0 < 3:
        return BoundCurve(
            grid, np.zeros_like(grid), "cubic-third-moment-lower", inputs={"x0": x0, "m0": 0}
        )
    m0 = float(x0 * (x0 - 1) * (x0 - 2))
    rate = 3.0 * CUBIC_COMPARISON_GAMMA * m0 ** (1.0 / 3.0)
    t_blow = 1.0 / rate
    values = np.empty_like(grid)
    before = grid < t_blow
    values[before] = m0 / (1.0 - grid[before] * rate) ** 3
    values[~before] = np.inf
    return BoundCurve(
        grid,
        values,
        "cubic-third-moment-lower",
        inputs={"x0": x0, "m0": m0, "gamma": CUBIC_COMPARISON_GAMMA, "t_blowup": t_blow},
        note="lower bound; vertical asymptote at t_blowup",
    )
