"""Bound curves: closed forms, limits, domination sanity."""

import math
import warnings

import numpy as np
import pytest

from jkl.analyzer import RateOverflow, analyze, one_sided_constants
from jkl.bounds import (
    ODE_TOL,
    _envelope,
    _envelope_at,
    asymptotic_check,
    coefficient_perturbation_curve,
    cubic_blowup_lowerbound,
    exp_plus,
    first_moment_curve,
    initial_perturbation_curve,
    ode_divergence_bound,
    pth_moment_curve,
    second_moment_curve,
)
from jkl.engine import PerturbationSpec, integrate_rre
from jkl.parser import parse_model
from jkl.presets import get_preset

BIMOL = get_preset("bimol").network
OPEN = get_preset("reversible-open").network
REVERSIBLE = get_preset("reversible").network
ENZYME_LIN = get_preset("enzyme-linear").network

R_BIMOL = analyze(BIMOL)
R_OPEN = analyze(OPEN)
R_REV = analyze(REVERSIBLE)


class TestExpPlus:
    def test_majorant_properties(self):
        t = np.linspace(0.0, 3.0, 30)
        for a in (-2.0, 0.0, 1.5):
            vals = exp_plus(a * t)
            assert (vals >= 1.0).all()
            assert (vals >= np.exp(a * t) - 1e-15).all()


class TestFirstMoment:
    def test_negative_alpha_constant_a_zero(self):
        # A = 0 and alpha < 0: the positive-part envelope is flat
        rep = analyze(parse_model("species A\nR: A -> 0 @ 1.0"))
        assert rep.A == 0.0 and rep.alpha == -1.0
        curve = first_moment_curve(rep, 7.0, np.linspace(0, 2, 9))
        assert np.allclose(curve.values, 7.0)

    def test_bimol_linear_growth(self):
        curve = first_moment_curve(R_BIMOL, 0.0, np.array([0.0, 5.0, 10.0]))
        assert np.allclose(curve.values, [0.0, 10.0, 20.0])

    def test_pure_birth_equality_case(self):
        rep = analyze(parse_model("species A\nR: 0 -> A @ 1.0"))
        grid = np.linspace(0.0, 4.0, 5)
        curve = first_moment_curve(rep, 0.0, grid)
        assert np.allclose(curve.values, grid)

    def test_degenerate_denominator_series(self):
        # alpha -> 0+ limit equals A t to high accuracy
        rep = R_BIMOL
        grid = np.linspace(0.0, 1.0, 7)
        band = first_moment_curve(rep, 3.0, grid)
        tiny = [3.0 * math.exp(1e-15 * t) + rep.A * t for t in grid]
        assert np.allclose(band.values, tiny, atol=1e-10)


class TestOverflow:
    def test_zero_coefficient_overflows_to_inf_not_nan(self):
        # A = 0 and alpha = 1: at t = 800 the exponent overflows, and the
        # dropped A-term must not turn the honest inf into 0 * inf = NaN
        report = analyze(parse_model("species A\nR: A -> 2 A @ 1"))
        assert report.A == 0.0 and report.alpha == 1.0
        grid = [0.0, 1.0, 800.0]
        for curve in (
            first_moment_curve(report, 1.0, grid),
            second_moment_curve(report, 1.0, grid),
            pth_moment_curve(report, 1.0, 3, grid),
        ):
            assert np.isfinite(curve.values[:2]).all()
            assert curve.values[2] == math.inf


# networks whose constants are finite but whose moment curves overflowed:
# A**2 raised OverflowError in the second-moment curve ("A-squared"); gamma =
# 1.7e308 made beta inf, so the third-moment curve read NaN at every time
# ("beta-inf"); and A itself overflows, which analyze rejects ("A-inf")
EXTREME_RATES = {
    "A-squared": "species S0 S1 S2\nR1: 0 -> S1 + S2 @ 1e+300\nR2: S0 + S0 -> S2 @ 1e+150\n"
    "R3: 0 -> S0 @ 1.7e+308\nR4: S2 -> S0 + S1 + S2 @ 1e+300\nR5: S2 + S0 -> S1 @ 1e-300\n",
    "beta-inf": "species S0\nR1: 0 -> 0 @ 1e10\nR2: S0 -> S0 + S0 @ 1e-300\n"
    "R3: S0 + S0 -> S0 + S0 @ 1.7e+308\n",
    "A-inf": "species S0 S1 S2\nR1: 0 -> S1 + S1 + S0 @ 1.7e+308\nR2: S2 -> 0 @ 0.0\n",
    # alpha = -1.7e308 beside gamma = 1.7e308: 2 alpha and p alpha overflow to
    # -inf and the gamma terms to inf, so beta is inf - inf
    "beta-nan": "species S0\nR1: S0 -> 0 @ 1.7e+308\nR2: S0 -> S0 + S0 + S0 @ 1e150\n"
    "R3: S0 -> S0 @ 1\nR4: 0 -> 0 @ 1e-10\nR5: 0 -> S0 + S0 + S0 @ 1e10\n",
}


class TestExtremeRates:
    """Curves under extreme rates are |x0|^p at t = 0 and inf where they
    overflow: never NaN, never OverflowError, and no warning."""

    GRID = [0.0, 0.5, 1.0]

    def _curves(self, name):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            report = analyze(parse_model(EXTREME_RATES[name]), weight="auto")
            x0_norm = float(sum(report.l))
            return x0_norm, [
                first_moment_curve(report, x0_norm, self.GRID),
                second_moment_curve(report, x0_norm, self.GRID),
                *(pth_moment_curve(report, x0_norm, p, self.GRID) for p in (3, 4, 2000)),
            ]

    def test_second_moment_of_an_overflowing_a_squared(self):
        x0_norm, curves = self._curves("A-squared")
        assert x0_norm == 3.0
        # 3^2000 overflows too
        for curve, at_zero in zip(curves, (3.0, 9.0, 27.0, 81.0, math.inf)):
            assert curve.values.tolist() == [at_zero, math.inf, math.inf], curve.inputs
        assert curves[1].inputs["B"] == math.inf

    def test_pth_moment_of_an_infinite_beta(self):
        x0_norm, curves = self._curves("beta-inf")
        assert x0_norm == 1.0
        assert curves[0].values.tolist() == [1.0, 1.0, 1.0]
        for curve in curves[1:]:
            assert curve.values.tolist() == [1.0, math.inf, math.inf]
        assert curves[2].inputs["beta"] == math.inf

    def test_beta_of_inf_minus_inf(self):
        x0_norm, curves = self._curves("beta-nan")
        assert x0_norm == 1.0
        for curve in curves[1:]:
            assert math.isnan(curve.inputs["beta"])
            assert curve.values.tolist() == [1.0, math.inf, math.inf]

    def test_an_infinite_a_is_rejected(self):
        with pytest.raises(RateOverflow, match="R1"):
            self._curves("A-inf")

    def test_order_past_the_float_range_without_inflow(self):
        # Gamma = 0 beside |1^T N|^2000 = 2^2000 = inf: the Gamma term of B is
        # 0, not 0 * inf
        report = analyze(parse_model("species A B\nR1: A -> 3 B @ 1\n"))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            curve = pth_moment_curve(report, 1.0, 2000, self.GRID)
        assert (curve.inputs["beta"], curve.inputs["B"]) == (math.inf, 0.0)
        assert curve.values.tolist() == [1.0, math.inf, math.inf]

    def test_envelope_at_infinite_constants(self):
        inf = math.inf
        assert _envelope_at(2.0, inf, 1.0, 0.0) == 2.0
        assert _envelope_at(2.0, 1.0, inf, 0.0) == 2.0
        assert _envelope_at(0.0, inf, inf, 0.0).hex() == (0.0).hex()
        assert _envelope_at(0.0, 1.0, inf, 1e-300) == inf
        assert _envelope_at(2.0, 0.0, inf, 1e-300) == inf
        # a term with coefficient 0 stays dropped
        assert _envelope_at(0.0, 0.0, inf, 1.0) == 0.0


@pytest.mark.parametrize("x0_norm", [math.nan, math.inf, -5.0])
@pytest.mark.parametrize(
    "curve",
    [
        lambda x0_norm: first_moment_curve(R_BIMOL, x0_norm, [0.0, 1.0]),
        lambda x0_norm: second_moment_curve(R_BIMOL, x0_norm, [0.0, 1.0]),
        lambda x0_norm: pth_moment_curve(R_BIMOL, x0_norm, 3, [0.0, 1.0]),
    ],
    ids=["first", "second", "pth"],
)
def test_moment_curves_reject_a_bad_x0_norm(curve, x0_norm):
    # a NaN would fill the curve, a negative norm gives a negative "bound"
    with pytest.raises(ValueError, match="x0_norm"):
        curve(x0_norm)


class TestSecondMoment:
    def test_a_zero_takes_eps_zero_limit(self):
        curve = second_moment_curve(R_REV, 10.0, np.linspace(0, 1, 5))
        # beta = |(1'N)^2|_inf gamma + 2 alpha exactly at eps = 0
        assert curve.inputs["eps"] == 0.0
        beta = R_REV.norm_1tN_sq * R_REV.gamma + 2 * R_REV.alpha
        assert curve.inputs["beta"] == pytest.approx(beta)

    def test_eps_optimized_finite(self):
        curve = second_moment_curve(R_BIMOL, 0.0, np.linspace(0, 1, 5))
        assert 0 < curve.inputs["eps"] <= 1e3
        assert np.isfinite(curve.values).all()

    def test_eps_near_optimal(self):
        grid = np.linspace(0.0, 1.0, 5)
        auto = second_moment_curve(R_BIMOL, 0.0, grid)
        t_mid = 0.5
        mid = lambda c: np.interp(t_mid, c.times, c.values)
        for eps in (0.05, 0.2, 1.0, 5.0, 25.0):
            manual = second_moment_curve(R_BIMOL, 0.0, grid, eps=eps)
            assert mid(auto) <= mid(manual) * (1 + 1e-9)

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_eps_rejected(self, eps):
        # at eps = 0 the A^2 / eps term is infinite while A > 0
        assert R_BIMOL.A > 0
        with pytest.raises(ValueError, match="eps"):
            second_moment_curve(R_BIMOL, 0.0, np.linspace(0, 1, 5), eps=eps)

    def test_eps_zero_allowed_when_a_is_zero(self):
        grid = np.linspace(0, 1, 5)
        explicit = second_moment_curve(R_REV, 10.0, grid, eps=0.0)
        assert np.array_equal(explicit.values, second_moment_curve(R_REV, 10.0, grid).values)
        with pytest.raises(ValueError, match="eps"):
            second_moment_curve(R_REV, 10.0, grid, eps=-1.0)


def _phi_reference(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1) / z with the analytic value 1 at z = 0, as an array formula."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    nz = np.abs(z) > 1e-12
    with np.errstate(over="ignore"):
        out[nz] = np.expm1(z[nz]) / z[nz]
    small = ~nz
    out[small] = 1.0 + z[small] / 2.0 + z[small] ** 2 / 6.0
    return out


def _envelope_reference(x0_pow, b_const, beta, grid) -> np.ndarray:
    """The envelope as the array formula the recorded bound bytes came from."""
    beta_plus = max(beta, 0.0)
    t = np.asarray(grid, dtype=float)
    out = np.zeros_like(t)
    with np.errstate(over="ignore"):
        if x0_pow:
            out = out + x0_pow * np.exp(beta_plus * t)
        if b_const:
            out = out + b_const * t * _phi_reference(beta_plus * t)
    return out


class TestEnvelopeAt:
    """The envelope equals the array formula of the recorded bytes bit for bit."""

    def _cases(self):
        rng = np.random.default_rng(5)
        coeffs = [0.0, 1.0, *(10 ** rng.uniform(-3, 6, 6))]
        betas = [-2.0, 0.0, 1e-15, 3e-13, *(10 ** rng.uniform(-14, 3, 8)), 1e300, np.inf]
        times = [0.0, 1e-12, 0.5, *rng.uniform(0, 1000, 4), 1e10]
        for x0_pow in coeffs:
            for b_const in coeffs:
                for beta in betas:
                    for t in times:
                        yield x0_pow, b_const, float(beta), float(t)

    def test_bits_match_the_array_envelope(self):
        seen = set()
        with np.errstate(invalid="ignore"):
            for x0_pow, b_const, beta, t in self._cases():
                want = float(_envelope_reference(x0_pow, b_const, beta, np.array([t]))[0])
                got = _envelope_at(x0_pow, b_const, beta, t)
                assert type(got) is float
                if math.isnan(want):
                    # the array formula's inf * 0 at t = 0 and inf / inf where
                    # z = beta t is inf: the envelope is x0_pow at t = 0 and
                    # inf after
                    want = (x0_pow or 0.0) if t == 0.0 else math.inf
                    seen.add("nan in the array formula")
                assert got.hex() == want.hex(), (x0_pow, b_const, beta, t)
                z = max(beta, 0.0) * t
                seen.add("series" if abs(z) <= 1e-12 else "expm1")
                seen.add("inf" if got == math.inf else "finite")
        assert seen == {"series", "expm1", "inf", "finite", "nan in the array formula"}

    def test_no_warning_escapes(self):
        # z from 709 to 710 is where exp and expm1 overflow: the only numpy
        # calls there are made under errstate
        edge = [(1.0, 1.0, z, 1.0) for z in (709.0, 709.5, 709.78, 709.79, 709.9, 710.0)]
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for case in [*self._cases(), *edge]:
                got = _envelope_at(*case)
                assert type(got) is float
        with np.errstate(over="ignore"):
            for x0_pow, b_const, beta, t in edge:
                want = float(_envelope_reference(x0_pow, b_const, beta, np.array([t]))[0])
                assert _envelope_at(x0_pow, b_const, beta, t).hex() == want.hex(), beta

    def test_grids_match_the_array_envelope(self):
        # multi-point grids run numpy's array kernels in the reference
        rng = np.random.default_rng(6)
        with np.errstate(invalid="ignore"):
            for _ in range(300):
                grid = np.sort(10 ** rng.uniform(-14, 4, int(rng.integers(1, 70))))
                if rng.random() < 0.5:
                    grid[0] = 0.0
                x0_pow, b_const = (float(rng.choice([0.0, 10 ** rng.uniform(-3, 6)]))
                                   for _ in range(2))
                beta = float(rng.choice([0.0, -1.0, 10 ** rng.uniform(-14, 3)]))
                want = _envelope_reference(x0_pow, b_const, beta, grid)
                got = _envelope(x0_pow, b_const, beta, grid)
                assert got.dtype == np.float64 and got.shape == grid.shape
                assert got.tobytes() == want.tobytes(), (x0_pow, b_const, beta)


class TestPthMoment:
    def test_p_must_exceed_two(self):
        with pytest.raises(ValueError):
            pth_moment_curve(R_BIMOL, 0.0, 2, np.linspace(0, 1, 3))

    def test_no_reactions_growth_from_p_term(self):
        from jkl.model import ReactionNetwork

        rep = analyze(ReactionNetwork(("A",), (), {}))
        curve = pth_moment_curve(rep, 2.0, 3, np.array([0.0, 1.0]))
        # beta = p - 1 with alpha = 0; B = 0: pure exponential envelope
        assert curve.values[0] == pytest.approx(8.0)
        assert curve.values[1] == pytest.approx(8.0 * math.exp(2.0))

    @pytest.mark.parametrize("p", [3, 4])
    def test_constants_from_the_report_fields(self, p):
        # bimol has Gamma > 0, so each Gamma term moves B and beta
        r = R_BIMOL
        assert r.Gamma > 0
        curve = pth_moment_curve(r, 1.0, p, np.array([0.0, 1.0]))
        npow = r.norm_1tN**p
        assert curve.inputs["B"] == r.A**p + r.Gamma * npow
        beta = (p - 1 + p * r.alpha) + (r.Gamma + r.gamma) * (2.0**p - 2 - p) * npow
        assert curve.inputs["beta"] == beta

    def test_finite_on_enzyme(self):
        # the exponent beta is ~1e5 here, so stay within float range in t
        rep = analyze(get_preset("enzyme").network)
        curve = pth_moment_curve(rep, 20.0, 4, np.linspace(0.0, 5e-3, 5))
        assert np.isfinite(curve.values).all()
        assert (curve.values > 0).all()


class TestAsymptotic:
    def test_pure_decay(self):
        # alpha = -k; with the integer-lattice growth convention the decay
        # also carries gamma = k, so the margin shrinks with p
        rep = analyze(parse_model("species A\nR: A -> 0 @ 1.0"))
        assert rep.alpha == -1.0 and rep.gamma == 1.0
        assert asymptotic_check(rep, 1) == pytest.approx(2.0)
        assert asymptotic_check(rep, 2) == pytest.approx(1.0)
        assert asymptotic_check(rep, 3) is None  # margin hits zero

    @pytest.mark.parametrize("p", [0, -1])
    def test_order_below_one_rejected(self, p):
        with pytest.raises(ValueError, match="p must be a positive integer"):
            asymptotic_check(R_BIMOL, p)

    def test_pure_decay_with_inflow_first_moment(self):
        # kappa_1 = -2 alpha never involves gamma
        rep = analyze(get_preset("extended-bimol").network)
        assert asymptotic_check(rep, 1) == pytest.approx(2.0)

    def test_alpha_zero_never_satisfied(self):
        for p in (1, 2, 5):
            assert asymptotic_check(R_BIMOL, p) is None

    def test_extended_bimol_threshold(self):
        rep = analyze(get_preset("extended-bimol").network)
        # condition: 2 alpha + gamma s (p - 1) < 0 with alpha = -k3
        s = rep.norm_1tN_sq
        p_max = 1 + 2.0 * 1.0 / (rep.gamma * s)
        for p in range(1, 8):
            kappa = asymptotic_check(rep, p)
            if p < p_max:
                assert kappa == pytest.approx(2.0 - rep.gamma * s * (p - 1))
            else:
                assert kappa is None


class TestOdeDivergence:
    def test_equal_initial_data_zero(self):
        curve = ode_divergence_bound(BIMOL, [3.0, 3.0], [3.0, 3.0], np.linspace(0, 1, 9))
        assert np.allclose(curve.values, 0.0)

    def test_contractive_linear_model(self):
        grid = np.linspace(0.0, 0.01, 101)
        curve = ode_divergence_bound(ENZYME_LIN, [10.0], [12.0], grid)
        expect = 2.0 * np.exp(-1001.0 * grid)
        assert np.allclose(curve.values, expect, rtol=1e-6)

    def test_dominates_actual_ode_difference(self):
        grid = np.linspace(0.0, 1.0, 201)
        curve = ode_divergence_bound(BIMOL, [10.0, 10.0], [11.0, 10.0], grid)
        sx = integrate_rre(BIMOL, [10.0, 10.0], grid, tol=1e-10)
        sy = integrate_rre(BIMOL, [11.0, 10.0], grid, tol=1e-10)
        diff = np.linalg.norm(sx.states - sy.states, axis=1)
        assert (diff <= curve.values + 1e-8).all()

    @pytest.mark.parametrize(
        "name", ["bimol", "reversible", "reversible-open", "extended-bimol", "enzyme-linear"]
    )
    def test_finite_values_are_the_array_formula_bytes(self, name):
        # reference: the numpy array formula the per-time float path replaced
        net = get_preset(name).network
        x0 = np.array(get_preset(name).x0, dtype=float) + 1.0
        y0 = x0 + np.eye(len(x0))[0]
        grid = np.linspace(0.0, 2.0, 9)
        m, mu = one_sided_constants(net)
        sigma = sum(integrate_rre(net, s, grid, ODE_TOL).states.sum(axis=1) for s in (x0, y0))
        c_vals = m + mu * sigma
        steps = 0.5 * (c_vals[1:] + c_vals[:-1]) * np.diff(grid)
        integral = np.concatenate([[0.0], np.cumsum(steps)])
        want = np.linalg.norm(x0 - y0) * np.exp(integral)
        assert np.isfinite(want).all()
        assert ode_divergence_bound(net, x0, y0, grid).values.tobytes() == want.tobytes()


class TestInitialPerturbation:
    def test_equal_states_identically_zero(self):
        curve = initial_perturbation_curve(R_BIMOL, [5, 5], [5, 5], np.linspace(0, 1, 9))
        assert np.allclose(curve.values, 0.0)

    def test_quadrature_matches_closed_form_linear_network(self):
        # mu = lam' = 0: R(t) = L' (1 - e^(-M t)) / M in closed form
        rep = analyze(parse_model("species A\nR: A -> 0 @ 1.0"))
        assert rep.mu == 0.0 and rep.lam_prime == 0.0 and rep.L_prime == 1.0
        grid = np.linspace(0.0, 1.0, 200_001)
        curve = initial_perturbation_curve(rep, [3], [5], grid)
        m = rep.M
        r_exact = rep.L_prime * (np.exp(-m * grid) - 1.0) / (-m)
        expect = np.exp(m * grid) * (2.0 + r_exact / 2.0)
        assert np.allclose(curve.values, expect, atol=1e-10)

    def test_leading_order_tagged(self):
        curve = initial_perturbation_curve(R_BIMOL, [10, 10], [11, 10], np.linspace(0, 0.05, 6))
        assert curve.leading_order
        assert curve.values[0] == pytest.approx(1.0)


# each perturbation envelope, called with state s where the report wants
# one finite, non-negative value per species
STATE_CURVES = {
    "initial-x0": lambda s: initial_perturbation_curve(R_BIMOL, s, [0, 0], [0.0, 0.1]),
    "initial-y0": lambda s: initial_perturbation_curve(R_BIMOL, [0, 0], s, [0.0, 0.1]),
    "coeff": lambda s: coefficient_perturbation_curve(R_BIMOL, s, 0.1, 0.1, [0.0, 0.1]),
}
BAD_STATES = {
    "negative": ([-3, 0], "non-negative"),
    "short": ([1], "2 finite values"),
    "long": ([1, 1, 1], "2 finite values"),
    "nan": ([math.nan, 0], "2 finite values"),
    "inf": ([0, math.inf], "2 finite values"),
}


@pytest.mark.parametrize("state", list(BAD_STATES.values()), ids=list(BAD_STATES))
@pytest.mark.parametrize("curve", list(STATE_CURVES.values()), ids=list(STATE_CURVES))
def test_perturbation_curves_reject_a_bad_state(curve, state):
    values, message = state
    with pytest.raises(ValueError, match=message):
        curve(values)


class TestCoefficientPerturbation:
    GRID = np.linspace(0.0, 0.05, 11)

    def test_zero_perturbation_small_time_vanishes(self):
        curve = coefficient_perturbation_curve(R_BIMOL, [10, 10], 0.0, 0.0, self.GRID, "small-time")
        assert np.allclose(curve.values, 0.0)

    def test_variant_limits_at_tiny_delta(self):
        small = coefficient_perturbation_curve(
            R_BIMOL, [10, 10], 1e-12, 1e-12, self.GRID, "small-time"
        )
        large = coefficient_perturbation_curve(
            R_BIMOL, [10, 10], 1e-12, 1e-12, self.GRID, "large-time"
        )
        # the small-time envelope vanishes with the perturbation; the
        # large-time one keeps the Lipschitz terms
        assert small.values[-1] < 1e-4
        assert large.values[-1] > 0.1

    def test_crossover_ordering(self):
        pert = PerturbationSpec({"k2": 0.1})
        delta, delta_f = pert.totals(BIMOL)
        grid = np.linspace(0.0, 1.0, 400)
        small = coefficient_perturbation_curve(R_BIMOL, [10, 10], delta, delta_f, grid, "small-time")
        large = coefficient_perturbation_curve(R_BIMOL, [10, 10], delta, delta_f, grid, "large-time")
        rel = small.values[1:] - large.values[1:]
        assert rel[0] < 0  # small-time is tighter initially
        assert rel[-1] > 0  # ordering flips for long times
        flips = np.where(np.diff(np.sign(rel)))[0]
        assert len(flips) == 1  # single crossover

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            coefficient_perturbation_curve(R_BIMOL, [1, 1], 0.1, 0.1, self.GRID, "mid-time")


class TestCubicLowerBound:
    def test_below_three_is_zero(self):
        curve = cubic_blowup_lowerbound(2, np.linspace(0, 1, 5))
        assert np.allclose(curve.values, 0.0)

    @pytest.mark.parametrize(
        "x0, message",
        [(-4, "non-negative"), (-1, "non-negative"), (3.5, "integer counts"),
         (math.nan, "integer counts"), (2**63, "fit a 64-bit integer")],
    )
    def test_x0_must_be_a_count(self, x0, message):
        with pytest.raises(ValueError, match=message):
            cubic_blowup_lowerbound(x0, np.linspace(0, 1, 3))

    def test_integral_float_x0_accepted(self):
        grid = np.linspace(0, 0.01, 3)
        assert (
            cubic_blowup_lowerbound(5.0, grid).values.tobytes()
            == cubic_blowup_lowerbound(5, grid).values.tobytes()
        )

    def test_value_at_zero(self):
        curve = cubic_blowup_lowerbound(5, np.array([0.0]))
        assert curve.values[0] == pytest.approx(60.0)

    def test_asymptote_location_and_infinities(self):
        from jkl.bounds import CUBIC_COMPARISON_GAMMA

        m0 = 10 * 9 * 8
        t_blow = 1.0 / (3.0 * CUBIC_COMPARISON_GAMMA * m0 ** (1.0 / 3.0))
        grid = np.array([0.0, 0.5 * t_blow, 0.99 * t_blow, t_blow, 2 * t_blow])
        curve = cubic_blowup_lowerbound(10, grid)
        assert curve.inputs["t_blowup"] == pytest.approx(t_blow)
        assert np.isfinite(curve.values[:3]).all()
        assert np.isinf(curve.values[3:]).all()

    def test_initial_slope_below_true_generator_rate(self):
        # d/dt E C3 at t = 0 is exactly 9 m0 (x0 - 4/3); the bound's slope
        # 9 gamma m0^(4/3) sits below it because gamma m0^(1/3) <= x0 - 4/3
        from jkl.bounds import CUBIC_COMPARISON_GAMMA

        for x0 in (3, 5, 10, 20):
            m0 = x0 * (x0 - 1) * (x0 - 2)
            h = 1e-9
            curve = cubic_blowup_lowerbound(x0, np.array([0.0, h]))
            slope = (curve.values[1] - curve.values[0]) / h
            assert slope == pytest.approx(
                9.0 * CUBIC_COMPARISON_GAMMA * m0 ** (4.0 / 3.0), rel=1e-5
            )
            assert slope <= 9.0 * m0 * (x0 - 4.0 / 3.0) + 1e-6

    def test_generator_identity_via_finite_differences(self):
        # the third-falling-moment generator is 9 C3(x) (x - 4/3): check the
        # one-step finite differences against it on the lattice
        def c3(x):
            return x * (x - 1) * (x - 2)

        for x in range(3, 30):
            w_decay = c3(x) / 2.0
            w_birth = float(c3(x))
            gen = w_decay * (c3(x - 2) - c3(x)) + w_birth * (c3(x + 1) - c3(x))
            assert gen == pytest.approx(9.0 * c3(x) * (x - 4.0 / 3.0), rel=1e-12)

    def test_exact_master_equation_dominates_bound(self):
        # the truncated-master-equation value sits above the bound on the
        # whole validity window
        from jkl import cme
        from jkl.presets import get_preset

        net = get_preset("cubic").network
        idx = cme.enumerate_states(net, [10], 80)
        gen = cme.build_generator(net, idx)
        grid = np.linspace(1e-5, 6e-4, 12)
        sol = cme.integrate_cme(gen, cme.point_mass(idx, [10]), grid, tol=1e-13)
        xs = idx.states[:, 0].astype(float)
        c3 = xs * (xs - 1) * (xs - 2)
        exact = sol.probs @ c3
        curve = cubic_blowup_lowerbound(10, grid)
        assert (exact >= curve.values - 1e-9).all()

    def test_csv_format(self):
        curve = cubic_blowup_lowerbound(3, np.array([0.0, 0.01]))
        lines = curve.to_csv().splitlines()
        assert lines[0] == "time,value,formula"
        assert lines[1].endswith("cubic-third-moment-lower")


# every curve that takes a time grid, called with a valid report and state
GRID_CURVES = {
    "first": lambda grid: first_moment_curve(R_BIMOL, 3.0, grid),
    "second": lambda grid: second_moment_curve(R_BIMOL, 3.0, grid),
    "pth": lambda grid: pth_moment_curve(R_BIMOL, 3.0, 3, grid),
    "initial": lambda grid: initial_perturbation_curve(R_BIMOL, [10, 10], [11, 9], grid),
    "coeff": lambda grid: coefficient_perturbation_curve(R_BIMOL, [10, 10], 0.1, 0.1, grid),
    "cubic": lambda grid: cubic_blowup_lowerbound(5, grid),
    "cubic-below-three": lambda grid: cubic_blowup_lowerbound(2, grid),
}

BAD_GRIDS = {
    "negative": [-1.0, 0.0],
    "decreasing": [1.0, 0.5],
    "repeated": [0.5, 0.5],
    "empty": [],
    "two-d": [[0.0, 1.0], [2.0, 3.0]],
    "inf": [0.0, math.inf],
    "nan": [0.0, math.nan],
}


@pytest.mark.parametrize("grid", list(BAD_GRIDS.values()), ids=list(BAD_GRIDS))
@pytest.mark.parametrize("curve", list(GRID_CURVES.values()), ids=list(GRID_CURVES))
def test_bad_grid_rejected(curve, grid):
    with pytest.raises(ValueError, match="grid"):
        curve(grid)
