"""Stability analyzer: closed forms, oracles, certification by sampling."""

import math

import numpy as np
import pytest
import scipy.optimize

from jkl import analyzer
from jkl.analyzer import (
    CubicUnsupported,
    InvalidNetworkError,
    QuadraticObstruction,
    WeightVectorNotFound,
    analyze,
    drift_constants,
    find_weight_vector,
    growth_constants,
    lipschitz_constants,
    log_norm,
    log_norm_rank1,
    one_sided_constants,
    ray_diagnostic,
)
from jkl.model import drift_eval, propensity_eval
from jkl.parser import parse_model
from jkl.presets import get_preset

SQ2, SQ3, SQ5 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)

BIMOL = get_preset("bimol").network
REVERSIBLE = get_preset("reversible").network
OPEN = get_preset("reversible-open").network
EXTENDED = get_preset("extended-bimol").network
ENZYME = get_preset("enzyme").network
ENZYME_LIN = get_preset("enzyme-linear").network


class TestLogNorm:
    def test_identity(self):
        assert log_norm(np.eye(3)) == pytest.approx(1.0)

    def test_rank1_against_eigensolve(self):
        # M = -nu q^T for a conversion step: ((-nu, q) + |nu||q|)/2
        nu = np.array([1.0, -1.0])
        q = np.array([1.0, 0.0])
        direct = log_norm(-np.outer(nu, q))
        assert direct == pytest.approx((SQ2 - 1) / 2, abs=1e-14)
        assert log_norm_rank1(-nu, q) == pytest.approx(direct, abs=1e-14)

    def test_random_rank1_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            d = rng.integers(1, 7)
            a = rng.normal(size=d)
            b = rng.normal(size=d)
            assert log_norm_rank1(a, b) == pytest.approx(
                log_norm(np.outer(a, b)), abs=1e-10
            )

    def test_rayleigh_quotient_oracle(self):
        # brute force, no eigensolver: random unit vectors bound the top
        # Rayleigh quotient from below; power iteration from the best start
        # converges to it
        rng = np.random.default_rng(7)
        mtx = rng.normal(size=(5, 5))
        sym = (mtx + mtx.T) / 2
        u = rng.normal(size=(100_000, 5))
        u /= np.linalg.norm(u, axis=1)[:, None]
        quots = np.einsum("ij,jk,ik->i", u, sym, u)
        ln = log_norm(mtx)
        assert quots.max() <= ln + 1e-12
        shift = sym + 10.0 * np.eye(5)  # make the top eigenvalue dominant
        v = u[quots.argmax()]
        for _ in range(300):
            v = shift @ v
            v /= np.linalg.norm(v)
        assert float(v @ sym @ v) == pytest.approx(ln, abs=1e-10)

    def test_second_eigensolver_agreement(self):
        import scipy.linalg

        rng = np.random.default_rng(3)
        for _ in range(20):
            mtx = rng.normal(size=(6, 6))
            sym = (mtx + mtx.T) / 2
            assert log_norm(mtx) == pytest.approx(
                float(scipy.linalg.eigvalsh(sym)[-1]), abs=1e-10
            )

    def test_transpose_and_scaling_invariance(self):
        rng = np.random.default_rng(11)
        mtx = rng.normal(size=(4, 4))
        assert log_norm(mtx) == pytest.approx(log_norm(mtx.T), abs=1e-12)
        for c in (0.0, 0.5, 3.0):
            assert log_norm(c * mtx) == pytest.approx(c * log_norm(mtx), abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            log_norm(np.array([[np.inf]]))


class TestWeightVector:
    def test_reversible_annihilator(self):
        l = find_weight_vector(REVERSIBLE)
        assert np.allclose(l, [1.0, 1.0, 2.0])

    def test_three_product_example(self):
        net = parse_model("species A B C\nR: A + B -> 3 C @ 1.0")
        l = find_weight_vector(net)
        # [3, 3, 2] up to scaling, normalized to min = 1
        assert np.allclose(l, [1.5, 1.5, 1.0])
        assert l @ np.array(net.reactions[0].nu) == pytest.approx(0.0, abs=1e-12)

    def test_explosive_not_found(self):
        net = parse_model("species A\nR: 2 A -> 3 A @ 1.0")
        with pytest.raises(WeightVectorNotFound) as err:
            find_weight_vector(net)
        assert err.value.obstructions == ["R"]

    def test_inequality_fallback(self):
        # C + E -> E consumes C only; no positive annihilator exists but
        # any positive l already gives l . nu >= 0
        l = find_weight_vector(ENZYME)
        assert l.min() == pytest.approx(1.0)
        for j, rxn in enumerate(ENZYME.reactions):
            if rxn.propensity.order >= 2:
                assert l @ np.array(rxn.nu) >= -1e-12

    def test_no_superlinear_gives_ones(self):
        net = parse_model("species A\nR: A -> 0 @ 1.0")
        assert np.array_equal(find_weight_vector(net), [1.0])

    def test_min_normalization_invariant(self):
        for net in (REVERSIBLE, ENZYME):
            l = find_weight_vector(net)
            assert l.min() == pytest.approx(1.0, abs=1e-9)


# networks with a nonzero one-signed superlinear column and fewer independent
# superlinear columns than species, so the exact search used to run on them,
# and the weight vector each got then
ONE_SIGNED = {
    "enzyme": (ENZYME, [1.0, 1.0]),
    "two-columns": (
        parse_model("species A B C\nR1: A + B -> 0 @ 1\nR2: 2 B -> 3 C @ 1\nR3: C -> A @ 0.5"),
        [1.0, 1.5, 1.0],
    ),
    "three-columns": (
        parse_model("species A B C D\nR1: A + B -> 0 @ 1\nR2: 2 C -> 3 D @ 1\n"
                    "R3: C + D -> 2 A + B @ 0.3\nR4: 0 -> A @ 2"),
        [1.0, 1.0, 2.0, 1.0],
    ),
}


class TestSignTest:
    """A superlinear column nu_r != 0 whose entries share one sign has
    l . nu_r != 0 for every l > 0, so the exact annihilator search is
    skipped and the inequality LP decides."""

    @pytest.fixture
    def no_exact_search(self, monkeypatch):
        def fail(n2t):
            raise AssertionError("exact annihilator search ran on a one-signed column")

        monkeypatch.setattr(analyzer, "_min_norm_positive", fail)

    @pytest.mark.parametrize("name", sorted(ONE_SIGNED))
    def test_one_signed_column_skips_exact_search(self, no_exact_search, name):
        net, l_want = ONE_SIGNED[name]
        assert find_weight_vector(net).tolist() == l_want

    def test_one_signed_explosive_still_not_found(self, no_exact_search):
        with pytest.raises(WeightVectorNotFound):
            find_weight_vector(parse_model("species A\nR: 2 A -> 3 A @ 1.0"))

    def test_exact_search_fails_on_every_one_signed_column(self):
        # the skip changes no result: on seeded random superlinear columns
        # with one nonzero one-signed column, the search the skip replaces
        # returns None, as it did before the skip
        rng = np.random.default_rng(11)
        runs = 0
        while runs < 120:
            dim, rows = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            n2t = rng.integers(-3, 4, size=(rows, dim)).astype(float)
            row = n2t[rng.integers(rows)]
            row[:] = np.abs(row) * (1 if rng.random() < 0.5 else -1)
            if not row.any():
                continue
            runs += 1
            assert analyzer._min_norm_positive(n2t) is None, n2t.tolist()


# superlinear networks with a nonzero column that has no positive entry, and
# the obstructions the inequality LP's failure reported for them
NO_POSITIVE_ENTRY = {
    "explosive-dimer": ("species A\nR: 2 A -> 3 A @ 1.0", ["R"]),
    "pair-growth": ("species A B\nR1: A + B -> 2 A + 2 B @ 1\nR2: 2 A -> B @ 1", ["R1", "R2"]),
    "catalysed-birth": (
        "species A B C\nR1: A + B -> A + B + C @ 1\nR2: 2 C -> 0 @ 1\nR3: 0 -> A @ 1",
        ["R1"],
    ),
}


@pytest.mark.parametrize("name", sorted(NO_POSITIVE_ENTRY))
def test_lp_skipped_without_a_positive_entry(monkeypatch, name):
    # l . nu_r < 0 for every l > 0 on such a column, so no LP runs and the
    # search fails with the same obstructions as when the LP failed
    def fail(*args, **kwargs):
        raise AssertionError("the inequality LP ran on a column with no positive entry")

    monkeypatch.setattr(scipy.optimize, "linprog", fail)
    text, obstructions = NO_POSITIVE_ENTRY[name]
    with pytest.raises(WeightVectorNotFound) as exc:
        find_weight_vector(parse_model(text))
    assert exc.value.obstructions == obstructions
    assert str(exc.value) == (
        "no strictly positive weight vector l satisfies l . nu_r >= 0 on every "
        f"superlinear column; obstructing reactions: {', '.join(obstructions)}"
    )


class TestDriftConstants:
    def test_bimol(self):
        assert drift_constants(BIMOL) == pytest.approx((2.0, 0.0), abs=1e-12)

    def test_reversible(self):
        assert drift_constants(REVERSIBLE) == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_open(self):
        # (A, alpha) = (k4, (k2 - k3) v 0); unit rates give (1, 0)
        assert drift_constants(OPEN) == pytest.approx((1.0, 0.0), abs=1e-12)
        shifted = parse_model(
            "species A B C\nk1 = 1.0\nk2 = 3.0\nk3 = 1.0\nk4 = 2.0\n"
            "R1: A + B -> C @ k1\nR2: C -> A + B @ k2\nR3: C -> 0 @ k3\nR4: 0 -> C @ k4"
        )
        assert drift_constants(shifted) == pytest.approx((2.0, 2.0), abs=1e-12)

    def test_extended_bimol_negative_alpha(self):
        assert drift_constants(EXTENDED) == pytest.approx((2.0, -1.0), abs=1e-12)

    def test_quadratic_obstruction(self):
        net = parse_model("species A B C\nR: A + B -> 3 C @ 1.0")
        with pytest.raises(QuadraticObstruction, match="find_weight_vector"):
            drift_constants(net)
        # the weight vector removes the obstruction
        a, alpha = drift_constants(net, find_weight_vector(net))
        assert (a, alpha) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_cubic_rejected(self):
        with pytest.raises(CubicUnsupported):
            drift_constants(get_preset("cubic").network)

    def test_certifies_inequality(self):
        rng = np.random.default_rng(5)
        for net, l in ((BIMOL, None), (OPEN, None), (EXTENDED, None), (ENZYME, None)):
            a, alpha = drift_constants(net, l)
            lv = np.ones(net.n_species)
            for _ in range(2000):
                x = rng.integers(0, 50, size=net.n_species)
                lhs = lv @ drift_eval(net, x)
                assert lhs <= a + alpha * (lv @ x) + 1e-9


class TestOneSidedConstants:
    # per-reaction special-case values at unit rate: conversion tables
    TABLE = [
        ("species A\nR: A -> 0 @ 1.0", 0.0, 0.0),
        ("species A B\nR: A -> B @ 1.0", (SQ2 - 1) / 2, 0.0),
        ("species A B C\nR: A -> B + C @ 1.0", (SQ3 - 1) / 2, 0.0),
        ("species A B\nR: A + B -> 0 @ 1.0", 0.0, (SQ2 - 1) / 4),
        ("species A B C\nR: A + B -> C @ 1.0", 0.0, (SQ3 - 1) / 4),
        ("species A B\nR: A + B -> A @ 1.0", 0.0, 1.0 / 4),
        ("species A B C\nR: A + B -> A + C @ 1.0", 0.0, SQ2 / 4),
        ("species A\nR: 2 A -> 0 @ 1.0", 2.0, 0.0),
        ("species A B\nR: 2 A -> B @ 1.0", SQ5 / 2 + 1, SQ5 / 2 - 1),
    ]

    @pytest.mark.parametrize("text,m_want,mu_want", TABLE)
    def test_table_rows_via_breakdown(self, text, m_want, mu_want):
        report = analyze(parse_model(text))
        row = report.per_reaction[0]
        assert row.M == pytest.approx(m_want, abs=1e-12)
        assert row.mu == pytest.approx(mu_want, abs=1e-12)

    def test_bimol_pair(self):
        m, mu = one_sided_constants(BIMOL)
        assert m == pytest.approx(0.0, abs=1e-12)
        assert mu == pytest.approx((SQ2 - 1) / 4, abs=1e-12)

    def test_reversible_pair(self):
        m, mu = one_sided_constants(REVERSIBLE)
        assert m == pytest.approx((SQ3 - 1) / 2, abs=1e-12)
        assert mu == pytest.approx((SQ3 - 1) / 4, abs=1e-12)

    def test_enzyme_pairs(self):
        m, mu = one_sided_constants(ENZYME)
        assert m <= 1.0 + 1e-12
        assert mu == pytest.approx(25.0, abs=1e-12)
        m_lin, mu_lin = one_sided_constants(ENZYME_LIN)
        assert m_lin == pytest.approx(-1001.0, abs=1e-12)
        assert mu_lin == pytest.approx(0.0, abs=1e-12)

    def test_decay_chain_combined_bound(self):
        net = parse_model(
            "species A1 A2 A3\nR1: A1 -> A2 @ 1.0\nR2: A2 -> A3 @ 1.0\nR3: A3 -> 0 @ 1.0"
        )
        report = analyze(net)
        assert report.M_combined <= 0.0
        assert report.M == report.M_combined < report.M_special_sum

    def test_lone_decay_combined_is_sharper(self):
        # the special case gives 0; the combined linear log-norm gives -k
        report = analyze(parse_model("species A\nR: A -> 0 @ 1.0"))
        assert report.M_special_sum == pytest.approx(0.0, abs=1e-12)
        assert report.M == pytest.approx(-1.0, abs=1e-12)

    def test_subadditivity_on_random_splits(self):
        rng = np.random.default_rng(9)
        reactions = OPEN.reactions
        from jkl.model import ReactionNetwork

        m_full, _ = one_sided_constants(OPEN)
        for _ in range(10):
            mask = rng.integers(0, 2, size=len(reactions)).astype(bool)
            if mask.all() or (~mask).any() is False:
                continue
            part1 = ReactionNetwork(OPEN.species, tuple(np.array(reactions, dtype=object)[mask]), {})
            part2 = ReactionNetwork(OPEN.species, tuple(np.array(reactions, dtype=object)[~mask]), {})
            m1, _ = one_sided_constants(part1)
            m2, _ = one_sided_constants(part2)
            assert m_full <= m1 + m2 + 1e-12

    def test_certifies_inequality(self):
        rng = np.random.default_rng(12)
        for net in (BIMOL, REVERSIBLE, OPEN, EXTENDED):
            m, mu = one_sided_constants(net)
            for _ in range(2000):
                x = rng.integers(0, 50, size=net.n_species).astype(float)
                y = rng.integers(0, 50, size=net.n_species).astype(float)
                lhs = (x - y) @ (drift_eval(net, x) - drift_eval(net, y))
                rhs = (m + mu * (x + y).sum()) * ((x - y) @ (x - y))
                assert lhs <= rhs + 1e-9


class TestLipschitzGrowth:
    def test_bimol_lipschitz(self):
        assert lipschitz_constants(BIMOL) == pytest.approx((0.0, 0.5), abs=1e-12)

    def test_pure_birth(self):
        net = parse_model("species A\nR: 0 -> A @ 1.0")
        assert lipschitz_constants(net) == (0.0, 0.0)

    def test_dimer_split(self):
        net = parse_model("species A B\nR: 2 A -> B @ 1.0")
        assert lipschitz_constants(net) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_lipschitz_certifies(self):
        rng = np.random.default_rng(21)
        for net in (BIMOL, REVERSIBLE, ENZYME):
            big_l, lam = lipschitz_constants(net)
            for _ in range(2000):
                x = rng.integers(0, 21, size=net.n_species).astype(float)
                y = rng.integers(0, 21, size=net.n_species).astype(float)
                lhs = np.abs(propensity_eval(net, x) - propensity_eval(net, y)).sum()
                rhs = (big_l + lam * (x + y).sum()) * np.linalg.norm(x - y)
                assert lhs <= rhs + 1e-9

    def test_bimol_growth(self):
        assert growth_constants(BIMOL) == pytest.approx((2.0, 0.25), abs=1e-12)

    def test_empty_network_growth(self):
        from jkl.model import ReactionNetwork

        assert growth_constants(ReactionNetwork((), (), {})) == (0.0, 0.0)

    def test_enzyme_growth(self):
        gam_big, gam = growth_constants(ENZYME)
        assert gam_big == pytest.approx(10010.0 + 10.0, abs=1e-12)
        assert gam == pytest.approx(1.0 + 1.0 + 25.0, abs=1e-12)

    def test_growth_certifies(self):
        rng = np.random.default_rng(30)
        for net in (BIMOL, REVERSIBLE, OPEN, ENZYME):
            gam_big, gam = growth_constants(net)
            for _ in range(2000):
                x = rng.integers(0, 50, size=net.n_species).astype(float)
                assert propensity_eval(net, x).sum() <= gam_big + gam * x.sum() ** 2 + 1e-9


class TestRayDiagnostic:
    def test_reversible_cubic_growth(self):
        # (x, F(x)) = k1 N^3 - 3 k2 N^2 along (N, N, 3N)
        table = ray_diagnostic(REVERSIBLE, [1.0, 1.0, 3.0], 6)
        for n, val in zip(table.steps, table.x_dot_F):
            assert val == pytest.approx(n**3 - 3 * n**2, rel=1e-12, abs=1e-9)

    def test_bimol_norm_growth(self):
        # |F| grows like sqrt(2) k2 N^2 along the diagonal
        table = ray_diagnostic(BIMOL, [1.0, 1.0], 8)
        for n in table.steps[2:]:
            f = drift_eval(BIMOL, [n, n])
            assert np.linalg.norm(f) == pytest.approx(
                abs(math.sqrt(2) * (n**2 - 1.0)), rel=1e-12
            )

    def test_zero_direction(self):
        table = ray_diagnostic(BIMOL, [0.0, 0.0], 4)
        assert np.allclose(table.norm1, 0.0)
        assert np.allclose(table.x_dot_F, 0.0)


class TestAnalyze:
    def test_enzyme_report(self):
        report = analyze(ENZYME)
        assert report.M <= 1.0 + 1e-12
        assert report.mu == pytest.approx(25.0, abs=1e-12)
        assert report.norm_1tN2 == pytest.approx(1.0)  # all columns are unit steps

    def test_enzyme_linear_report(self):
        report = analyze(ENZYME_LIN)
        assert report.M == pytest.approx(-1001.0, abs=1e-12)
        assert report.mu == 0.0

    def test_bimol_norms(self):
        report = analyze(BIMOL)
        assert report.norm_1tN == 2.0  # column sums -1, -1, 2
        assert report.norm_1tN_sq == 4.0
        assert report.norm_1tN2 == 2.0  # squared-entry column sums 1, 1, 2

    # R3 raises |x|_1, so only a searched weight tames it
    OBSTRUCTED = parse_model(
        "species A B C\nk1 = 1.0\nk3 = 1.0\nR1: 0 -> A @ k1\nR2: 0 -> B @ k1\n"
        "R3: A + B -> 3 C @ 1.0\nR4: C -> 0 @ k3"
    )

    def test_auto_weight_on_obstructed_network(self):
        report = analyze(self.OBSTRUCTED, weight="auto")
        assert not np.allclose(report.l, 1.0)
        # d/dt (l, x) = 6 k1 - 2 k3 c (scaled by the min-normalization)
        lv = np.array(report.l)
        assert report.A == pytest.approx(float(lv[:2].sum()), abs=1e-12)

    @pytest.mark.parametrize("weight", ["ones", [1.0, 1.0, 1.0], np.ones(3)])
    def test_only_auto_searches_for_a_weight(self, weight):
        with pytest.raises(QuadraticObstruction, match="R3"):
            analyze(self.OBSTRUCTED, weight=weight)

    def test_unknown_weight_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown weight policy"):
            analyze(self.OBSTRUCTED, weight="best")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_explicit_weight_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            analyze(BIMOL, weight=[bad, 1.0])

    def test_invalid_network_rejected(self):
        from jkl.model import Propensity, Reaction, ReactionNetwork

        bad = ReactionNetwork(("A",), (Reaction("R1", (1,), Propensity(1.0)),), {})
        with pytest.raises(InvalidNetworkError):
            analyze(bad)

    def test_invalid_network_error_is_the_model_value_error(self):
        # one class for every entry point, so the CLI exits 2 for it everywhere
        from jkl import model

        assert InvalidNetworkError is model.InvalidNetworkError
        assert issubclass(InvalidNetworkError, ValueError)

    def test_report_json_fields(self):
        d = analyze(BIMOL).to_dict()
        for key in ("A", "alpha", "L", "lambda", "Gamma", "gamma", "M", "mu",
                    "l", "norm_1tN", "norm_1tN_sq", "norm_1tN2", "per_reaction"):
            assert key in d
        assert all(isinstance(d[k], float) for k in ("A", "alpha", "M", "mu"))

    def test_certification_random_sampling(self):
        # all four inequality pairs hold with the reported constants
        rng = np.random.default_rng(99)
        for net in (BIMOL, REVERSIBLE, OPEN, EXTENDED, ENZYME, ENZYME_LIN):
            rep = analyze(net)
            lv = np.array(rep.l)
            for _ in range(2500):
                x = rng.integers(0, 51, size=net.n_species).astype(float)
                y = rng.integers(0, 51, size=net.n_species).astype(float)
                fx, fy = drift_eval(net, x), drift_eval(net, y)
                wx, wy = propensity_eval(net, x), propensity_eval(net, y)
                assert lv @ fx <= rep.A + rep.alpha * (lv @ x) + 1e-9
                assert np.abs(wx - wy).sum() <= (
                    rep.L + rep.lam * (x + y).sum()
                ) * np.linalg.norm(x - y) + 1e-9
                assert wx.sum() <= rep.Gamma + rep.gamma * x.sum() ** 2 + 1e-9
                assert (x - y) @ (fx - fy) <= (
                    rep.M + rep.mu * (x + y).sum()
                ) * ((x - y) @ (x - y)) + 1e-9
