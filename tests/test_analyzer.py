"""Stability analyzer: closed forms, oracles, certification by sampling."""

import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize._highspy import _core as highs

from jkl import analyzer
from jkl.analyzer import (
    CubicUnsupported,
    InvalidNetworkError,
    QuadraticObstruction,
    RateOverflow,
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
from jkl.presets import PRESETS, get_preset
from test_golden import _random_order2

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


def _rank1_terms():
    """(D, M, reference, |a|) for each linear and dimer reaction of the presets and
    300 seeded random order-2 networks: the M term ``analyze`` sums, and the
    logarithmic norm of the rank-1 Jacobian part it stands for, -k nu e_n^T
    for a linear reaction and +k nu e_n^T (the -x_n part of x_n (x_n - 1))
    for a dimer, with a = -k nu or k nu, whose norm is the matrix's."""
    rng = np.random.default_rng(2012)
    nets = [get_preset(name).network for name in PRESETS]
    nets += [parse_model(_random_order2(rng)[0]) for _ in range(300)]
    terms = []
    for net in nets:
        for rxn in net.reactions:
            kind, k = rxn.propensity.kind, rxn.propensity.rate
            if kind not in ("linear", "dimer"):
                continue
            ((n, _),) = rxn.propensity.reactants
            a = (-k if kind == "linear" else k) * np.array(rxn.nu, dtype=float)
            reference = log_norm(np.outer(a, np.eye(net.n_species)[n]))
            m_r = analyzer._contribution(rxn).M
            terms.append((net.n_species, m_r, reference, float(np.linalg.norm(a))))
    return terms


def test_contribution_M_is_the_rank1_log_norm():
    # the per-kind M terms of _contribution, not log_norm_rank1, reach analyze
    counts = Counter()
    for dim, m_r, reference, scale in _rank1_terms():
        if dim == 1:  # no zero eigenvalue: (a + |a|) / 2 bounds a from above
            assert m_r >= reference, (m_r, reference)
            counts["bound"] += 1
        else:
            assert math.isclose(m_r, reference, rel_tol=1e-12, abs_tol=1e-12 * scale)
            counts["equal"] += 1
    assert counts["equal"] >= 400 and counts["bound"] >= 2, counts


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

    monkeypatch.setattr(analyzer, "_highs_solver", fail)
    text, obstructions = NO_POSITIVE_ENTRY[name]
    with pytest.raises(WeightVectorNotFound) as exc:
        find_weight_vector(parse_model(text))
    assert exc.value.obstructions == obstructions
    assert str(exc.value) == (
        "no strictly positive weight vector l satisfies l . nu_r >= 0 on every "
        f"superlinear column; obstructing reactions: {', '.join(obstructions)}"
    )


def _random_superlinear(rng: np.random.Generator) -> str:
    """An order <= 2 network with 2-8 species and 1-12 reactions."""
    names = [f"S{i}" for i in range(int(rng.integers(2, 9)))]

    def side(n: int) -> str:
        counts = Counter(rng.choice(names, size=n).tolist())
        return " + ".join(f"{c} {s}" if c > 1 else s for s, c in sorted(counts.items())) or "0"

    lines = ["species " + " ".join(names)]
    for r in range(int(rng.integers(1, 13))):
        lhs = side(int(rng.choice(3, p=[0.2, 0.3, 0.5])))
        lines.append(f"R{r + 1}: {lhs} -> {side(int(rng.integers(0, 4)))} @ 1")
    return "\n".join(lines) + "\n"


def _linprog_weight(n2t: np.ndarray) -> np.ndarray | None:
    """The inequality LP as ``linprog`` solves and checks it."""
    dim = n2t.shape[1]
    res = scipy.optimize.linprog(
        c=np.ones(dim), A_ub=-n2t, b_ub=np.zeros(len(n2t)), bounds=[(1.0, None)] * dim,
        method="highs",
    )
    return np.asarray(res.x, dtype=float) if res.status == 0 else None


def _searched(name: str, seed: int) -> list:
    """``(n2t, result)`` of every call of ``analyzer.<name>`` that
    ``find_weight_vector`` makes on 200 seeded random superlinear networks."""
    calls = []
    real = getattr(analyzer, name)

    def spy(n2t):
        calls.append((n2t.copy(), real(n2t)))
        return calls[-1][1]

    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analyzer, name, spy)
        for _ in range(200):
            try:
                find_weight_vector(parse_model(_random_superlinear(rng)))
            except WeightVectorNotFound:
                pass
    return calls


def _minimize_min_norm(n2t: np.ndarray) -> tuple[np.ndarray, bool]:
    """The exact weight-vector search as ``minimize(method="SLSQP")`` runs it."""
    dim = n2t.shape[1]
    res = scipy.optimize.minimize(
        lambda l: l @ l,
        x0=np.ones(dim),
        jac=lambda l: 2 * l,
        bounds=[(1.0, None)] * dim,
        constraints=[{"type": "eq", "fun": lambda l: n2t @ l, "jac": lambda l: n2t}],
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-14},
    )
    return np.asarray(res.x, dtype=float), bool(res.success)


class TestDirectSlsqp:
    """SLSQP's core loop called directly gives minimize's bits."""

    def test_every_slsqp_problem_of_seeded_networks_matches_minimize(self):
        problems = _searched("_slsqp_min_norm", 22)
        failed = 0
        for n2t, (x, success) in problems:
            want_x, want_success = _minimize_min_norm(n2t)
            assert success == want_success, n2t.tolist()
            assert x.tobytes() == want_x.tobytes(), n2t.tolist()
            failed += not success
        # infeasible problems, where SLSQP reports failure, are compared too
        assert len(problems) >= 30 and failed >= 5


def _fresh_highs_weight(n2t: np.ndarray) -> np.ndarray | None:
    """:func:`analyzer._min_sum_weight` on a newly built HiGHS solver with
    the reused solver's options."""
    solver = highs._Highs()
    solver.passOptions(analyzer._highs_solver().getOptions())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analyzer, "_highs_solver", lambda: solver)
        return analyzer._min_sum_weight(n2t)


def _bits(l: np.ndarray | None) -> bytes | None:
    return None if l is None else l.tobytes()


class TestDirectLp:
    """The weight-vector LP called on HiGHS directly gives linprog's bits."""

    def test_every_lp_of_seeded_networks_matches_linprog(self):
        lps = _searched("_min_sum_weight", 21)
        found = non_unique = 0
        for n2t, got in lps:
            want = _linprog_weight(n2t)
            assert (got is None) == (want is None), n2t.tolist()
            if want is None:
                continue
            found += 1
            assert got.tobytes() == want.tobytes(), n2t.tolist()
            # another optimal vertex with the species in reverse order
            other = _linprog_weight(n2t[:, ::-1])
            non_unique += bool(np.abs(other[::-1] - want).max() > 1e-6)
        assert len(lps) >= 100 and len(lps) - found >= 5 and non_unique >= 3

    def test_reused_solver_matches_a_fresh_one_in_either_order(self):
        # the LPs of the seeded networks, once forward and once reversed, on
        # this thread's one solver: what a previous LP left in it changes no bit
        n2ts = [n2t for n2t, _ in _searched("_min_sum_weight", 23)]
        assert analyzer._highs_solver() is analyzer._highs_solver()
        fresh = [_bits(_fresh_highs_weight(n2t)) for n2t in n2ts]
        assert len(n2ts) >= 100 and fresh.count(None) >= 5
        assert [_bits(analyzer._min_sum_weight(n2t)) for n2t in n2ts] == fresh
        assert [_bits(analyzer._min_sum_weight(n2t)) for n2t in n2ts[::-1]] == fresh[::-1]

    def test_two_threads_match_a_serial_run(self):
        import threading

        n2ts = [n2t for n2t, _ in _searched("_min_sum_weight", 24)]
        serial = [_bits(analyzer._min_sum_weight(n2t)) for n2t in n2ts]
        results, solvers = {}, {}
        barrier = threading.Barrier(2)

        def work(name, order):
            solvers[name] = analyzer._highs_solver()
            barrier.wait(timeout=60)
            results[name] = {i: _bits(analyzer._min_sum_weight(n2ts[i])) for i in order}

        order = list(range(len(n2ts)))
        threads = [threading.Thread(target=work, args=(name, seq))
                   for name, seq in (("forward", order), ("reversed", order[::-1]))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        # each thread solved on a solver of its own, and got the serial bits
        assert solvers["forward"] is not solvers["reversed"]
        assert solvers["forward"] is not analyzer._highs_solver()
        for name in ("forward", "reversed"):
            assert [results[name][i] for i in order] == serial, name

    def test_infeasible_lp_is_rejected(self):
        # l_A >= 2 l_B and l_B >= 2 l_A have no solution with l >= 1
        n2t = np.array([[1.0, -2.0], [-2.0, 1.0]])
        assert analyzer._min_sum_weight(n2t) is None and _linprog_weight(n2t) is None
        net = parse_model("species A B\nR1: 2 A -> A + 2 B @ 1\nR2: 2 B -> 2 A + B @ 1")
        with pytest.raises(WeightVectorNotFound, match="R1, R2"):
            find_weight_vector(net)


def _fraction_snap(l: np.ndarray, cols: list, equality: bool) -> np.ndarray:
    """The snap in ``Fraction`` arithmetic throughout."""
    snapped = [Fraction(v).limit_denominator(10**6) for v in l]
    lo = min(snapped)
    dots = (sum(c * v for c, v in zip(col, snapped)) for col in cols)
    if lo > 0 and all(d == 0 if equality else d >= 0 for d in dots):
        return np.array([float(v / lo) for v in snapped])
    return l / l.min()


def test_integer_snap_matches_the_fraction_snap():
    # rational vectors with small denominators, as the solvers return them up
    # to rounding, against columns that the snap keeps or breaks
    rng = np.random.default_rng(31)
    kept = 0
    for _ in range(2000):
        dim = int(rng.integers(2, 7))
        l = rng.integers(1, 40, size=dim) / rng.integers(1, 12, size=dim)
        l = l * (1.0 + rng.choice([0.0, 1e-13, -1e-13, 1e-4], size=dim))
        cols = [tuple(int(c) for c in rng.integers(-3, 4, size=dim))
                for _ in range(int(rng.integers(1, 4)))]
        for equality in (True, False):
            got = analyzer._snap_rational(l, cols, equality)
            assert got.tobytes() == _fraction_snap(l, cols, equality).tobytes()
            kept += got.tobytes() != (l / l.min()).tobytes()
    assert kept >= 500


def test_snap_falls_back_to_floats_when_no_rational_keeps_the_constraint():
    # the annihilator of (-1000004, 1000003) needs the denominator 1000003, so
    # the nearest rationals with denominators <= 10^6 break l . nu_r = 0 and
    # l . nu_r >= 0, and l is returned as floats scaled to min(l) = 1
    cols = [(-1000004, 1000003)]
    l = np.array([3.0, 3.0 * 1000004 / 1000003])
    snapped = [Fraction(v).limit_denominator(10**6) for v in l]
    assert sum(c * v for c, v in zip(cols[0], snapped)) < 0
    for equality in (True, False):
        got = analyzer._snap_rational(l, cols, equality)
        assert got.tobytes() == (l / l.min()).tobytes()
        assert got[1] != float(snapped[1] / snapped[0])


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

    @pytest.mark.parametrize("weight", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]])
    def test_weight_of_wrong_dimension_rejected(self, weight):
        with pytest.raises(ValueError, match="weight vector has wrong dimension"):
            drift_constants(BIMOL, weight)
        with pytest.raises(ValueError, match="weight vector has wrong dimension"):
            analyze(BIMOL, weight=weight)

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

    @pytest.mark.parametrize("direction", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]])
    def test_direction_of_wrong_dimension_rejected(self, direction):
        with pytest.raises(ValueError, match="direction has wrong dimension"):
            ray_diagnostic(BIMOL, direction, 4)

    def test_negative_direction_rejected(self):
        with pytest.raises(ValueError, match="direction must be non-negative"):
            ray_diagnostic(BIMOL, [1.0, -0.5], 4)


# networks whose rows are finite but whose sums over reactions overflow
SUM_OVERFLOWS = {
    "A-and-Gamma": "species A B\nR1: A -> 2 A @ 1e300\nR2: B -> 2 B @ 1e300\n"
    "R3: A + B -> 0 @ 1e308\nR4: 0 -> A @ 1e308\nR5: 0 -> B @ 1e308\n",
    "alpha": "species A B\nR1: A -> 2 B @ 1e308\nR2: A -> 2 B @ 1e308\n",
}


# two finite linear-part entries whose sum passes DBL_MAX (every row, column
# sum, A and alpha finite)
LOG_NORM_SUM_OVERFLOWS = "species A B\nR1: A -> 3 B @ 5e307\nR2: B -> 3 A @ 5e307\n"


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

    @pytest.mark.parametrize(
        "text",
        [
            "species A\nR0: 0 -> A @ 1.0\nR1: A -> 3 A @ 1e308",  # every linear row term
            "species A B\nR1: A + B -> 5 A @ 1e308",  # the bilinear mu alone
            "species A B\nR0: B -> 0 @ 2.0\nR1: A -> 3 B @ 1e308",  # the linear part alone
            # an entry 3k of the linear part, with alpha = 2k and every row finite
            "species A B\nR0: B -> 0 @ 2.0\nR1: A -> 3 B @ 7e307",
        ],
        ids=["linear", "bilinear", "linear-part", "linear-part-entry"],
    )
    def test_overflowing_rate_names_its_reaction(self, text):
        with np.errstate(all="raise"), pytest.raises(RateOverflow, match="R1 with rate [17]e[+]30[78]"):
            analyze(parse_model(text))

    @pytest.mark.parametrize(
        "text, reaction",
        [
            (SUM_OVERFLOWS["A-and-Gamma"], "R5"),  # A: the constant reactions' sum
            (SUM_OVERFLOWS["alpha"], "R2"),  # alpha: the linear reactions' sum
            ("species A B\n" + "".join(f"R{r}: A + B -> A @ 1e308\n" for r in (1, 2, 3, 4)),
             "R4"),  # lambda: a column sum of finite rows
        ],
        ids=["A", "alpha", "column-sum"],
    )
    def test_overflowing_sum_names_the_reaction_it_overflows_at(self, text, reaction):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(RateOverflow) as exc:
                analyze(parse_model(text))
        assert exc.value.reaction == reaction
        assert str(exc.value) == (
            f"reaction {reaction} with rate 1e+308 overflows its stability constants: the "
            "sum of the constants over the reactions up to it is not a finite float"
        )

    def test_linear_part_halved_before_it_is_summed(self):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            report = analyze(parse_model(LOG_NORM_SUM_OVERFLOWS))
        # symmetric part [[-5e307, 1.5e308], [1.5e308, -5e307]]
        assert report.M_combined == 1e308
        assert report.M == min(report.M_special_sum, report.M_combined)

    def test_nonfinite_log_norm_names_the_reaction(self, monkeypatch):
        # the log norm of a finite matrix can still round past DBL_MAX; then
        # the first reaction whose linear part makes it so is named
        def log_norm_of(mtx):
            return math.inf if np.abs(mtx).max() > 0.75 else 0.0

        monkeypatch.setattr(analyzer, "log_norm", log_norm_of)
        text = "species A B\nR1: A -> B @ 0.5\nR2: B -> 0 @ 1.0\nR3: A -> 2 B @ 3.0\n"
        with pytest.raises(RateOverflow) as exc:
            analyze(parse_model(text))
        assert exc.value.reaction == "R2"

    def test_drift_constants_checks_its_sums(self):
        with pytest.raises(RateOverflow, match="R5"):
            drift_constants(parse_model(SUM_OVERFLOWS["A-and-Gamma"]))

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
