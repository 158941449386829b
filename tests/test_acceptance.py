"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints ``ACCEPTANCE <name>: PASS/FAIL (<elapsed>)`` (visible
with ``pytest -s``) and asserts its runtime budget.  Statistical
criteria run on fixed seeds, so a passing suite is reproducible.
"""

import math
import time

import numpy as np
import pytest

from jkl import analyzer as an
from jkl import bounds as bnd
from jkl import cme
from jkl import engine as eng
from jkl.demos import (
    demo_cubic_blowup,
    demo_enzyme_sensitivity,
    demo_reversible_oracle,
)
from jkl.parser import ModelError, parse_model, serialize_model
from jkl.presets import PRESETS, get_preset

SQ2, SQ3, SQ5 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)


def _run(name: str, budget_s: float, body) -> None:
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL ({time.perf_counter() - t0:.1f}s)", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.1f}s)", flush=True)
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds the {budget_s:.0f}s budget"


def test_01_constant_tables():
    """Per-reaction one-sided contributions reproduce both constant tables."""

    def body():
        rows = [
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
        for text, m_want, mu_want in rows:
            contrib = an.analyze(parse_model(text)).per_reaction[0]
            assert abs(contrib.M - m_want) <= 1e-12, text
            assert abs(contrib.mu - mu_want) <= 1e-12, text

    _run("01 constant-tables", 1.0, body)


def test_02_log_norm_oracle():
    """Rank-1 closed forms match symmetric-part eigensolves to 1e-10."""

    def body():
        fixtures = [
            ((1.0,), 0),
            ((1.0, -1.0), 0),
            ((1.0, -1.0, -1.0), 0),
            ((1.0, 1.0), 0),
            ((1.0, 1.0, -1.0), 0),
            ((0.0, 1.0), 0),
            ((0.0, 1.0, -1.0), 1),
            ((2.0,), 0),
            ((2.0, -1.0), 0),
        ]
        for nu, n in fixtures:
            nu_v = np.array(nu)
            e_n = np.zeros(len(nu))
            e_n[n] = 1.0
            if len(nu) > 1:
                formula = (-nu_v[n] + np.linalg.norm(nu_v)) / 2.0
                assert abs(formula - an.log_norm(-np.outer(nu_v, e_n))) <= 1e-10
            assert abs(an.log_norm_rank1(-nu_v, e_n) - an.log_norm(-np.outer(nu_v, e_n))) <= 1e-10
        rng = np.random.default_rng(2024)
        for _ in range(100):
            d = int(rng.integers(2, 8))
            a = rng.normal(size=d) * rng.uniform(0.1, 5.0)
            b = rng.normal(size=d) * rng.uniform(0.1, 5.0)
            assert abs(an.log_norm_rank1(a, b) - an.log_norm(np.outer(a, b))) <= 1e-10

    _run("02 log-norm-oracle", 1.0, body)


def test_03_paper_example_constants():
    """Drift and one-sided pairs for the worked example networks."""

    def body():
        tol = 1e-12
        a, alpha = an.drift_constants(get_preset("bimol").network)
        assert abs(a - 2.0) <= tol and abs(alpha) <= tol
        a, alpha = an.drift_constants(get_preset("reversible").network)
        assert abs(a) <= tol and abs(alpha - 1.0) <= tol
        a, alpha = an.drift_constants(get_preset("reversible-open").network)
        assert abs(a - 1.0) <= tol and abs(alpha - 0.0) <= tol  # (k2 - k3) v 0
        a, alpha = an.drift_constants(get_preset("extended-bimol").network)
        assert abs(a - 2.0) <= tol and abs(alpha + 1.0) <= tol

        m, mu = an.one_sided_constants(get_preset("bimol").network)
        assert abs(m) <= tol and abs(mu - (SQ2 - 1) / 4) <= tol
        m, mu = an.one_sided_constants(get_preset("reversible").network)
        assert abs(m - (SQ3 - 1) / 2) <= tol and abs(mu - (SQ3 - 1) / 4) <= tol
        m, mu = an.one_sided_constants(get_preset("enzyme").network)
        assert m <= 1.0 + tol and abs(mu - 25.0) <= tol
        m, mu = an.one_sided_constants(get_preset("enzyme-linear").network)
        assert abs(m + 1001.0) <= tol and abs(mu) <= tol

    _run("03 paper-example-constants", 5.0, body)


def test_04_random_walk_law():
    """Bimol species difference: mean 0, variance 2 k1 t at t = 10."""

    def body():
        net = get_preset("bimol").network
        n, t_end = 10**4, 10.0
        diffs = np.empty(n)
        for i in range(n):
            traj = eng.simulate_direct(net, [0, 0], eng.SimConfig(t_end=t_end, seed=eng.mix64(404, i)))
            a, b = traj.final_state
            diffs[i] = float(a - b)
        var = diffs.var(ddof=1)
        assert abs(var - 20.0) <= 0.05 * 20.0, f"variance {var}"
        se = diffs.std(ddof=1) / math.sqrt(n)
        assert abs(diffs.mean()) <= 4.0 * se, f"mean {diffs.mean()} se {se}"

    _run("04 random-walk-law", 60.0, body)


def test_05_oracle_equivalence():
    """Ensemble moments match the truncated master equation (z < 4)."""

    def body():
        summary = demo_reversible_oracle(samples=10**4, seed=505, times=(0.5, 1.0, 2.0))
        assert summary["max_z"] < 4.0, summary

    _run("05 oracle-equivalence", 120.0, body)


def test_06_cubic_blowup():
    """Cubic pair: decay-first odds 1/3; third moment beats its lower bound."""

    def body():
        summary = demo_cubic_blowup(samples=10**4, seed=606, moment_samples=10**6)
        se = math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / 10**4)
        assert abs(summary["decay_first_fraction"] - 1.0 / 3.0) <= 4.0 * se, summary
        assert summary["third_moment_empirical"] > summary["third_moment_lower_bound"], summary

    _run("06 cubic-blowup", 60.0, body)


@pytest.mark.slow
def test_07_enzyme_sensitivity():
    """Rate-ODE doubles; the stochastic mean response is ~fourfold."""

    def body():
        s = demo_enzyme_sensitivity(samples=10**4, seed=1)
        assert abs(s["ode_response_ratio"] - 2.0) <= 0.02 * 2.0, s
        assert 3.2 <= s["stoch_response_ratio"] <= 4.8, s
        # RMS curve shape: rises from near zero onto a plateau
        assert s["rms_initial"] <= 0.3 * s["rms_max"], s
        assert s["rms_late_mean"] >= 2.0 * s["rms_early_mean"], s
        assert s["rms_final"] >= 0.85 * s["rms_max"], s

    _run("07 enzyme-sensitivity", 600.0, body)


def test_08_coupling_determinism():
    """Same seed, same inputs: identical pairs; worker count never matters."""

    def body():
        for name, preset in PRESETS.items():
            cfg = eng.SimConfig(
                t_end=0.02 if "enzyme" in name else 1.0,
                seed=808,
                max_events=10**5,
                state_cap=10**6,
            )
            lx, ly = eng.simulate_coupled(
                preset.network, preset.x0, preset.x0, eng.PerturbationSpec({}), cfg
            )
            assert np.array_equal(lx.times, ly.times), name
            assert np.array_equal(lx.states, ly.states), name
            assert np.array_equal(lx.channels, ly.channels), name

        net = get_preset("bimol").network
        grid = np.linspace(0.0, 2.0, 5)
        serial = eng.ensemble_moments(net, [0, 0], grid, 2, 800, seed=11, workers=1)
        parallel = eng.ensemble_moments(net, [0, 0], grid, 2, 800, seed=11, workers=2)
        assert serial.to_csv() == parallel.to_csv()
        pert = eng.PerturbationSpec({"k2": 0.1})
        rms_s = eng.coupled_rms(net, [5, 5], [5, 5], pert, grid, 400, seed=12, workers=1)
        rms_p = eng.coupled_rms(net, [5, 5], [5, 5], pert, grid, 400, seed=12, workers=2)
        assert rms_s.to_csv(net.species) == rms_p.to_csv(net.species)

    _run("08 coupling-determinism", 30.0, body)


def test_09_bound_domination():
    """Theoretical envelopes dominate empirical estimates on their windows."""

    def body():
        grid = np.linspace(0.0, 1.0, 11)
        for name in ("bimol", "reversible-open"):
            preset = get_preset(name)
            report = an.analyze(preset.network)
            table = eng.ensemble_moments(preset.network, preset.x0, grid, 3, 10**4, seed=909)
            x0_norm = float(np.sum(preset.x0))
            curves = [
                bnd.first_moment_curve(report, x0_norm, grid),
                bnd.second_moment_curve(report, x0_norm, grid),
                bnd.pth_moment_curve(report, x0_norm, 3, grid),
            ]
            for p, curve in enumerate(curves, start=1):
                emp = table.moments[:, p - 1] - 4.0 * table.stderr[:, p - 1]
                assert (emp <= curve.values + 1e-9).all(), (name, p)

        # perturbation envelopes on the small-time window [0, 0.05]
        net = get_preset("bimol").network
        report = an.analyze(net)
        win = np.linspace(0.0, 0.05, 6)

        rms_init = eng.coupled_rms(
            net, [10, 10], [11, 10], eng.PerturbationSpec({}), win, 10**4, seed=910
        )
        curve_init = bnd.initial_perturbation_curve(report, [10, 10], [11, 10], win)
        assert (rms_init.rms - 4.0 * rms_init.stderr <= curve_init.values + 1e-9).all()

        pert = eng.PerturbationSpec({"k2": 0.1})
        delta, delta_f = pert.totals(net)
        rms_coeff = eng.coupled_rms(net, [10, 10], [10, 10], pert, win, 10**4, seed=911)
        for variant in ("small-time", "large-time"):
            curve = bnd.coefficient_perturbation_curve(
                report, [10, 10], delta, delta_f, win, variant
            )
            assert (rms_coeff.rms - 4.0 * rms_coeff.stderr <= curve.values + 1e-9).all(), variant

    _run("09 bound-domination", 300.0, body)


def test_10_parser_robustness():
    """Round-trip identity on presets; 1e5 fuzz inputs never crash."""

    def body():
        for name, preset in PRESETS.items():
            net = preset.network
            assert parse_model(serialize_model(net)) == net, name

        rng = np.random.default_rng(1010)
        seeds = [
            bytes(rng.integers(0, 256, size=rng.integers(0, 120), dtype=np.uint8))
            for _ in range(40_000)
        ]
        printable = [
            "".join(chr(c) for c in rng.integers(32, 127, size=rng.integers(0, 80)))
            for _ in range(30_000)
        ]
        base = serialize_model(get_preset("enzyme").network).encode()
        mutated = []
        for _ in range(30_000):
            blob = bytearray(base)
            for _ in range(int(rng.integers(1, 6))):
                blob[int(rng.integers(0, len(blob)))] = int(rng.integers(0, 256))
            mutated.append(bytes(blob))
        crashes = 0
        for blob in seeds + printable + mutated:
            try:
                parse_model(blob)
            except ModelError:
                pass
            except Exception:
                crashes += 1
        assert crashes == 0

    _run("10 parser-robustness", 60.0, body)
