"""Simulation engine: laws, determinism, coupling, ensembles, RRE."""

import math
import os
import warnings

import numpy as np
import pytest
import scipy.stats

from jkl import engine
from jkl.engine import (
    PerturbationSpec,
    SimConfig,
    SimulationError,
    batch_states,
    coupled_rms,
    ensemble_moments,
    integrate_rre,
    mix64,
    simulate_coupled,
    simulate_direct,
    simulate_rtc,
    worker_count,
)
from jkl.parser import parse_model
from jkl.presets import get_preset

BIMOL = get_preset("bimol").network
REVERSIBLE = get_preset("reversible").network
CUBIC = get_preset("cubic").network
ENZYME = get_preset("enzyme").network
BIRTH = parse_model("species A\nR: 0 -> A @ 1.0")
NAMED_BIRTH = parse_model("species A\nk = 1.0\nR: 0 -> A @ k")

# each public sampler entry point, called on a one-species network
ENTRY_POINTS = {
    "simulate_direct": lambda net: simulate_direct(net, [0], SimConfig(t_end=1.0)),
    "simulate_rtc": lambda net: simulate_rtc(net, [0], SimConfig(t_end=1.0)),
    "simulate_coupled": lambda net: simulate_coupled(
        net, [0], [0], PerturbationSpec(), SimConfig(t_end=1.0)
    ),
    "ensemble_moments": lambda net: ensemble_moments(
        net, [0], [0.0, 1.0], 1, 4, seed=1, workers=1
    ),
    "coupled_rms": lambda net: coupled_rms(
        net, [0], [0], PerturbationSpec(), [0.0, 1.0], 4, seed=1, workers=1
    ),
    "batch_states": lambda net: batch_states(net, [0], [1.0], 4, seed=1),
}

# each grid-taking sampler, called on a one-species birth process
GRID_ENTRY_POINTS = {
    "ensemble_moments": lambda grid: ensemble_moments(BIRTH, [0], grid, 1, 4, seed=1, workers=1),
    "coupled_rms": lambda grid: coupled_rms(
        BIRTH, [0], [0], PerturbationSpec(), grid, 4, seed=1, workers=1
    ),
    "batch_states": lambda grid: batch_states(BIRTH, [0], grid, 4, seed=1),
}
BAD_GRIDS = {
    "empty": [],
    "decreasing": [0.5, 0.2],
    "repeated": [0.5, 0.5],
    "nan": [0.0, math.nan],
    "inf": [0.0, math.inf],
    "negative": [-1.0, 1.0],
    "two-dimensional": [[0.0, 1.0]],
}


class TestMix64:
    def test_deterministic_and_distinct(self):
        assert mix64(1, 2) == mix64(1, 2)
        assert mix64(1, 2) != mix64(2, 1)
        assert mix64(0) != mix64(1)

    def test_64_bit_range(self):
        vals = [mix64(i) for i in range(1000)]
        assert all(0 <= v < 2**64 for v in vals)
        assert len(set(vals)) == 1000


class TestSingleTrajectory:
    def test_poisson_event_count(self):
        counts = [
            simulate_direct(BIRTH, [0], SimConfig(t_end=1000.0, seed=mix64(1, i))).n_events
            for i in range(200)
        ]
        assert abs(np.mean(counts) - 1000.0) < 4.0 * np.sqrt(1000.0 / 200)

    def test_zero_intensity_is_constant(self):
        net = parse_model("species A\nR: 2 A -> A @ 1.0")  # w(1) = 0
        traj = simulate_direct(net, [1], SimConfig(t_end=5.0, seed=1))
        assert traj.n_events == 0
        assert traj.status == "t_end"
        assert np.array_equal(traj.sample([0.0, 2.5, 5.0]), [[1], [1], [1]])

    def test_overflow_raises(self):
        net = parse_model("species A\nR: 0 -> A @ 1e305\nR2: 3 A -> 4 A @ 1e305")
        with pytest.raises(SimulationError):
            simulate_direct(net, [10], SimConfig(t_end=1.0, seed=1, max_events=10**6))

    def test_states_stay_on_lattice(self):
        for seed in range(5):
            traj = simulate_rtc(BIMOL, [0, 0], SimConfig(t_end=5.0, seed=seed))
            assert (traj.states >= 0).all()
            steps = np.diff(traj.states, axis=0)
            nu_cols = {tuple(-np.array(r.nu)) for r in BIMOL.reactions}
            assert all(tuple(s) in nu_cols for s in steps)

    def test_conservation_exact(self):
        traj = simulate_direct(REVERSIBLE, [5, 5, 0], SimConfig(t_end=20.0, seed=3))
        assert (traj.states @ np.array([1, 1, 2]) == 10).all()

    def test_determinism_bit_identical(self):
        for sim in (simulate_direct, simulate_rtc):
            a = sim(BIMOL, [0, 0], SimConfig(t_end=10.0, seed=42))
            b = sim(BIMOL, [0, 0], SimConfig(t_end=10.0, seed=42))
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.channels, b.channels)

    def test_max_events_cap_recorded(self):
        traj = simulate_direct(BIRTH, [0], SimConfig(t_end=100.0, seed=1, max_events=10))
        assert traj.status == "max_events"
        assert traj.n_events == 10
        assert traj.cap_time == traj.times[-1]

    def test_state_cap_recorded(self):
        traj = simulate_direct(BIRTH, [0], SimConfig(t_end=1000.0, seed=1, state_cap=25))
        assert traj.status == "state_cap"
        assert traj.final_state[0] == 26

    def test_monotone_localization(self):
        # raising the cap never changes the events before the old cap hit
        lo = simulate_direct(CUBIC, [10], SimConfig(t_end=5.0, seed=9, state_cap=50, max_events=10**6))
        hi = simulate_direct(CUBIC, [10], SimConfig(t_end=5.0, seed=9, state_cap=500, max_events=10**6))
        k = lo.n_events
        assert np.array_equal(lo.times, hi.times[: k + 1])
        assert np.array_equal(lo.states, hi.states[: k + 1])

    def test_sample_right_continuous(self):
        traj = simulate_direct(BIRTH, [0], SimConfig(t_end=5.0, seed=2))
        t1 = traj.times[1]
        assert traj.sample([t1])[0, 0] == 1  # state at the jump includes it

    def test_rtc_exposes_internal_clocks(self):
        traj = simulate_rtc(BIMOL, [0, 0], SimConfig(t_end=5.0, seed=4))
        assert traj.internal_times is not None
        assert len(traj.internal_times) == BIMOL.n_reactions
        assert sum(traj.channel_counts) == traj.n_events

    def test_direct_rtc_same_law(self):
        # two-sample KS on A_t at t = 5 over 3000 runs each
        n = 3000
        a = np.empty(n)
        b = np.empty(n)
        for i in range(n):
            a[i] = simulate_direct(BIMOL, [0, 0], SimConfig(t_end=5.0, seed=mix64(5, i))).final_state[0]
            b[i] = simulate_rtc(BIMOL, [0, 0], SimConfig(t_end=5.0, seed=mix64(6, i))).final_state[0]
        assert scipy.stats.ks_2samp(a, b).pvalue > 0.01

    def test_csv_round_format(self):
        traj = simulate_direct(BIMOL, [0, 0], SimConfig(t_end=1.0, seed=1))
        text = traj.to_csv(BIMOL.species)
        assert text.splitlines()[0] == "time,A,B"
        assert len(text.splitlines()) == traj.n_events + 2


class TestSimConfig:
    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.inf, math.nan])
    def test_t_end_must_be_positive_and_finite(self, t_end):
        with pytest.raises(ValueError, match="t_end"):
            SimConfig(t_end=t_end)

    def test_nan_state_cap_rejected(self):
        with pytest.raises(ValueError, match="caps"):
            SimConfig(t_end=1.0, state_cap=math.nan)

    def test_infinite_state_cap_accepted(self):
        assert SimConfig(t_end=1.0, state_cap=math.inf).state_cap == math.inf


class TestEntryValidation:
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_negative_rate_rejected(self, name):
        net = parse_model("species A\nk = -1.0\nR: 0 -> A @ k")
        with pytest.raises(ValueError, match="negative"):
            ENTRY_POINTS[name](net)

    def test_invalid_perturbed_network_rejected(self):
        # an infinite delta fails the perturbation check; a finite delta that
        # overflows the rate fails validation of the perturbed network
        huge = parse_model("species A\nk = 1e308\nR: 0 -> A @ k")
        for net, delta in ((NAMED_BIRTH, math.inf), (huge, 1.0)):
            pert = PerturbationSpec({"k": delta})
            with pytest.raises(ValueError, match="not finite"):
                simulate_coupled(net, [0], [0], pert, SimConfig(t_end=1.0))
            with pytest.raises(ValueError, match="not finite"):
                coupled_rms(net, [0], [0], pert, [0.0, 1.0], 4, seed=1, workers=1)

    def test_batch_negative_initial_state_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            batch_states(BIRTH, [-5], [1.0], 4, seed=1)

    @pytest.mark.parametrize("grid", sorted(BAD_GRIDS))
    @pytest.mark.parametrize("name", sorted(GRID_ENTRY_POINTS))
    def test_bad_grid_rejected(self, name, grid):
        with pytest.raises(ValueError, match="grid"):
            GRID_ENTRY_POINTS[name](BAD_GRIDS[grid])


class TestPerturbation:
    def test_apply_scales_rates(self):
        pert = PerturbationSpec({"k2": -0.5})
        net = pert.apply(BIMOL)
        assert net.reactions[2].rate == pytest.approx(0.5)
        assert net.parameters["k2"] == pytest.approx(0.5)

    def test_totals(self):
        delta, delta_f = PerturbationSpec({"k2": 0.1}).totals(BIMOL)
        assert delta == pytest.approx(0.1)
        assert delta_f == pytest.approx(0.1 * np.sqrt(2.0))

    def test_unknown_parameter(self):
        with pytest.raises(KeyError):
            PerturbationSpec({"zz": 0.1}).totals(BIMOL)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            PerturbationSpec({"k2": -1.5}).apply(BIMOL)

    def test_empty_is_identity(self):
        assert PerturbationSpec({}).apply(BIMOL) == BIMOL

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_nonfinite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="not finite"):
            PerturbationSpec({"k2": delta}).totals(BIMOL)


class TestCoupling:
    def test_identity_under_zero_perturbation(self):
        for name in ("bimol", "reversible", "reversible-open", "extended-bimol",
                     "cubic", "enzyme", "enzyme-linear"):
            preset = get_preset(name)
            cfg = SimConfig(
                t_end=0.02 if "enzyme" in name else 1.0,
                seed=17,
                max_events=10**5,
                state_cap=10**6,
            )
            lx, ly = simulate_coupled(preset.network, preset.x0, preset.x0,
                                      PerturbationSpec({}), cfg)
            assert np.array_equal(lx.times, ly.times)
            assert np.array_equal(lx.states, ly.states)
            assert np.array_equal(lx.channels, ly.channels)

    def test_marginal_law_matches_rtc(self):
        # each leg alone is distributed like a plain run of its network
        n = 2000
        a = np.empty(n)
        b = np.empty(n)
        pert = PerturbationSpec({"k2": 0.25})
        for i in range(n):
            cfg = SimConfig(t_end=4.0, seed=mix64(8, i))
            lx, _ = simulate_coupled(BIMOL, [0, 0], [0, 0], pert, cfg)
            a[i] = lx.final_state[0]
            b[i] = simulate_rtc(BIMOL, [0, 0], SimConfig(t_end=4.0, seed=mix64(9, i))).final_state[0]
        assert scipy.stats.ks_2samp(a, b).pvalue > 0.01

    def test_initial_offset_stays_small_initially(self):
        # E|X - Y|^2 starts at 1 and moves at a bounded rate
        curve = coupled_rms(
            BIMOL, [10, 10], [11, 10], PerturbationSpec({}),
            np.array([0.0, 0.005, 0.01]), 2000, seed=3,
        )
        assert curve.rms[0] == pytest.approx(1.0)
        assert curve.mean_sq[1] == pytest.approx(1.0, abs=0.25)

    def test_coupled_pairs_decorrelate_slower_than_independent(self):
        # with shared clocks and a tiny perturbation the legs stay close
        grid = np.array([0.0, 0.5, 1.0])
        small = coupled_rms(BIMOL, [5, 5], [5, 5], PerturbationSpec({"k2": 1e-9}),
                            grid, 500, seed=5)
        assert small.rms[-1] < 0.5  # would be O(3) for independent runs


class TestEnsembles:
    def test_poisson_mean_within_stderr(self):
        grid = np.array([0.0, 2.0, 5.0])
        table = ensemble_moments(BIRTH, [0], grid, 2, 3000, seed=11)
        for g, t in enumerate(grid):
            assert abs(table.moments[g, 0] - t) <= 4.0 * max(table.stderr[g, 0], 1e-12)

    def test_moment_table_shapes_and_se(self):
        grid = np.linspace(0.0, 2.0, 5)
        table = ensemble_moments(BIMOL, [0, 0], grid, 3, 500, seed=2)
        assert table.moments.shape == (5, 3)
        assert table.species_mean.shape == (5, 2)
        assert (table.n_valid == 500).all()
        assert not table.explosion

    def test_serial_parallel_identical(self):
        grid = np.linspace(0.0, 3.0, 4)
        a = ensemble_moments(BIMOL, [0, 0], grid, 2, 600, seed=4, workers=1)
        b = ensemble_moments(BIMOL, [0, 0], grid, 2, 600, seed=4, workers=2)
        assert np.array_equal(a.moments, b.moments)
        assert np.array_equal(a.stderr, b.stderr)
        assert a.to_csv() == b.to_csv()

    def test_rms_serial_parallel_identical(self):
        grid = np.linspace(0.0, 0.5, 3)
        pert = PerturbationSpec({"k2": 0.1})
        a = coupled_rms(BIMOL, [5, 5], [5, 5], pert, grid, 600, seed=4, workers=1)
        b = coupled_rms(BIMOL, [5, 5], [5, 5], pert, grid, 600, seed=4, workers=2)
        assert np.array_equal(a.rms, b.rms)
        assert a.to_csv(BIMOL.species) == b.to_csv(BIMOL.species)

    def test_explosion_flagged_and_excluded(self):
        grid = np.array([0.0, 0.5, 2.0])
        table = ensemble_moments(
            BIRTH, [0], grid, 1, 100, seed=6, state_cap=1.0
        )
        assert table.explosion
        assert table.n_excluded[-1] > 0
        assert table.n_valid[-1] + table.n_excluded[-1] == 100

    def test_at_most_one_valid_sample_warns_nothing(self):
        # at most one path reaches t = 50 below the cap: the Bessel factor is 1
        grid = [0.0, 50.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = ensemble_moments(BIMOL, [5, 5], grid, 1, 4, 1, workers=1, state_cap=10)
            curve = coupled_rms(
                BIMOL, [5, 5], [5, 5], PerturbationSpec({"k2": 0.1}), grid, 4, 1,
                workers=1, state_cap=10,
            )
        assert table.n_valid[-1] <= 1 and curve.n_valid[-1] <= 1
        assert np.isfinite(table.stderr).all() and np.isfinite(curve.stderr).all()

    def test_zero_only_grid_runs_no_events(self, monkeypatch):
        events = []

        def counting_core(net, x0, cfg):
            traj = direct_core(net, x0, cfg)
            events.append(len(traj.channels))
            return traj

        direct_core = engine._direct_core
        monkeypatch.setattr(engine, "_direct_core", counting_core)
        x0 = get_preset("enzyme").x0
        table = ensemble_moments(ENZYME, x0, [0.0], 1, 64, 1, workers=1)
        assert len(events) == 64 and sum(events) == 0
        longer = ensemble_moments(ENZYME, x0, [0.0, 0.01], 1, 64, 1, workers=1)
        for name in ("moments", "stderr", "species_mean", "species_var", "n_valid"):
            assert np.array_equal(getattr(table, name)[0], getattr(longer, name)[0])

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("JKL_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("JKL_THREADS", "junk")
        assert worker_count() == (os.cpu_count() or 1)
        assert worker_count(5) == 5


class TestBatchSampler:
    def test_matches_per_trajectory_law(self):
        grid = np.array([2.0, 5.0])
        states, cap = batch_states(BIMOL, [0, 0], grid, 3000, seed=21)
        singles = np.empty(3000)
        for i in range(3000):
            singles[i] = simulate_direct(
                BIMOL, [0, 0], SimConfig(t_end=5.0, seed=mix64(31, i))
            ).final_state[0]
        assert scipy.stats.ks_2samp(states[1, :, 0], singles).pvalue > 0.01
        assert not np.isfinite(cap).any()

    def test_deterministic(self):
        a, _ = batch_states(BIMOL, [0, 0], np.array([1.0]), 500, seed=3)
        b, _ = batch_states(BIMOL, [0, 0], np.array([1.0]), 500, seed=3)
        assert np.array_equal(a, b)

    def test_conservation(self):
        states, _ = batch_states(REVERSIBLE, [5, 5, 0], np.array([0.5, 1.0]), 400, seed=5)
        assert (states @ np.array([1.0, 1.0, 2.0]) == 10.0).all()

    def test_cap_time_reported(self):
        states, cap = batch_states(BIRTH, [0], np.array([1000.0]), 50, seed=7, state_cap=10)
        assert np.isfinite(cap).all()
        assert (states[-1, :, 0] == 11).all()

    def test_grid_on_event_free_interval(self):
        net = parse_model("species A\nR: 2 A -> A @ 1.0")
        states, _ = batch_states(net, [1], np.array([0.5, 1.0]), 10, seed=1)
        assert (states == 1).all()


class TestRateEquations:
    def test_linear_relaxation_and_doubling(self):
        lin = get_preset("enzyme-linear")
        grid = np.linspace(0.0, 10.0, 101)
        sol = integrate_rre(lin.network, [0.0], grid)
        assert sol.states[-1, 0] == pytest.approx(10.0, rel=1e-6)
        halved = PerturbationSpec({"kE": -0.5}).apply(lin.network)
        sol2 = integrate_rre(halved, [10.0], grid)
        assert sol2.states[-1, 0] == pytest.approx(10010.0 / 501.0, rel=1e-6)
        assert sol2.states[-1, 0] / sol.states[-1, 0] == pytest.approx(2.0, abs=0.01)

    def test_conservation_to_tolerance(self):
        grid = np.linspace(0.0, 5.0, 51)
        sol = integrate_rre(REVERSIBLE, [5.0, 5.0, 0.0], grid, tol=1e-10)
        vals = sol.states @ np.array([1.0, 1.0, 2.0])
        assert np.allclose(vals, 10.0, atol=1e-7)

    def test_zero_drift_constant(self):
        grid = np.linspace(0.0, 1.0, 11)
        sol = integrate_rre(CUBIC, [7.0], grid)
        assert np.allclose(sol.states, 7.0, atol=1e-7)

    def test_negative_initial_rejected(self):
        with pytest.raises(ValueError):
            integrate_rre(BIMOL, [-1.0, 0.0], np.linspace(0, 1, 5))
