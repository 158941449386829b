"""Simulation engine: laws, determinism, coupling, ensembles, RRE."""

import contextlib
import dataclasses
import itertools
import math
import os
import pickle
import random
import re
import signal
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats

from jkl import cme, engine, lockstep, model
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
from jkl.model import propensity_eval
from jkl.parser import parse_model
from jkl.presets import PRESETS, get_preset
from test_golden import MIXED, _random_order2

BIMOL = get_preset("bimol").network
REVERSIBLE = get_preset("reversible").network
CUBIC = get_preset("cubic").network
ENZYME = get_preset("enzyme").network
BIRTH = parse_model("species A\nR: 0 -> A @ 1.0")
NAMED_BIRTH = parse_model("species A\nk = 1.0\nR: 0 -> A @ k")

# each public sampler entry point, called on a one-species network from x0
ENTRY_POINTS = {
    "simulate_direct": lambda net, x0=(0,): simulate_direct(net, x0, SimConfig(t_end=1.0)),
    "simulate_rtc": lambda net, x0=(0,): simulate_rtc(net, x0, SimConfig(t_end=1.0)),
    "simulate_coupled": lambda net, x0=(0,): simulate_coupled(
        net, x0, x0, PerturbationSpec(), SimConfig(t_end=1.0)
    ),
    "ensemble_moments": lambda net, x0=(0,): ensemble_moments(
        net, x0, [0.0, 1.0], 1, 4, seed=1, workers=1
    ),
    "coupled_rms": lambda net, x0=(0,): coupled_rms(
        net, x0, x0, PerturbationSpec(), [0.0, 1.0], 4, seed=1, workers=1
    ),
    "batch_states": lambda net, x0=(0,): batch_states(net, x0, [1.0], 4, seed=1),
}

# each sampler on bimol at the given seed
SEEDED = {
    "simulate_direct": lambda seed: simulate_direct(BIMOL, [5, 5], SimConfig(1.0, seed)),
    "simulate_rtc": lambda seed: simulate_rtc(BIMOL, [5, 5], SimConfig(1.0, seed)),
    "simulate_coupled": lambda seed: simulate_coupled(
        BIMOL, [5, 5], [5, 5], PerturbationSpec({"k2": 0.1}), SimConfig(1.0, seed)
    ),
    "ensemble_moments": lambda seed: ensemble_moments(
        BIMOL, [5, 5], [0.0, 1.0], 2, 300, seed, workers=1
    ),
    "coupled_rms": lambda seed: coupled_rms(
        BIMOL, [5, 5], [5, 5], PerturbationSpec({"k2": 0.1}), [0.0, 1.0], 300, seed, workers=1
    ),
    "batch_states": lambda seed: batch_states(BIMOL, [5, 5], [0.5, 1.0], 300, seed),
}

# each sampler that takes a sample count, on bimol at count n
COUNTED = {
    "ensemble_moments": lambda n: ensemble_moments(
        BIMOL, [5, 5], [0.0, 1.0], 2, n, seed=1, workers=1
    ),
    "coupled_rms": lambda n: coupled_rms(
        BIMOL, [5, 5], [5, 5], PerturbationSpec({"k2": 0.1}), [0.0, 1.0], n, seed=1, workers=1
    ),
    "batch_states": lambda n: batch_states(BIMOL, [5, 5], [0.5, 1.0], n, seed=1),
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

    @pytest.mark.parametrize("seed", [0, 1, -1, 2**64 - 1, 2**70])
    @pytest.mark.parametrize("start", [0, 256, 2**40])
    def test_lane_chain_equals_the_scalar_chain(self, seed, start):
        # the sample seeds of a chunk and each sample's channel seeds
        index = np.arange(start, start + 256, dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning from the wrapping
            seeds = engine._mix_lanes(mix64(seed), [index])
            channels = engine._mix_lanes(
                mix64(), (seeds[:, None], engine._CHANNEL_TAG, np.arange(3, dtype=np.uint64))
            )
        assert seeds.tolist() == [mix64(seed, i) for i in range(start, start + 256)]
        assert channels.tolist() == [
            [mix64(mix64(seed, i), engine._CHANNEL_TAG, r) for r in range(3)]
            for i in range(start, start + 256)
        ]


class TestCsv:
    def test_cell_rule(self):
        # floats by repr (shortest round trip, so 2.0 keeps its point),
        # everything else by str
        rows = [
            (0.1 + 0.2, 3, "R1"),
            (2.0, 10**20, "x"),
            (1e-300, -2, "y"),
            (math.inf, 0, "a"),
            (-math.inf, 1, "b"),
            (math.nan, 2, "c"),
        ]
        assert engine._csv(["time", "n", "label"], rows) == (
            "time,n,label\n0.30000000000000004,3,R1\n2.0,100000000000000000000,x\n"
            "1e-300,-2,y\ninf,0,a\n-inf,1,b\nnan,2,c\n"
        )

    def test_tolist_rows(self):
        rows = np.array([[0.5, 1e16], [0.25, -0.0]]).tolist()
        assert engine._csv(["a", "b"], rows) == "a,b\n0.5,1e+16\n0.25,-0.0\n"

    def test_header_only(self):
        assert engine._csv(["time", "A"], []) == "time,A\n"


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

    def test_sample_rejects_times_outside_the_run(self):
        traj = simulate_direct(BIRTH, [0], SimConfig(t_end=5.0, seed=2))
        assert np.array_equal(traj.sample([5.0]), [traj.final_state])
        for t in (-1.0, 5.5):
            with pytest.raises(ValueError, match="grid extends"):
                traj.sample([0.0, t])

    def test_sample_rejects_nan_times(self):
        # searchsorted puts NaN after every time, which would read the final state
        traj = simulate_direct(BIMOL, [0, 0], SimConfig(t_end=1.0, seed=3))
        with pytest.raises(ValueError, match="NaN"):
            traj.sample([0.0, math.nan])

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

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("x0", [1.7, 2.9, math.inf, math.nan])
    def test_non_integral_initial_state_rejected(self, name, x0):
        # never truncated to a count
        with pytest.raises(ValueError, match="integer counts"):
            ENTRY_POINTS[name](BIRTH, [x0])

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("x0", [2**63, -(2**63) - 1, 10**20, 2.0**63])
    def test_initial_state_past_int64_rejected(self, name, x0):
        # the int64 rule of _counts, never an OverflowError from an int64 array
        with pytest.raises(ValueError, match="fit a 64-bit integer, got "):
            ENTRY_POINTS[name](BIRTH, [x0])

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_network_with_no_channel_keeps_its_start(self, name):
        # nothing fires: every sampler runs to t_end from the start state
        got = ENTRY_POINTS[name](parse_model("species A\n"), [3])
        paths = {"simulate_direct": [got], "simulate_rtc": [got], "simulate_coupled": got}
        if name in paths:
            assert [(p.n_events, p.states.tolist(), p.status) for p in paths[name]] == [
                (0, [[3]], "t_end")
            ] * len(paths[name])
        elif name == "batch_states":
            assert got[0].tolist() == [[[3.0]] * 4] and got[1].tolist() == [math.inf] * 4
        elif name == "ensemble_moments":
            assert got.species_mean.tolist() == [[3.0]] * 2
        else:
            assert got.species_rms.tolist() == [[0.0]] * 2

    # batch_states holds counts in float rows: TestStopRule checks its top
    @pytest.mark.parametrize("name", sorted(set(ENTRY_POINTS) - {"batch_states"}))
    def test_initial_state_at_int64_max_accepted(self, name):
        # a zero rate fires nothing, so the state never leaves int64
        still = parse_model("species A\nR: A -> 0 @ 0.0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ENTRY_POINTS[name](still, [2**63 - 1])

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_initial_state_of_wrong_dimension_rejected(self, name):
        with pytest.raises(ValueError, match="^state has dimension 2, expected 1$"):
            ENTRY_POINTS[name](BIRTH, [0, 0])

    def test_counts_boundaries(self):
        assert engine._counts([2**63 - 1, -(2**63), 3.0], "x") == [2**63 - 1, -(2**63), 3]
        for bad in (2**63, -(2**63) - 1):
            message = f"x must hold counts that fit a 64-bit integer, got {bad}$"
            with pytest.raises(ValueError, match=message):
                engine._counts([0, bad], "x")

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_integral_float_initial_state_accepted(self, name):
        got = ENTRY_POINTS[name](BIRTH, [np.float64(2.0)])
        assert pickle.dumps(got) == pickle.dumps(ENTRY_POINTS[name](BIRTH, [2]))

    @pytest.mark.parametrize("name", ["ensemble_moments", "coupled_rms"])
    def test_state_checked_before_the_pool(self, monkeypatch, name):
        # x0 is checked once at entry, not per chunk inside the workers
        def no_pool(*args):
            raise AssertionError("samples ran before the state check")

        monkeypatch.setattr(engine, "_pool_map", no_pool)
        calls = {
            "ensemble_moments": lambda: ensemble_moments(
                BIMOL, [1.5, 0], [0.0, 1.0], 1, 600, seed=1, workers=2
            ),
            "coupled_rms": lambda: coupled_rms(
                BIMOL, [0, 0], [1.5, 0], PerturbationSpec(), [0.0, 1.0], 600, seed=1, workers=2
            ),
        }
        with pytest.raises(ValueError, match="integer counts"):
            calls[name]()

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

    @pytest.mark.parametrize("name", sorted(SEEDED))
    @pytest.mark.parametrize(
        "seed",
        [np.int64(5), np.uint64(5), np.int64(-3), np.int64(2**63 - 1), np.uint64(2**64 - 1)],
        ids=["int64", "uint64", "int64-negative", "int64-max", "uint64-max"],
    )
    def test_numpy_integer_seeds_give_the_int_bytes(self, name, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pickle.dumps(SEEDED[name](seed))
        assert got == pickle.dumps(SEEDED[name](int(seed)))

    @pytest.mark.parametrize("name", sorted(SEEDED))
    @pytest.mark.parametrize("seed", [5.0, "5", None, np.float64(5.0)])
    def test_non_integer_seed_rejected(self, name, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SEEDED[name](seed)

    @pytest.mark.parametrize("name", sorted(COUNTED))
    @pytest.mark.parametrize("n", [2.5, "3", None, np.float64(3.0)])
    def test_non_integer_sample_count_rejected(self, name, n):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(n))}$"):
            COUNTED[name](n)

    @pytest.mark.parametrize("name", sorted(COUNTED))
    def test_numpy_integer_sample_count_gives_the_int_bytes(self, name):
        assert pickle.dumps(COUNTED[name](np.int64(300))) == pickle.dumps(COUNTED[name](300))

    @pytest.mark.parametrize("name", ["ensemble_moments", "coupled_rms"])
    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_ensemble_below_two_samples_rejected(self, name, n):
        calls = {
            "ensemble_moments": lambda: ensemble_moments(BIRTH, [0], [0.0, 1.0], 1, n, seed=1),
            "coupled_rms": lambda: coupled_rms(
                BIRTH, [0], [0], PerturbationSpec(), [0.0, 1.0], n, seed=1
            ),
        }
        with pytest.raises(ValueError, match="ensemble needs n >= 2"):
            calls[name]()

    @pytest.mark.parametrize("p_max", [0, -1])
    def test_moment_order_below_one_rejected(self, p_max):
        with pytest.raises(ValueError, match="p_max must be >= 1"):
            ensemble_moments(BIRTH, [0], [0.0, 1.0], p_max, 4, seed=1)

    def test_batch_negative_initial_state_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            batch_states(BIRTH, [-5], [1.0], 4, seed=1)

    @pytest.mark.parametrize(
        "bad",
        [
            {"state_cap": math.nan},
            {"state_cap": 0.0},
            {"state_cap": -1.0},
            {"max_events_per_traj": 0},
            {"max_events_per_traj": -3},
            {"n": 0},
            {"n": -2},
        ],
        ids=["cap-nan", "cap-zero", "cap-negative", "events-zero", "events-negative",
             "n-zero", "n-negative"],
    )
    def test_batch_bad_caps_and_sizes_rejected(self, bad):
        # the same cap checks as SimConfig; nothing is sampled
        with pytest.raises(ValueError, match="caps must be positive|n >= 1"):
            batch_states(BIRTH, [0], [1.0], **{"n": 4, "seed": 1, **bad})

    @pytest.mark.parametrize("grid", sorted(BAD_GRIDS))
    @pytest.mark.parametrize("name", sorted(GRID_ENTRY_POINTS))
    def test_bad_grid_rejected(self, name, grid):
        with pytest.raises(ValueError, match="grid"):
            GRID_ENTRY_POINTS[name](BAD_GRIDS[grid])


class TestStartAboveCap:
    """A start above state_cap stops at t = 0, and no path leaves int64."""

    CFG = SimConfig(t_end=1.0, seed=3, state_cap=10)

    @pytest.mark.parametrize("sim", [simulate_direct, simulate_rtc])
    def test_path_stops_at_time_zero(self, sim):
        # the cap is tested before the first firing too
        traj = sim(BIMOL, [50, 50], self.CFG)
        assert traj.status == "state_cap" and traj.n_events == 0 and traj.cap_time == 0.0
        assert traj.times.tolist() == [0.0] and traj.states.tolist() == [[50, 50]]

    def test_coupled_legs_stop_at_time_zero(self):
        legs = simulate_coupled(BIMOL, [50, 50], [0, 0], PerturbationSpec({"k2": 0.1}), self.CFG)
        assert legs[0].status == "state_cap" and legs[0].n_events == 0
        assert legs[1].status == "t_end" and legs[1].n_events > 0

    def test_ensembles_have_no_valid_sample(self):
        grid = [0.0, 0.5, 1.0]
        table = ensemble_moments(BIMOL, [50, 50], grid, 2, 6, seed=1, workers=1, state_cap=10)
        assert table.n_valid.tolist() == [0, 0, 0] and table.n_excluded.tolist() == [6, 6, 6]
        rms = coupled_rms(
            BIMOL, [50, 50], [0, 0], PerturbationSpec(), grid, 6, seed=1, workers=1, state_cap=10
        )
        assert rms.n_valid.tolist() == [0, 0, 0]

    def test_batch_returns_the_start_without_draws(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a stopped batch drew")

        monkeypatch.setattr(np.random, "PCG64", no_draws)
        states, cap_time = batch_states(BIMOL, [50, 50], [0.0, 0.5, 1.0], 4, seed=1, state_cap=10)
        assert states.shape == (3, 4, 2) and states.dtype == float and states.flags.c_contiguous
        assert (states == [50.0, 50.0]).all() and cap_time.tolist() == [0.0] * 4

    @pytest.mark.parametrize("sampler", ["direct", "rtc"])
    @pytest.mark.parametrize("gain", [1, 3])
    def test_path_stops_inside_int64(self, sampler, gain):
        # the cap is clamped to 2^63 - 1 - gain, so the last event lands in int64
        net = parse_model(f"species A\nR1: 0 -> {gain} A @ 5")
        top = 2**63 - 1
        cfg = SimConfig(t_end=50.0, seed=2, state_cap=math.inf)
        sim = simulate_direct if sampler == "direct" else simulate_rtc
        traj = sim(net, [top - 4 * gain], cfg)
        assert traj.status == "state_cap" and traj.states.dtype == np.int64
        assert top - gain < int(traj.final_state[0]) <= top
        assert sim(net, [top], cfg).n_events == 0


class TestStopRule:
    """Both direct samplers stop on one rule: a total intensity at the overflow
    limit raises, and the state cap is clamped below the top of the exact rows."""

    SAMPLERS = {
        "simulate_direct": lambda net, x0, cap: simulate_direct(
            net, x0, SimConfig(t_end=10.0, seed=1, max_events=1000, state_cap=cap)
        ),
        "batch_states": lambda net, x0, cap: batch_states(
            net, x0, [1.0, 10.0], 8, seed=1, state_cap=cap, max_events_per_traj=1000
        ),
    }

    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    @pytest.mark.parametrize("rate, raises", [(1e301, True), (1e300, True), (9.9e299, False)])
    def test_overflow_at_the_same_total(self, name, rate, raises):
        # below the limit the event cap stops every run
        net = parse_model(f"species A\nR1: 0 -> A @ {rate!r}")
        if raises:
            with pytest.raises(SimulationError, match="propensity overflow"):
                self.SAMPLERS[name](net, [0], math.inf)
        else:
            self.SAMPLERS[name](net, [0], math.inf)

    @pytest.mark.parametrize("start", [2**53 + 1, 2**60, 2**63 - 1])
    def test_batch_start_past_the_float_top_rejected(self, start):
        # a float row cannot hold the count, so the start could not come back
        net = parse_model("species A\nR1: 0 -> A @ 5")
        with pytest.raises(ValueError, match=rf"at most 2\*\*53 in float rows, got {start}$"):
            self.SAMPLERS["batch_states"](net, [start], math.inf)

    def test_batch_start_at_the_float_top_stops_at_time_zero(self):
        net = parse_model("species A\nR1: 0 -> A @ 5")
        states, cap_time = self.SAMPLERS["batch_states"](net, [2**53], math.inf)
        assert cap_time.tolist() == [0.0] * 8 and (states == 2.0**53).all()

    @pytest.mark.parametrize("gain", [1, 3])
    def test_batch_counts_stop_inside_the_float_top(self, gain):
        # the cap is clamped to 2^53 - gain, so the last event lands on an exact float
        net = parse_model(f"species A\nR1: 0 -> {gain} A @ 5")
        top = 2**53
        states, cap_time = self.SAMPLERS["batch_states"](net, [top - 8], math.inf)
        assert np.isfinite(cap_time).all() and (cap_time > 0).all()
        final = states[1, :, 0]  # past every cap time: the state that hit the cap
        assert (top - gain < final).all() and (final <= top).all()
        path = self.SAMPLERS["simulate_direct"](net, [top - 8], 2**53 - gain)
        assert path.status == "state_cap" and path.final_state[0] == final[0]


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


class TestSharedStreams:
    """A coupled pair seeds each channel stream once: the perturbed leg
    replays the draws the nominal leg took, then continues the stream."""

    def test_legs_equal_plain_rtc_runs(self):
        # the perturbed leg fires more, fewer and as many events as the
        # nominal one, and either leg may stop at a cap
        signs, statuses = set(), set()
        for caps in ({}, {"max_events": 10}, {"state_cap": 6}):
            for delta in (-0.5, 0.0, 0.5):
                pert = PerturbationSpec({"k1": delta})
                for seed in range(8):
                    cfg = SimConfig(t_end=4.0, seed=seed, **caps)
                    legs = simulate_coupled(BIMOL, [3, 1], [3, 1], pert, cfg)
                    plain = (
                        simulate_rtc(BIMOL, [3, 1], cfg),
                        simulate_rtc(pert.apply(BIMOL), [3, 1], cfg),
                    )
                    for leg, want in zip(legs, plain):
                        assert leg.times.tobytes() == want.times.tobytes()
                        assert np.array_equal(leg.states, want.states)
                        assert np.array_equal(leg.channels, want.channels)
                        assert leg.status == want.status
                        assert leg.internal_times == want.internal_times
                        assert leg.channel_counts == want.channel_counts
                        statuses.add(leg.status)
                    signs.add(int(np.sign(legs[1].n_events - legs[0].n_events)))
        assert signs == {-1, 0, 1}
        assert statuses == {"t_end", "max_events", "state_cap"}

    def test_streams_seeded_once_per_pair(self, monkeypatch):
        seeds = []
        reseed = random.Random.seed

        def counting(stream, a=None, version=2):
            seeds.append(a)
            reseed(stream, a, version)

        monkeypatch.setattr(random.Random, "seed", counting)
        pert = PerturbationSpec({"k2": 0.1})
        grid = np.array([0.0, 0.5])
        cfg = SimConfig(t_end=0.5)
        samples, _ = engine._rms_terms(grid, cfg, BIMOL, pert.apply(BIMOL), [5, 5], [5, 5])
        rows, _ = samples(np.array([mix64(2, i) for i in range(300)], dtype=np.uint64))
        # each channel stream of each pair is seeded once, pair after pair
        n_r, tag = BIMOL.n_reactions, engine._CHANNEL_TAG
        assert seeds == [mix64(mix64(2, i), tag, r) for i in range(300) for r in range(n_r)]
        # and each pair is the coupled pair on the pair's seed
        for i in (0, 299):
            legs = simulate_coupled(BIMOL, [5, 5], [5, 5], pert, SimConfig(0.5, mix64(2, i)))
            assert np.array_equal(rows[i], [leg.sample(grid) for leg in legs])
        seeds.clear()
        simulate_coupled(BIMOL, [5, 5], [5, 5], pert, SimConfig(t_end=0.5, seed=2))
        assert seeds == [mix64(2, tag, r) for r in range(n_r)]


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the main thread after ``seconds``: a byte case
    whose sampler stops advancing fails instead of hanging the suite (an
    event cap cannot stop a loop that waits for every grid time)."""

    def expire(signum, frame):
        raise TimeoutError(f"the case ran past its {seconds} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


CASE_SECONDS = 10  # the slowest byte case takes about 1 s


def _clock(stream):
    """An RTC channel clock on ``stream``'s uniforms: each call returns the next increment."""
    return lockstep._increments(itertools.repeat(stream.random)).__next__


class _Scripted:
    """A stream of uniforms whose increments are the script's, then 10.0 each."""

    def __init__(self, increments):
        self.uniforms = itertools.chain(
            [-math.expm1(-e) for e in increments], itertools.repeat(-math.expm1(-10.0))
        )

    def random(self):
        return next(self.uniforms)


# A + B at 1e300 overflows as soon as both are present
OVERFLOWING = parse_model(
    "species A B C\nR1: 0 -> A @ 1.0\nR2: 0 -> B @ 1.0\n"
    "R3: A + B -> A + B @ 1e300\nR4: 0 -> C @ 1.0"
)


def _preset_pair_case(name):
    """Preset ``name`` from its own x0 with its first named rate up 30 %."""
    preset = get_preset(name)
    names = [rxn.rate_name for rxn in preset.network.reactions if rxn.rate_name]
    pert = PerturbationSpec({names[0]: 0.3} if names else {})
    t_end = 0.02 if "enzyme" in name else 1.0
    caps = {"cubic": {"state_cap": 30, "max_events": 850}, "enzyme": {"max_events": 2400},
            "enzyme-linear": {"max_events": 2400}, "reversible": {"max_events": 80}}
    grid = np.linspace(0.0, t_end, 6)
    return (preset.network, preset.x0, preset.x0, pert, grid, 64,
            caps.get(name, {"max_events": 40}), "some" if name == "cubic" else "none")


def _random_pair_cases():
    """20 seeded random order-2 networks, the y leg one count up in the first species."""
    rng = np.random.default_rng(20121030)
    most = (7, 37, 3, 11, 10, 14, 30, 17, 5, 17, 20, 6, 46, 55, 7, 96, 51, 313, 114, 15)
    cases = {}
    for i, events in enumerate(most):  # the largest event count of either leg
        text, x0 = _random_order2(rng)
        caps = {"state_cap": 200, "max_events": 4 * events}
        cases[f"random-{i}"] = (
            parse_model(text), x0, [x0[0] + 1, *x0[1:]], PerturbationSpec(),
            np.linspace(0.0, 0.5, 5), 32, caps, "some" if i == 15 else "none",
        )
    return cases


# (net, x0, y0, perturbation, grid, n, caps, which pairs hit a cap); every
# case has an event cap about four times the largest event count of its legs
PAIR_CASES = {
    **{f"preset-{name}": _preset_pair_case(name) for name in sorted(PRESETS)},
    **_random_pair_cases(),
    "y0-differs": (
        BIMOL, [5, 5], [6, 4], PerturbationSpec({"k2": 0.1}), np.linspace(0.0, 2.0, 5), 64,
        {"max_events": 70}, "none",
    ),
    "identical-legs": (
        BIMOL, [5, 5], [5, 5], PerturbationSpec(), np.linspace(0.0, 2.0, 5), 64,
        {"max_events": 70}, "none",
    ),
    # either leg may stop first, at the state cap or at the event cap
    "state-cap": (
        BIMOL, [3, 1], [3, 1], PerturbationSpec({"k1": 0.5}), np.linspace(0.0, 4.0, 5), 64,
        {"state_cap": 6, "max_events": 130}, "some",
    ),
    "max-events": (
        BIMOL, [3, 1], [3, 1], PerturbationSpec({"k1": -0.5}), np.linspace(0.0, 4.0, 5), 64,
        {"max_events": 10}, "some",
    ),
    # most legs reach the event cap, the rest stop at t_end first and
    # stay in the work rows: their cap times stay inf
    "max-events-after-stops": (
        NAMED_BIRTH, [0], [0], PerturbationSpec({"k": 0.2}), np.linspace(0.0, 6.0, 4), 64,
        {"max_events": 5}, "some",
    ),
    # one leg starts above the cap: the pair's cap time is 0
    "x-start-above-cap": (
        BIMOL, [50, 50], [0, 0], PerturbationSpec(), np.linspace(0.0, 1.0, 3), 16,
        {"state_cap": 10, "max_events": 30}, "all",
    ),
    "y-start-above-cap": (
        BIMOL, [0, 0], [50, 50], PerturbationSpec(), np.linspace(0.0, 1.0, 3), 16,
        {"state_cap": 10, "max_events": 30}, "all",
    ),
    # the total falls to 0, so the pending event is at inf
    "absorbing": (
        parse_model("species A\nR: A -> 0 @ 1.0"), [5], [3], PerturbationSpec(),
        np.linspace(0.0, 5.0, 5), 64, {"max_events": 20}, "none",
    ),
    "zero-grid": (
        BIMOL, [5, 5], [5, 5], PerturbationSpec({"k2": 0.1}), [0.0], 64, {"max_events": 4},
        "none",
    ),
    # more pairs than a chunk, and not a multiple of one
    "past-one-chunk": (
        BIMOL, [5, 5], [5, 5], PerturbationSpec({"k2": 0.1}), np.linspace(0.0, 0.5, 3), 300,
        {"max_events": 44}, "none",
    ),
}


def _pairs(case, seed=7):
    """The lockstep kernel's rows and cap times for ``case``, and the config it ran."""
    net, x0, y0, pert, grid, n, caps, _ = case
    grid = np.asarray(grid, dtype=float)
    cfg = engine._grid_config(grid, **caps)
    seeds = np.array([mix64(seed, i) for i in range(n)], dtype=np.uint64)
    samples, _ = engine._rms_terms(grid, cfg, net, pert.apply(net), x0, y0)
    return samples(seeds), seeds, cfg


class TestPairKernel:
    """The lockstep pairs of ``coupled_rms`` against ``simulate_coupled``, byte for byte."""

    # streams that start with one draw, so legs read past their blocks, draw
    # new ones and grow the store all the time, in lockstep to the end or
    # handed to the steppers after two passes; and lockstep to the end
    PHASES = {
        "one-draw-blocks-lockstep": {"_FIRST_BLOCK": 1, "_TAIL": 0},
        "one-draw-blocks-handed-over": {"_FIRST_BLOCK": 1, "_TAIL": 2**62},
        "lockstep-only": {"_TAIL": 0},
        "record-blocks-of-seven": {"_RECORD_BLOCK": 7},
    }

    @staticmethod
    def _check_bytes(case):
        net, x0, y0, pert, grid, n, _, capped = case
        with _time_limit(CASE_SECONDS):
            (rows, cap_time), seeds, cfg = _pairs(case)
        want_rows, want_caps = [], []
        for seed in seeds.tolist():
            legs = simulate_coupled(net, x0, y0, pert, dataclasses.replace(cfg, seed=seed))
            want_rows.append([leg.sample(grid) for leg in legs])
            want_caps.append(min(leg.cap_time for leg in legs))
        assert rows.tobytes() == np.array(want_rows, dtype=float).tobytes()
        assert cap_time.tobytes() == np.array(want_caps).tobytes()
        hit = np.isfinite(cap_time)
        assert {"none": not hit.any(), "all": hit.all(), "some": 0 < hit.sum() < n}[capped]

    @pytest.mark.parametrize("case", list(PAIR_CASES.values()), ids=list(PAIR_CASES))
    def test_bytes_match_the_coupled_legs(self, case):
        self._check_bytes(case)

    @pytest.mark.parametrize("setting", list(PHASES.values()), ids=list(PHASES))
    @pytest.mark.parametrize("case", list(PAIR_CASES.values()), ids=list(PAIR_CASES))
    def test_bytes_match_the_coupled_legs_in_each_phase(self, monkeypatch, setting, case):
        for name, value in setting.items():
            monkeypatch.setattr(lockstep, name, value)
        self._check_bytes(case)

    def test_a_few_long_legs_go_to_the_stepper(self, monkeypatch):
        # cubic from 3: most legs freeze below 3 or stop within a few hundred
        # events, a few run on to the event cap; those finish in the stepper
        runs = []
        stepper = lockstep._stepper

        def counting(*key):
            step = stepper(*key)

            def counted(*args):
                runs.append(key[3])
                return step(*args)

            return counted

        monkeypatch.setattr(lockstep, "_stepper", counting)
        self._check_bytes(
            (CUBIC, [3], [3], PerturbationSpec(), np.linspace(0.0, 1.0, 6), 64,
             {"state_cap": 10**6, "max_events": 4000}, "some")
        )
        assert 0 < runs.count("grid") <= lockstep._TAIL

    def test_curve_matches_the_coupled_legs_across_chunks(self, monkeypatch):
        # 300 pairs: a full chunk and part of one, legs stopping at either cap
        net, x0, y0, pert, grid, _, caps, _ = PAIR_CASES["state-cap"]
        got = coupled_rms(net, x0, y0, pert, grid, 300, 7, workers=1, **caps)
        terms = engine._rms_terms

        def stepped(grid, cfg, net, pert_net, x, y):
            def samples(seeds):
                rows, cap_time = [], []
                for seed in seeds.tolist():
                    legs = simulate_coupled(net, x, y, pert, dataclasses.replace(cfg, seed=seed))
                    rows.append([leg.sample(grid) for leg in legs])
                    cap_time.append(min(leg.cap_time for leg in legs))
                return np.array(rows, dtype=float), np.array(cap_time)

            return samples, terms(grid, cfg, net, pert_net, x, y)[1]

        monkeypatch.setattr(engine, "_rms_terms", stepped)
        want = coupled_rms(net, x0, y0, pert, grid, 300, 7, workers=1, **caps)
        for name in ("rms", "stderr", "mean_sq", "species_rms", "n_valid"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert 0 < got.n_valid.min() < 300

    def test_equal_starts_and_no_perturbation_give_equal_legs(self):
        (rows, _), _, _ = _pairs(PAIR_CASES["identical-legs"])
        assert np.array_equal(rows[:, 0], rows[:, 1]) and len(np.unique(rows[:, 0, -1], axis=0)) > 1

    def test_zero_draws_match_the_stepper(self, monkeypatch):
        # every third uniform is 0.0: a first clock point -log(1.0) = -0.0
        # equals its integrated intensity, and later points repeat, so the
        # time to them is 0 and events pile up at one time
        real = random.Random

        class ZeroEveryThird:
            def __init__(self, seed):
                self.rng, self.k = real(seed), 0

            def random(self):
                self.k += 1
                return 0.0 if self.k % 3 == 1 else self.rng.random()

        net, x0, y0, pert, grid, n, caps, _ = PAIR_CASES["y0-differs"]
        monkeypatch.setattr(random, "Random", ZeroEveryThird)
        (rows, cap_time), seeds, cfg = _pairs(PAIR_CASES["y0-differs"])
        run = (cfg.t_end, cfg.max_events, cfg.state_cap, grid.tolist())
        pert_net = pert.apply(net)
        for i, seed in enumerate(seeds.tolist()):
            legs = []
            for leg_net, start in ((net, x0), (pert_net, y0)):
                clocks = [_clock(ZeroEveryThird(s)) for s in
                          (mix64(seed, engine._CHANNEL_TAG, r) for r in range(net.n_reactions))]
                step = lockstep._stepper(leg_net.reactions, net.n_species, "rtc", "grid")
                legs.append(step(start, clocks, *run))
            assert np.array_equal(rows[i], [leg_rows for leg_rows, _, _ in legs])
            assert cap_time[i] == min(cap for _, cap, _ in legs)
        assert not np.isfinite(cap_time).any()

    @pytest.mark.parametrize("late", [0, 1], ids=["handed-over-first", "lockstep-first"])
    def test_overflows_in_both_phases_raise_the_first_pair(self, late):
        # scripted increments: one pair fires C every 0.01 until A and B
        # appear at 0.5, long after it is handed to the stepper, and
        # overflows there at [1, 1, 50]; the other overflows on its third
        # pass, in lockstep, at [1, 1, 0]; pairs 2-12 fire 20 times.  The
        # error of pair 0 comes first, as pair after pair it would
        net = OVERFLOWING
        grid = np.array([0.0, 1.0])
        cfg = engine._grid_config(grid)
        scripts = [[[0.001], [0.001], [], []]]
        scripts.insert(late, [[0.5], [0.5], [], [0.01] * 100])
        scripts += [[[], [], [], [0.01] * 20]] * 11

        step = lockstep._stepper(net.reactions, 3, "rtc", "grid")
        run = (cfg.t_end, cfg.max_events, cfg.state_cap, grid.tolist())
        with pytest.raises(SimulationError) as want:
            for pair in scripts:  # x leg, then y leg, pair after pair
                for _ in range(2):
                    step([0, 0, 0], [_clock(_Scripted(s)) for s in pair], *run)
        streams = [[_Scripted(s).random for s in pair] for pair in scripts]
        with pytest.raises(SimulationError) as got:
            lockstep.pair_states((net, net), ([0, 0, 0], [0, 0, 0]), streams, grid, cfg)
        first = "[1, 1, 50]" if late == 0 else "[1, 1, 0]"
        assert str(got.value) == str(want.value) == f"propensity overflow at state {first}"

    def test_an_event_cap_before_an_overflow_stops_the_legs(self):
        # 20 legs would overflow on their third pass, in lockstep; the event
        # cap of 2 stops them first, as it stops the stepper
        grid = np.array([0.0, 1.0])
        cfg = engine._grid_config(grid, max_events=2)
        scripts = [[[0.001], [0.001], [], []]] * 10
        step = lockstep._stepper(OVERFLOWING.reactions, 3, "rtc", "grid")
        run = (cfg.t_end, cfg.max_events, cfg.state_cap, grid.tolist())
        want = [step([0, 0, 0], [_clock(_Scripted(s)) for s in pair], *run) for pair in scripts]
        streams = [[_Scripted(s).random for s in pair] for pair in scripts]
        rows, caps = lockstep.pair_states(
            (OVERFLOWING, OVERFLOWING), ([0, 0, 0], [0, 0, 0]), streams, grid, cfg
        )
        assert np.array_equal(rows, [[leg_rows, leg_rows] for leg_rows, _, _ in want])
        assert caps.tolist() == [cap for _, cap, _ in want] and np.isfinite(caps).all()

    @pytest.mark.parametrize(
        "tail", [0, lockstep._TAIL, 2**62], ids=["lockstep", "default", "stepper"]
    )
    def test_overflow_raises_the_first_error_of_the_pairs_in_order(self, monkeypatch, tail):
        monkeypatch.setattr(lockstep, "_TAIL", tail)
        # once A and B are both present R3 fires at about 1e298 A B, adding an
        # A each time, until the total passes 1e300: at A B = 100 on the x leg
        # and 50 on the y leg, with B as the path left it; the y leg's A
        # comes three times as fast, so either leg can fail alone
        net = parse_model(
            "species A B\nk1 = 1.0\nk3 = 1e298\nR1: 0 -> A @ k1\nR2: 0 -> B @ 1.0\n"
            "R3: A + B -> 2 A + B @ k3"
        )
        pert = PerturbationSpec({"k1": 2.0, "k3": 1.0})
        cfg = SimConfig(t_end=0.3, max_events=1000)
        firsts = set()
        for seed in range(6):
            first = None
            for i in range(300):  # the scalar order: pair after pair, x leg first
                pair_cfg = dataclasses.replace(cfg, seed=mix64(seed, i))
                try:
                    simulate_coupled(net, [0, 0], [0, 0], pert, pair_cfg)
                except SimulationError as exc:
                    try:
                        simulate_rtc(net, [0, 0], pair_cfg)
                        leg = "y"
                    except SimulationError:
                        leg = "x"
                    first = i, leg, str(exc)
                    break
            firsts.add((first[0] > 0, first[1]))
            with pytest.raises(SimulationError) as got:
                coupled_rms(net, [0, 0], [0, 0], pert, [0.0, 0.3], 300, seed, workers=1,
                            max_events=1000)
            assert str(got.value) == first[2]
        # the first failure is past pair 0 and on either leg
        assert {leg for late, leg in firsts if late} == {"x", "y"}


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
        # legs that fire unequally and stop at the state cap
        grid = np.linspace(0.0, 2.0, 5)
        pert = PerturbationSpec({"k1": 0.5})
        a, b = (
            coupled_rms(BIMOL, [3, 1], [3, 1], pert, grid, 600, seed=9, workers=w, state_cap=6)
            for w in (1, 2)
        )
        assert (a.n_valid < 600).any()
        assert a.to_csv(BIMOL.species) == b.to_csv(BIMOL.species)

    def test_no_worker_left_running(self):
        import multiprocessing

        pert = PerturbationSpec({"k2": 0.1})
        ensemble_moments(BIMOL, [5, 5], [0.0, 0.5], 1, 600, seed=1, workers=2)
        assert multiprocessing.active_children() == []
        coupled_rms(BIMOL, [5, 5], [5, 5], pert, [0.0, 0.5], 600, seed=1, workers=2)
        assert multiprocessing.active_children() == []

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

        def counting_stepper(*key):
            step = stepper(*key)

            def counted(*args):
                rows, cap_time, n_events = step(*args)
                events.append(n_events)
                return rows, cap_time, n_events

            return counted

        stepper = lockstep._stepper
        monkeypatch.setattr(lockstep, "_stepper", counting_stepper)
        x0 = get_preset("enzyme").x0
        table = ensemble_moments(ENZYME, x0, [0.0], 1, 64, 1, workers=1)
        assert len(events) == 64 and sum(events) == 0
        longer = ensemble_moments(ENZYME, x0, [0.0, 0.01], 1, 64, 1, workers=1)
        for name in ("moments", "stderr", "species_mean", "species_var", "n_valid"):
            assert np.array_equal(getattr(table, name)[0], getattr(longer, name)[0])

    @pytest.mark.parametrize("grid", [[1.0], [0.5, 1.0]], ids=["one-point", "two-point"])
    def test_chunk_sums_in_sample_order(self, grid):
        # squares of counts near 1.2e8 round, so the order of the sums shows in
        # their bits; the state cap leaves some samples invalid
        grid = np.array(grid)
        cfg = SimConfig(t_end=1.0, state_cap=123456790)
        targs = (BIRTH, [123456789], 2)
        sums, valid = engine._chunk(engine._moment_terms, targs, grid, 5, 0, 200, cfg)
        run_samples, _ = engine._moment_terms(grid, cfg, *targs)
        seeds = np.array([mix64(5, i) for i in range(200)], dtype=np.uint64)
        orders = np.arange(1, 3)[None, :]
        want, want_valid = None, np.zeros(len(grid), dtype=np.int64)
        rows, caps = run_samples(seeds)
        for samples, cap_time in zip(rows, caps):
            # one sample's terms, as they were computed before the chunk batching
            ok = grid < cap_time
            powers = samples.sum(axis=1)[:, None] ** orders
            parts = (powers, powers**2, samples, samples**2)
            want = want or [np.zeros_like(term) for term in parts]
            for acc, term in zip(want, parts):
                acc += term * ok.astype(float)[:, None]
            want_valid += ok
        assert [a.tobytes() for a in sums] == [a.tobytes() for a in want]
        assert np.array_equal(valid, want_valid) and 0 < valid.min() < 200

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("JKL_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("JKL_THREADS", "junk")
        assert worker_count() == len(os.sched_getaffinity(0))
        assert worker_count(5) == 5

    def test_worker_count_affinity(self, monkeypatch):
        monkeypatch.delenv("JKL_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert worker_count() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert worker_count() == (os.cpu_count() or 1)


def _reference_rate(prop, x):
    """``w(x)`` as the falling-factorial loop ``w = k; w *= x_s - i``, left to right."""
    w = prop.rate
    for s, m in prop.reactants:
        for i in range(m):
            w *= x[s] - i
    return w


def _reference_batch_rate(prop, x, out):
    """``w`` at each row of the (n, D) float matrix x, in the batch sampler's
    in-place arithmetic: order-2 products are scaled by the rate last."""
    kind, k = prop.kind, prop.rate
    if kind == "constant":
        out.fill(k)
    elif kind == "linear":
        np.multiply(x[:, prop.reactants[0][0]], k, out=out)
    elif kind == "bilinear":
        (i, _), (j, _) = prop.reactants
        np.multiply(x[:, i], x[:, j], out=out)
        out *= k
    elif kind == "dimer":
        i = prop.reactants[0][0]
        np.subtract(x[:, i], 1.0, out=out)
        out *= x[:, i]
        out *= k
    else:
        out.fill(k)
        for s, m in prop.reactants:
            for step in range(m):
                out *= x[:, s] - step


def _reference_path(net, x0, cfg, sampler):
    """The per-reaction loop the generated steppers replaced."""
    props = [rxn.propensity for rxn in net.reactions]
    n_r = len(props)
    rng = random.Random(cfg.seed & (2**64 - 1))
    clocks = engine._channel_streams(cfg.seed, n_r)
    t_int = [0.0] * n_r
    nxt = [c.expovariate(1.0) for c in clocks]
    counts = [0] * n_r
    x, t, status = list(x0), 0.0, "t_end"
    times, states, channels = [0.0], [tuple(x)], []
    while True:
        if len(channels) >= cfg.max_events:
            status = "max_events"
            break
        w = [_reference_rate(prop, x) for prop in props]
        total = 0.0
        for v in w:
            total += v
        if not total < 1e300:
            raise SimulationError(f"propensity overflow at state {x}")
        if total <= 0.0:
            break
        if sampler == "direct":
            t_next = t + rng.expovariate(total)
            if t_next > cfg.t_end:
                break
            target, acc, fired = rng.random() * total, 0.0, n_r - 1
            for j in range(n_r):
                acc += w[j]
                if target < acc:
                    fired = j
                    break
        else:
            best, fired = math.inf, -1
            for j in range(n_r):
                if w[j] > 0.0 and (nxt[j] - t_int[j]) / w[j] < best:
                    best, fired = (nxt[j] - t_int[j]) / w[j], j
            t_next = t + best
            if t_next > cfg.t_end:
                break
            for j in range(n_r):
                if w[j] > 0.0 and j != fired:
                    t_int[j] = min(t_int[j] + w[j] * best, nxt[j])
            t_int[fired] = nxt[fired]
            nxt[fired] += clocks[fired].expovariate(1.0)
            counts[fired] += 1
        x = [v - d for v, d in zip(x, net.reactions[fired].nu)]
        t = t_next
        times.append(t)
        states.append(tuple(x))
        channels.append(fired)
        if sum(x) > cfg.state_cap:
            status = "state_cap"
            break
    clocks_out = (tuple(t_int), tuple(counts)) if sampler == "rtc" else (None, None)
    return times, states, channels, status, clocks_out


def _reference_batch(net, x0, grid, n, seed, state_cap=1e9, max_events_per_traj=10**8):
    """The lockstep batch loop, on the per-kind in-place rate arithmetic it ran on."""
    grid = np.asarray(grid, dtype=float)
    dim, n_g, n_r = net.n_species, len(grid), net.n_reactions
    t_end = float(grid[-1])
    rng = np.random.Generator(np.random.PCG64(mix64(seed, engine._BATCH_TAG)))
    x = np.tile(np.asarray(x0, dtype=float), (n, 1))
    t = np.zeros(n)
    gidx = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    events = np.zeros(n, dtype=np.int64)
    cap_time = np.full(n, np.inf)
    out = np.empty((n_g, n, dim))
    nu_rows = net.stoichiometry.T.astype(float)
    traj_idx = np.arange(n)
    w = np.empty((n_r, n))
    cum = np.empty((n_r, n))

    def flush(rec_mask):
        while True:
            rec = rec_mask()
            if not rec.any():
                break
            out[gidx[rec], traj_idx[rec]] = x[rec]
            gidx[rec] += 1

    while active.any():
        for r, rxn in enumerate(net.reactions):
            _reference_batch_rate(rxn.propensity, x, w[r])
        total = w.sum(axis=0)
        e = rng.exponential(size=n)
        u = rng.random(n)
        with np.errstate(divide="ignore", invalid="ignore"):
            dt = np.where(total > 0, e / total, np.inf)
        t_new = np.where(active, t + dt, -np.inf)
        flush(lambda: active & (gidx < n_g) & (grid[np.minimum(gidx, n_g - 1)] < t_new))
        active &= gidx < n_g
        fire = active & (t_new <= t_end)
        if not fire.any():
            continue
        np.cumsum(w, axis=0, out=cum)
        sel = np.minimum((cum <= (u * total)[None, :]).sum(axis=0), n_r - 1)
        x[fire] -= nu_rows[sel[fire]]
        t[fire] = t_new[fire]
        events[fire] += 1
        capped = fire & ((x.sum(axis=1) > state_cap) | (events >= max_events_per_traj))
        if capped.any():
            cap_time[capped] = t[capped]
            flush(lambda: capped & (gidx < n_g))
            active[capped] = False
    return out, cap_time


class TestSteppers:
    # every kind, a zero-net-change channel and a species the propensities skip
    NET = parse_model(
        "species Alpha Beta Gamma\nkfast = 0.013\nbirth: 0 -> Alpha @ 2.7\n"
        "bind: Alpha + Beta -> Gamma @ kfast\nR3: 2 Alpha -> Beta @ 0.011\n"
        "R4: Gamma -> Alpha + Beta @ 0.3\nR5: Alpha + 2 Beta -> 3 Beta @ 0.0007\n"
        "R6: Beta -> Beta @ 0.5"
    )

    @pytest.mark.parametrize("sampler", ["direct", "rtc"])
    @pytest.mark.parametrize(
        "caps",
        [{}, {"state_cap": 38}, {"max_events": 30}],
        ids=["t_end", "state_cap", "max_events"],
    )
    def test_grid_mode_records_the_path_at_the_grid(self, sampler, caps):
        grid = np.linspace(0.0, 4.0, 9)
        run = simulate_direct if sampler == "direct" else simulate_rtc
        for seed in range(20):
            cfg = SimConfig(t_end=4.0, seed=seed, **caps)
            traj = run(self.NET, [10, 10, 10], cfg)
            draws = (
                random.Random(seed)
                if sampler == "direct"
                else [
                    _clock(r)
                    for r in engine._channel_streams(seed, self.NET.n_reactions)
                ]
            )
            step = lockstep._stepper(self.NET.reactions, 3, sampler, "grid")
            rows, cap_time, n_events = step(
                [10, 10, 10], draws, cfg.t_end, cfg.max_events, cfg.state_cap, grid.tolist()
            )
            assert np.array_equal(np.array(rows), traj.sample(grid))
            assert cap_time == traj.cap_time and n_events == traj.n_events

    @pytest.mark.parametrize("sampler", ["direct", "rtc"])
    def test_paths_match_the_reference_loop(self, sampler):
        run = simulate_direct if sampler == "direct" else simulate_rtc
        nets = [(self.NET, [10, 10, 10]), (ENZYME, [0, 0]), (BIMOL, [3, 1]), (CUBIC, [10])]
        for net, x0 in nets:
            for caps in ({}, {"state_cap": 38}, {"max_events": 30}):
                for seed in range(5):
                    cfg = SimConfig(t_end=0.01 if net is ENZYME else 2.0, seed=seed, **caps)
                    traj = run(net, x0, cfg)
                    times, states, channels, status, clocks = _reference_path(
                        net, x0, cfg, sampler
                    )
                    assert traj.times.tobytes() == np.array(times).tobytes()
                    assert np.array_equal(traj.states, states) and traj.status == status
                    assert traj.channels.tolist() == channels
                    assert (traj.internal_times, traj.channel_counts) == clocks

    def test_overflow_message_matches_the_reference_loop(self):
        net = parse_model("species A\nR: 0 -> A @ 1e305\nR2: 3 A -> 4 A @ 1e305")
        for sampler, run in (("direct", simulate_direct), ("rtc", simulate_rtc)):
            cfg = SimConfig(t_end=1.0, seed=1)
            with pytest.raises(SimulationError) as want:
                _reference_path(net, [10], cfg, sampler)
            with pytest.raises(SimulationError, match=re.escape(str(want.value))):
                run(net, [10], cfg)

    def test_source_holds_only_literals(self):
        for sampler in ("direct", "rtc"):
            for mode in ("path", "grid"):
                src = lockstep._stepper_source(self.NET.reactions, 3, sampler, mode)
                for name in ("Alpha", "Beta", "birth", "bind", "kfast"):
                    assert name not in src
                assert "0.013 * x0 * x1" in src and "0.0007 * x0 * x1 * (x1 - 1)" in src
        rates = {repr(float(rxn.rate)) for rxn in self.NET.reactions}
        for rate_last, bilinear, dimer in (
            (False, "0.013 * x0 * x1", "0.011 * x0 * (x0 - 1)"),
            (True, "(x0 * x1) * 0.013", "(x0 * (x0 - 1)) * 0.011"),
        ):
            src = model._rates_source(self.NET.reactions, 3, rate_last)
            names = {"def", "rates", "out", "x0", "x1", "x2"}
            assert set(re.findall(r"[A-Za-z_]\w*", src)) == names
            assert set(re.findall(r"\d+\.\d+", src)) == rates
            assert bilinear in src and dimer in src and "0.0007 * x0 * x1 * (x1 - 1)" in src

    def test_compiled_once_per_network_sampler_and_mode(self):
        lockstep._stepper.cache_clear()
        model._rates.cache_clear()
        pert = PerturbationSpec({"kfast": 0.1})
        grid = [0.0, 0.5, 1.0]
        x0 = [10, 10, 10]
        for _ in range(2):
            ensemble_moments(self.NET, x0, grid, 2, 300, seed=1, workers=1)
            coupled_rms(self.NET, x0, x0, pert, grid, 300, seed=1, workers=1)
            for seed in range(3):
                simulate_direct(self.NET, x0, SimConfig(t_end=1.0, seed=seed))
                simulate_coupled(self.NET, x0, x0, pert, SimConfig(t_end=1.0, seed=seed))
        # direct/grid, rtc/grid for both legs, direct/path, rtc/path for both
        # legs; the lockstep pairs compile each leg's rate evaluator too
        assert lockstep._stepper.cache_info().misses == 6
        assert model._rates.cache_info().misses == 2


class TestPropensityEmitter:
    """Each compiled evaluator equals an in-test reference expression bit for bit."""

    NET = TestSteppers.NET  # every kind, order 3 included

    def test_propensity_eval_matches_the_reference_loop(self):
        rng = np.random.default_rng(11)
        props = [rxn.propensity for rxn in self.NET.reactions]
        for _ in range(50):
            ints = rng.integers(0, 200, size=3).tolist()
            floats = rng.uniform(0.0, 200.0, size=3).tolist()
            for x in (ints, floats):
                expect = np.array([_reference_rate(p, x) for p in props], dtype=float)
                assert propensity_eval(self.NET, x).tobytes() == expect.tobytes()

    def test_successor_rates_match_the_reference_loop(self):
        states = np.random.default_rng(12).integers(0, 200, size=(500, 3))
        w, _, _ = cme._successors(self.NET, states, np.full(3, 200))
        assert w.shape == (500, self.NET.n_reactions) and w.flags.c_contiguous
        for j, rxn in enumerate(self.NET.reactions):
            expect = np.empty(len(states))
            expect[:] = _reference_rate(rxn.propensity, states.T)
            assert w[:, j].tobytes() == expect.tobytes()

    def test_batch_rates_match_the_reference_arithmetic(self):
        x = np.random.default_rng(13).integers(0, 200, size=(500, 3)).astype(float)
        w = np.empty((self.NET.n_reactions, len(x)))
        model._rates(self.NET.reactions, 3, True)(w, *x.T)
        for j, rxn in enumerate(self.NET.reactions):
            expect = np.empty(len(x))
            _reference_batch_rate(rxn.propensity, x, expect)
            assert w[j].tobytes() == expect.tobytes()


GRID5 = np.linspace(0.0, 5.0, 5)
# trajectory 0 of a rate-1 birth batch at seed 7 has its first event at its
# first exponential draw, so this grid time falls exactly on an event
ON_EVENT = np.random.Generator(np.random.PCG64(mix64(7, engine._BATCH_TAG))).standard_exponential()


# (net, x0, grid, n, caps, which trajectories hit a cap); every case has an
# event cap about four times its largest event count, so a sampler that
# stops advancing a trajectory fails in seconds instead of running 10^8 passes
BATCH_CASES = {
    "mixed": (parse_model(MIXED), [20, 20], GRID5, 2000, {"max_events_per_traj": 160}, "none"),
    "mixed-max-events": (
        parse_model(MIXED), [20, 20], GRID5, 2000, {"max_events_per_traj": 15}, "all"
    ),
    "cubic-state-cap": (
        CUBIC, [3], GRID5, 2000, {"state_cap": 30, "max_events_per_traj": 2500}, "some"
    ),
    "enzyme": (
        ENZYME, get_preset("enzyme").x0, np.linspace(0.0, 0.02, 5), 500,
        {"max_events_per_traj": 2000}, "none",
    ),
    # a point at 0 and three more inside one gap between events
    "zero-and-gap": (
        parse_model(MIXED), [20, 20], [0.0, 0.01, 0.01 + 1e-7, 0.01 + 2e-7, 0.02, 1.0],
        2000, {"max_events_per_traj": 80}, "none",
    ),
    # the total falls to 0, so the pending event is at inf
    "absorbing": (
        parse_model("species A\nR: A -> 0 @ 1.0"), [5], GRID5, 2000,
        {"max_events_per_traj": 20}, "none",
    ),
    "n-one": (parse_model(MIXED), [20, 20], GRID5, 1, {"max_events_per_traj": 100}, "none"),
    "event-on-grid": (
        BIRTH, [0], [ON_EVENT, ON_EVENT + 1.0], 4, {"max_events_per_traj": 8}, "none"
    ),
    # trajectories leave after 1 to 15 events, on both sides of the
    # pass where at most half of them still fire
    "birth-leaving": (BIRTH, [0], GRID5, 2000, {"max_events_per_traj": 60}, "none"),
    # a third freeze at 1 or 2 after the first events and most of the
    # rest pass the cap within three events
    "cubic-early-cap": (
        CUBIC, [3], GRID5, 2000, {"state_cap": 5, "max_events_per_traj": 60}, "some"
    ),
    # about half freeze at total 0 on the first event; the rest branch
    "half-frozen": (
        parse_model("species A\nR1: A -> 0 @ 1.0\nR2: A -> 2 A @ 1.0"), [1], GRID5,
        2000, {"max_events_per_traj": 800}, "none",
    ),
    # more lanes than one recording block holds
    "past-one-block": (
        BIRTH, [0], [0.5, 1.0], 2**16 + 5, {"max_events_per_traj": 28}, "none"
    ),
}


class TestBatchSampler:
    @staticmethod
    def _check_bytes(case):
        # uncapped digests cannot see a reassociated rate; cap times can
        net, x0, grid, n, caps, capped = case
        with _time_limit(CASE_SECONDS):
            states, cap_time = batch_states(net, x0, grid, n, seed=7, **caps)
        want_states, want_cap = _reference_batch(net, x0, grid, n, 7, **caps)
        assert states.tobytes() == want_states.tobytes()
        assert cap_time.tobytes() == want_cap.tobytes()
        hit = np.isfinite(cap_time)
        assert {"none": not hit.any(), "all": hit.all(), "some": 0 < hit.sum() < n}[capped]

    @pytest.mark.parametrize("case", list(BATCH_CASES.values()), ids=list(BATCH_CASES))
    def test_bytes_match_the_reference_loop(self, case):
        self._check_bytes(case)

    @pytest.mark.parametrize("case", list(BATCH_CASES.values()), ids=list(BATCH_CASES))
    def test_bytes_match_the_reference_loop_in_blocks_of_seven(self, monkeypatch, case):
        # every case with n > 7 records across block ends, before and after
        # the work rows shrink
        monkeypatch.setattr(lockstep, "_RECORD_BLOCK", 7)
        self._check_bytes(case)

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

    @staticmethod
    def _peak_beyond_output(*args, **kwargs):
        """tracemalloc's peak over one call, less the bytes the call returns, and those bytes."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            states, cap_time = batch_states(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        out = states.nbytes + cap_time.nbytes
        return peak - out, out

    def test_cubic_batch_peak_within_twelve_rows(self):
        # the short-paths benchmark batch at a quarter of its n: the work
        # rows, the rate temporaries and a recording block's indices
        n, m = 2**17, 10
        grid = np.linspace(0.0, 0.5 / (3.0 * m * (m - 1) * (m - 2)), 6)[1:]
        extra, _ = self._peak_beyond_output(CUBIC, [m], grid, n, seed=3, state_cap=1e6)
        assert extra <= 12 * 8 * n

    def test_enzyme_batch_peak_under_one_and_a_half_outputs(self):
        # D = 2: the states are written in their returned (G, n, D) order,
        # with no transposed copy of the record
        enzyme = get_preset("enzyme")
        grid = np.linspace(0.0, 0.02, 40)
        extra, out = self._peak_beyond_output(ENZYME, enzyme.x0, grid, 2**13, seed=3)
        assert extra + out < 1.5 * out

    def test_overflow_raises(self):
        net = parse_model("species A\nR: 0 -> A @ 1e305\nR2: 3 A -> 4 A @ 1e305")
        with np.errstate(over="ignore"), pytest.raises(SimulationError, match="overflow"):
            batch_states(net, [10], np.array([1.0]), 4, seed=1)


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

    def test_a_blow_up_before_the_grid_ends_raises(self):
        # x' = x (x - 1) from 10 blows up at t = ln(10 / 9), about 0.105, inside the grid
        net = parse_model("species A\nR: 2 A -> 3 A @ 1.0")
        with pytest.raises(SimulationError, match="rate-equation integration failed"):
            integrate_rre(net, [10.0], np.linspace(0.0, 1.0, 5))

    @pytest.mark.parametrize("grid", [[0.0], [1.0]])
    def test_one_point_grid_returns_the_initial_state(self, grid):
        sol = integrate_rre(BIRTH, [2.0], grid)
        assert np.array_equal(sol.times, grid)
        assert np.array_equal(sol.states, [[2.0]])

    @pytest.mark.parametrize(
        "case",
        [
            (BIRTH, [0.0], [1.0, 0.5], "grid"),
            (parse_model("species A\nR: 0 -> A @ -1"), [0.0], [0.0, 1.0], "negative"),
            (BIRTH, [0.0], [0.0, math.inf], "grid"),
            (BIRTH, [0.0], [math.nan, 1.0], "grid"),
            (BIRTH, [0.0], [], "grid"),
            (BIRTH, [0.0], [[0.0, 1.0]], "grid"),
            (BIRTH, [0.0, 1.0], [0.0, 1.0], "initial state"),
            (BIRTH, [math.nan], [0.0, 1.0], "initial state"),
        ],
        ids=[
            "backward-grid", "negative-rate", "infinite-grid", "nan-grid",
            "empty-grid", "two-dimensional-grid", "wrong-dimension", "nan-state",
        ],
    )
    def test_invalid_input_rejected(self, case):
        net, x0, grid, match = case
        with pytest.raises(ValueError, match=match):
            integrate_rre(net, x0, grid)
