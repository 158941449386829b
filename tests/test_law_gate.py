"""Sampled law against the master-equation oracle (fixed seeds, fixed z bound).

``ensemble_moments`` and ``batch_states`` are compared with the truncated
master equation's species means and variances on three presets, at caps
where the oracle's defect is below 1e-9; each leg of the coupled pairs of
``coupled_rms`` with its own network's species means, on bimol and two
seeded random networks.  Each mean is scored with the
exact standard deviation, each variance with the exact standard error of
a sample variance, ``sqrt((mu_4 - sigma^4) / n)``.  The sample sizes, the
seeds and the bound were fixed before the gate was first run; a failure
is a fault in a sampler, never a reason to re-seed or widen the gate.
The batch size, and the coupled bimol pair count, are large enough that a
clock 2 % off fails the gate.
"""

import functools

import numpy as np
import pytest

from jkl import analyzer, cme, engine
from jkl.engine import PerturbationSpec, batch_states, ensemble_moments, mix64
from jkl.parser import parse_model
from jkl.presets import get_preset
from test_golden import _random_order2

Z_BOUND = 5.0
ENSEMBLE_N, ENSEMBLE_SEED = 4000, 2024
BATCH_N, BATCH_SEED = 200_000, 2025
PAIR_SEED, NETWORK_SEED, PAIR_CAPS = 2026, 20121031, 60

# preset, grid (transient times, where the law still moves), oracle caps
CASES = {
    "bimol": ([0.5, 1.0], 30),
    "reversible": ([0.05, 0.2], 10),
    "enzyme-linear": ([0.0005, 0.002], 60),
}


def _oracle(name):
    """Exact species means, variances and fourth central moments on the grid."""
    grid, caps = CASES[name]
    preset = get_preset(name)
    idx = cme.enumerate_states(preset.network, preset.x0, caps)
    gen = cme.build_generator(preset.network, idx)
    sol = cme.integrate_cme(gen, cme.point_mass(idx, preset.x0), grid)
    assert sol.defect.max() < 1e-9
    states = idx.states.astype(float)
    mean, var, mu4 = [], [], []
    for g in range(len(grid)):
        m = cme.cme_moments(sol.probs[g], idx, 1, float(sol.defect[g]))
        mean.append(m.species_mean)
        var.append(m.species_var)
        mu4.append(sol.probs[g] @ (states - m.species_mean) ** 4)
    return np.array(mean), np.array(var), np.array(mu4)


def _z_scores(name, mean_hat, var_hat, n):
    mean, var, mu4 = _oracle(name)
    z_mean = (mean_hat - mean) / np.sqrt(var / n)
    z_var = (var_hat - var) / np.sqrt((mu4 - var**2) / n)
    return np.concatenate([z_mean.ravel(), z_var.ravel()])


@pytest.mark.parametrize("name", sorted(CASES))
def test_ensemble_moments_law(name):
    preset = get_preset(name)
    grid, _ = CASES[name]
    table = ensemble_moments(
        preset.network, preset.x0, grid, 1, ENSEMBLE_N, ENSEMBLE_SEED, workers=1
    )
    assert (table.n_valid == ENSEMBLE_N).all()
    z = _z_scores(name, table.species_mean, table.species_var, ENSEMBLE_N)
    assert np.abs(z).max() <= Z_BOUND, z


@pytest.mark.parametrize("name", sorted(CASES))
def test_batch_states_law(name):
    preset = get_preset(name)
    grid, _ = CASES[name]
    states, cap_time = batch_states(preset.network, preset.x0, grid, BATCH_N, BATCH_SEED)
    assert not np.isfinite(cap_time).any()
    states = states.astype(float)
    z = _z_scores(name, states.mean(axis=1), states.var(axis=1, ddof=1), BATCH_N)
    assert np.abs(z).max() <= Z_BOUND, z


@functools.cache
def _coupled_cases():
    """(net, x0, y0, perturbation, grid, pairs) of each coupled case.

    Bimol from 20 of each, where its means move fastest against their
    spread, perturbed in k2; then the first two two-species networks of the
    seeded stream that ``analyze`` accepts and whose oracle at caps
    PAIR_CAPS leaks less than 1e-9 from both starts, the y leg one count
    up in the first species.
    """
    cases = {
        "bimol": (
            get_preset("bimol").network, [20, 20], [20, 20], PerturbationSpec({"k2": 0.1}),
            [0.02, 0.05, 0.1], 16384,
        )
    }
    rng, grid = np.random.default_rng(NETWORK_SEED), [0.05, 0.2, 0.5]
    while len(cases) < 3:
        text, x0 = _random_order2(rng)
        net = parse_model(text)
        if net.n_species != 2:
            continue
        try:
            analyzer.analyze(net)
        except analyzer.AnalyzerError:
            continue
        y0 = [x0[0] + 1, *x0[1:]]
        if all(_exact_means(net, start, grid)[2] < 1e-9 for start in (x0, y0)):
            cases[f"random-{len(cases)}"] = (net, x0, y0, PerturbationSpec(), grid, 4096)
    return cases


_SOLVED = {}  # the case search solves the random networks' legs once


def _exact_means(net, x0, grid):
    """The oracle's species means and variances on the grid, and its largest defect."""
    key = (net.species, net.reactions, tuple(x0), tuple(grid))
    if key not in _SOLVED:
        idx = cme.enumerate_states(net, x0, PAIR_CAPS)
        sol = cme.integrate_cme(cme.build_generator(net, idx), cme.point_mass(idx, x0), grid)
        moments = [cme.cme_moments(probs, idx, 1, 0.0) for probs in sol.probs]
        _SOLVED[key] = (
            np.array([m.species_mean for m in moments]),
            np.array([m.species_var for m in moments]),
            float(sol.defect.max()),
        )
    return _SOLVED[key]


def _leg_means(net, x0, y0, pert, grid, n):
    """Each leg's species means over n coupled pairs of the lockstep kernel, (2, G, D)."""
    grid = np.asarray(grid, dtype=float)
    samples, _ = engine._rms_terms(
        grid, engine._grid_config(grid), net, pert.apply(net), x0, y0
    )
    total = 0.0
    for start in range(0, n, engine._CHUNK):
        index = np.arange(start, min(start + engine._CHUNK, n), dtype=np.uint64)
        rows, caps = samples(engine._mix_lanes(mix64(PAIR_SEED), [index]))
        assert not np.isfinite(caps).any()
        total = total + rows.sum(axis=0)
    return total / n


@pytest.mark.parametrize("name", ["bimol", "random-1", "random-2"])
def test_coupled_legs_law(name):
    net, x0, y0, pert, grid, n = _coupled_cases()[name]
    z = []
    legs = zip(_leg_means(net, x0, y0, pert, grid, n), (net, pert.apply(net)), (x0, y0))
    for mean_hat, leg_net, start in legs:
        mean, var, defect = _exact_means(leg_net, start, grid)
        assert defect < 1e-9
        z.append((mean_hat - mean) / np.sqrt(var / n))
    assert np.abs(z).max() <= Z_BOUND, z
