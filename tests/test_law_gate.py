"""Sampled law against the master-equation oracle (fixed seeds, fixed z bound).

``ensemble_moments`` and ``batch_states`` are compared with the truncated
master equation's species means and variances on three presets, at caps
where the oracle's defect is below 1e-9.  Each mean is scored with the
exact standard deviation, each variance with the exact standard error of
a sample variance, ``sqrt((mu_4 - sigma^4) / n)``.  The sample sizes, the
seeds and the bound were fixed before the gate was first run; a failure
is a fault in a sampler, never a reason to re-seed or widen the gate.
The batch size is large enough that a clock 2 % off fails the gate.
"""

import numpy as np
import pytest

from jkl import cme
from jkl.engine import batch_states, ensemble_moments
from jkl.presets import get_preset

Z_BOUND = 5.0
ENSEMBLE_N, ENSEMBLE_SEED = 4000, 2024
BATCH_N, BATCH_SEED = 200_000, 2025

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
