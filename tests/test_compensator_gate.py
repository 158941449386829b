"""The compensator law gate: N_r(t) − ∫₀ᵗ w_r(X_s) ds has mean 0 on every path sampler.

Channel r fires as a counting process N_r with intensity w_r(X_t), so
N_r(t) − ∫₀ᵗ w_r(X_s) ds is a martingale, stopped at a cap too (at
t ∧ τ, by optional stopping), with variance E ∫₀ᵗ w_r(X_s) ds.  For each
sampler (``simulate_direct``, ``simulate_rtc`` and both legs of
``simulate_coupled``) and each channel, the gate sums the count N_r and
the compensator Λ_r over n paths and scores z = Σ (N_r − Λ_r) / √Σ Λ_r.
Λ_r is recomputed from each path's states and event times at once with
the network's compiled rate evaluator, up to t_end or the path's cap time.

Sizes: each sampler runs about ``EVENTS`` events per case, as n paths at
the mean events per path of ``PILOT`` direct-method paths on seeds apart
from the gate's, and at most ``MOST_PATHS`` paths.  A channel whose
summed compensator is below ``LAMBDA_MIN`` is not scored: its count is
too small for the normal approximation.  A rate off by 2 % moves z by
about 0.02 √Σ Λ_r, about 5.7 on each channel that carries half of an
enzyme case's events.  An RTC stepper whose time steps are 2 % short
sets the fired channel's internal time to its clock point anyway, so
each channel's count runs ahead by 2 % of its share of the total rate
only; the one-channel ``decay`` case (about 1 600 events per path) takes
the whole 2 %, about 7.9 in z.  The sizes, the seeds and the bound were fixed
before the gate first ran; a failure is a fault in a sampler, never a
reason to re-seed or widen the gate.
"""

import functools

import numpy as np
import pytest

from jkl import model
from jkl.engine import PerturbationSpec, SimConfig, mix64
from jkl.engine import simulate_coupled, simulate_direct, simulate_rtc
from jkl.parser import parse_model
from jkl.presets import PRESETS
from test_golden import _random_order2

Z_BOUND = 5.0
EVENTS = 160_000  # per sampler (per leg) and case
MOST_PATHS = 100
PILOT = 10
LAMBDA_MIN = 100.0
SEED, PILOT_SEED, NETWORK_SEED = 2027, 2028, 20121102
SAMPLERS = ["direct", "rtc", "coupled"]


def _cases():
    """(net, x0, y0, perturbation, t_end, caps): the presets, a decay, then random networks."""
    cases = {}
    for name, preset in sorted(PRESETS.items()):
        names = [rxn.rate_name for rxn in preset.network.reactions if rxn.rate_name]
        x0 = list(preset.x0)
        cases[f"preset-{name}"] = (
            preset.network, x0, [x0[0] + 1, *x0[1:]],
            PerturbationSpec({names[0]: 0.3} if names else {}),
            0.1 if "enzyme" in name else 5.0, {"state_cap": 30} if name == "cubic" else {},
        )
    # one channel: it carries every share of an RTC clock error (see above)
    cases["decay"] = (
        parse_model("species A\nR: A -> 0 @ 1.0"), [2500], [2501], PerturbationSpec(), 1.0, {}
    )
    rng = np.random.default_rng(NETWORK_SEED)
    for i in range(20):
        text, x0 = _random_order2(rng)
        cases[f"random-{i}"] = (
            parse_model(text), x0, [x0[0] + 1, *x0[1:]], PerturbationSpec(), 2.0,
            {"state_cap": 200},
        )
    return cases


CASES = _cases()


def _config(case, seed):
    *_, t_end, caps = case
    return SimConfig(t_end=t_end, seed=seed, **{"max_events": 10**6, **caps})


@functools.lru_cache(maxsize=None)
def _paths(name):
    """The gate's path count for case ``name``: about ``EVENTS`` events, at most ``MOST_PATHS``."""
    net, x0 = CASES[name][:2]
    events = [
        simulate_direct(net, x0, _config(CASES[name], mix64(PILOT_SEED, i))).n_events
        for i in range(PILOT)
    ]
    return min(MOST_PATHS, max(1, round(EVENTS * PILOT / max(sum(events), 1))))


def _terms(net, traj):
    """(N_r, Λ_r) of one path: its counts and its compensators up to t ∧ τ."""
    times = np.append(traj.times, min(traj.t_end, traj.cap_time))
    w = np.empty((net.n_reactions, len(traj.states)))
    model._rates(net.reactions, net.n_species, False)(w, *traj.states.T.astype(float))
    counts = np.bincount(traj.channels, minlength=net.n_reactions)
    return counts, w @ np.diff(times)


def _z(terms):
    """Each gated channel's z of the summed counts against the summed compensators."""
    counts, lam = (np.sum(part, axis=0) for part in zip(*terms))
    gated = lam >= LAMBDA_MIN
    return (counts[gated] - lam[gated]) / np.sqrt(lam[gated])


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("name", list(CASES))
def test_compensated_counts_have_mean_zero(name, sampler):
    case = CASES[name]
    net, x0, y0, pert = case[:4]
    pert_net = pert.apply(net)
    legs = ([], [])
    statuses = set()
    for i in range(_paths(name)):
        cfg = _config(case, mix64(SEED, SAMPLERS.index(sampler), i))
        if sampler == "coupled":
            paths = zip((net, pert_net), simulate_coupled(net, x0, y0, pert, cfg))
        else:
            run = simulate_direct if sampler == "direct" else simulate_rtc
            paths = [(net, run(net, x0, cfg))]
        for leg, (leg_net, traj) in zip(legs, paths):
            leg.append(_terms(leg_net, traj))
            statuses.add(traj.status)
    z = np.concatenate([_z(leg) for leg in legs if leg])
    assert np.abs(z).max(initial=0.0) <= Z_BOUND, z
    if name == "preset-cubic":  # some paths stop at the cap: the martingale is stopped there
        assert statuses == {"state_cap", "t_end"}
