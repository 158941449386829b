"""The random-time-change bookkeeping, checked on each path with no sampling.

A random-time-change path fires channel r at the points of a unit-rate
Poisson process N_r (its channel stream's increments ``-log(1 - u)``,
summed in order) read at the internal time s_r = ∫₀ᵗ w_r(X_u) du.  So on
every path of ``simulate_rtc`` and on both legs of ``simulate_coupled``:

* ``internal_times[r]`` equals the integral of w_r along the path up to
  its last event, recomputed here from its states and event times with
  the network's compiled rate evaluator, within ``REL_BOUND`` relative;
* channel r fired exactly as often as its stream has points at or below
  ``internal_times[r]``.

These are identities of the sampler, not statistics: a clock that runs
at the wrong rate breaks the first on almost every path.
"""

import itertools
import random

import numpy as np
import pytest

from jkl import engine, lockstep, model
from jkl.engine import PerturbationSpec, SimConfig, mix64, simulate_coupled, simulate_rtc
from jkl.parser import parse_model
from jkl.presets import PRESETS
from test_golden import _random_order2

# an internal time is a running sum of a few thousand positive terms, and
# the recomputed integral rounds each event time once more
REL_BOUND = 1e-12
SEEDS = range(20)


def _cases():
    """(net, x0, y0, perturbation, t_end, caps, stops): the presets, then random networks.

    ``stops`` is the set of statuses the case's paths end with.
    """
    cases = {}
    for name, preset in sorted(PRESETS.items()):
        names = [rxn.rate_name for rxn in preset.network.reactions if rxn.rate_name]
        x0 = list(preset.x0)
        cases[f"preset-{name}"] = (
            preset.network, x0, [x0[0] + 1, *x0[1:]],
            PerturbationSpec({names[0]: 0.3} if names else {}),
            0.02 if "enzyme" in name else 5.0,
            *(({"state_cap": 30}, {"state_cap", "t_end"}) if name == "cubic" else ({}, {"t_end"})),
        )
    # the event cap stops about half of these paths
    cases["enzyme-event-cap"] = (
        *cases["preset-enzyme"][:5], {"max_events": 400}, {"max_events", "t_end"}
    )
    rng = np.random.default_rng(20121101)
    for i in range(6):
        text, x0 = _random_order2(rng)
        cases[f"random-{i}"] = (
            parse_model(text), x0, [x0[0] + 1, *x0[1:]], PerturbationSpec(), 2.0,
            {"state_cap": 200}, {"t_end"},
        )
    return cases


CASES = _cases()


def _check_path(net, traj, seed):
    """Both identities on a path whose channel r read stream ``mix64(seed, _CHANNEL_TAG, r)``."""
    n_r = net.n_reactions
    # the integral up to the last event: the rates in each state times its holding time
    w = np.empty((n_r, len(traj.times)))
    model._rates(net.reactions, net.n_species, False)(w, *traj.states.T.astype(float))
    want = (w[:, :-1] * np.diff(traj.times)).sum(axis=1)
    got = np.array(traj.internal_times)
    assert (np.abs(got - want) <= REL_BOUND * want).all(), (got, want)

    counts = traj.channel_counts
    for r in range(n_r):
        # the stream's points, summed as the stepper sums them, up to the first past s_r
        stream = random.Random(mix64(seed, engine._CHANNEL_TAG, r))
        clock = lockstep._increments(itertools.repeat(stream.random))
        point, below = next(clock), 0
        while point <= traj.internal_times[r]:
            below += 1
            point += next(clock)
        assert below == counts[r], (r, below, counts[r])


@pytest.mark.parametrize("case", list(CASES.values()), ids=list(CASES))
def test_internal_times_and_counts_follow_the_path(case):
    net, x0, y0, pert, t_end, caps, stops = case
    pert_net = pert.apply(net)
    statuses = set()
    for seed in SEEDS:
        cfg = SimConfig(t_end=t_end, seed=seed, **{"max_events": 5000, **caps})
        x_leg, y_leg = simulate_coupled(net, x0, y0, pert, cfg)
        for leg_net, traj in ((net, simulate_rtc(net, x0, cfg)), (net, x_leg), (pert_net, y_leg)):
            _check_path(leg_net, traj, seed)
            statuses.add(traj.status)
    assert statuses == stops

