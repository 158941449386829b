"""Moment envelopes against the master-equation oracle (fixed seeds, sizes and slack).

On seeded random order-2 networks that ``analyze`` accepts, the first-,
second- and third-moment envelopes at ``l . x0`` must be at least the
oracle's retained moment ``sum_x p_t(x) (l . x)^p``.  The retained moment
is a lower value of ``E (l . X_t)^p`` whatever the caps, so any excess
beyond float rounding is a violated bound, never a truncation artefact.
The seed, the network count, the sizes and the relative slack were fixed
before the gate was first run; a failure is a fault in an envelope or in
the constants it is built from, never a reason to re-seed or widen.  On
networks that cannot leave x0 the envelope equals the retained moment,
so the slack is a few ulps, not zero.
"""

import functools

import numpy as np

from jkl import analyzer, bounds, cme
from jkl.parser import parse_model
from test_golden import _random_order2

SEED = 20121002
NETWORKS = 100
X0_MAX = 4  # per species
STATE_BUDGET = 2500  # per-species caps with (cap + 1)^D about this
GRID = (0.05, 0.2, 0.5)
SLACK = 1e-12  # relative


@functools.cache
def _accepted_cases():
    """The first NETWORKS seeded networks that analyze accepts, with x0 and caps."""
    rng = np.random.default_rng(SEED)
    cases = []
    while len(cases) < NETWORKS:
        text, x0 = _random_order2(rng)
        net = parse_model(text)
        try:
            report = analyzer.analyze(net)
        except analyzer.AnalyzerError:
            continue
        x0 = [min(v, X0_MAX) for v in x0]
        cap = max(X0_MAX, int(STATE_BUDGET ** (1.0 / net.n_species)) - 1)
        cases.append((net, report, x0, cap))
    return cases


def _violations():
    """(case, p, time, envelope, retained) of every envelope below its retained moment."""
    out = []
    for i, (net, report, x0, cap) in enumerate(_accepted_cases()):
        idx = cme.enumerate_states(net, x0, cap)
        sol = cme.integrate_cme(cme.build_generator(net, idx), cme.point_mass(idx, x0), GRID)
        weighted = idx.states @ np.array(report.l)
        x0_norm = float(np.dot(report.l, x0))
        curves = {
            1: bounds.first_moment_curve(report, x0_norm, GRID),
            2: bounds.second_moment_curve(report, x0_norm, GRID),
            3: bounds.pth_moment_curve(report, x0_norm, 3, GRID),
        }
        for p, curve in curves.items():
            for t, env, probs in zip(GRID, curve.values.tolist(), sol.probs):
                retained = float(probs @ weighted**p)
                if not retained <= env + SLACK * abs(env):  # a NaN envelope fails too
                    out.append((i, p, t, env, retained))
    return out


def test_envelopes_dominate_the_retained_moments():
    assert _violations() == []


def test_case_sizes():
    # x0 small, every box within the budget's reach (5 species: caps 4, 3125
    # states), and every dimension _random_order2 draws is present
    cases = _accepted_cases()
    for net, _, x0, cap in cases:
        assert max(x0) <= X0_MAX and (cap + 1) ** net.n_species <= 1.25 * STATE_BUDGET
    assert {net.n_species for net, *_ in cases} == {2, 3, 4, 5}
