"""Golden outputs: fixed-seed digests and analyzer constants.

The determinism tests elsewhere compare two runs of the same code; these
compare against values recorded once, so a rewrite of a sampler, the
oracle or the analyzer that changes a stream, a draw order or a float
expression fails here even when it stays self-consistent.  Sizes are
small: the whole module runs in a few seconds.
"""

import hashlib

import numpy as np
import pytest

from jkl import analyzer, cme
from jkl.engine import (
    PerturbationSpec,
    SimConfig,
    batch_states,
    coupled_rms,
    ensemble_moments,
    simulate_coupled,
    simulate_direct,
    simulate_rtc,
)
from jkl.parser import parse_model
from jkl.presets import get_preset


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, str):
            h.update(p.encode())
        else:
            h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def _traj_digest(traj) -> str:
    parts = [traj.times, traj.states, traj.channels, traj.status]
    if traj.internal_times is not None:
        parts += [np.array(traj.internal_times), np.array(traj.channel_counts)]
    return _digest(*parts)


# every propensity kind at rates that are not dyadic fractions, so that a
# reassociated product such as k * (x_i * x_j) changes the bits
MIXED = """\
species A B
k3 = 0.013
R1: 0 -> A @ 0.7
R2: 0 -> B @ 0.3
R3: A + B -> 0 @ k3
R4: 2 A -> A @ 0.011
R5: A -> 0 @ 0.1
R6: A + 2 B -> 2 B @ 0.0007
"""


def _model(name: str):
    if name == "mixed":
        return parse_model(MIXED), [20, 20]
    preset = get_preset(name)
    return preset.network, list(preset.x0)


# model -> (t_end for single paths, perturbation for couplings)
CASES = {
    "bimol": (20.0, {"k2": 0.1}),
    "enzyme": (0.02, {"alphaE": -0.5}),
    "mixed": (5.0, {"k3": 0.1}),
}


def _sampler_outputs(name: str) -> dict[str, str]:
    net, x0 = _model(name)
    t_end, deltas = CASES[name]
    pert = PerturbationSpec(deltas)
    cfg = SimConfig(t_end=t_end, seed=20120217)
    grid = np.linspace(0.0, t_end, 5)
    legs = simulate_coupled(net, x0, x0, pert, cfg)
    states, cap_time = batch_states(net, x0, grid, 64, seed=7)
    return {
        "direct": _traj_digest(simulate_direct(net, x0, cfg)),
        "rtc": _traj_digest(simulate_rtc(net, x0, cfg)),
        "coupled": _digest(*(_traj_digest(leg) for leg in legs)),
        "ensemble": _digest(
            ensemble_moments(net, x0, grid, 2, 300, seed=3, workers=1).to_csv()
        ),
        "rms": _digest(
            coupled_rms(net, x0, x0, pert, grid, 260, seed=5, workers=1).to_csv(net.species)
        ),
        "batch": _digest(states, cap_time),
    }


# model -> (caps, grid) for the master-equation oracle
CME_CASES = {
    "bimol": (12, [0.5, 1.0, 2.0]),
    "enzyme": (24, [0.005, 0.01]),
    "mixed": (30, [0.5, 2.0]),
}


def _cme_outputs(name: str) -> str:
    net, x0 = _model(name)
    caps, grid = CME_CASES[name]
    idx = cme.enumerate_states(net, x0, caps)
    gen = cme.build_generator(net, idx)
    sol = cme.integrate_cme(gen, cme.point_mass(idx, x0), grid)
    parts = [idx.states, sol.probs, sol.defect]
    for g in range(len(grid)):
        m = cme.cme_moments(sol.probs[g], idx, 3, defect=float(sol.defect[g]))
        parts += [m.moments, m.upper, m.species_mean, m.species_var]
    return _digest(*parts)


# autocatalytic dimer birth: most paths cross the 1-norm cap of 30 mid-grid
CAPPED = """\
species A
k2 = 0.017
R1: 0 -> A @ 3.3
R2: 2 A -> 3 A @ k2
"""

# name -> (model, x0, y0, perturbation, grid, caps); every ensemble case
# stops some of its samples at a cap before the last grid time
CAPPED_CASES = {
    "state_cap": (CAPPED, [0], [0], {"k2": 0.1}, np.linspace(0.0, 8.0, 9),
                  {"state_cap": 30}),
    "max_events": (MIXED, [20, 20], [22, 19], {"k3": 0.1}, np.linspace(0.0, 15.0, 6),
                   {"max_events": 40}),
}


def _capped_outputs(name: str) -> dict[str, str]:
    text, x0, y0, deltas, grid, caps = CAPPED_CASES[name]
    net = parse_model(text)
    pert = PerturbationSpec(deltas)
    cfg = SimConfig(t_end=50.0, seed=20120217, **caps)
    paths = {
        "direct": simulate_direct(net, x0, cfg),
        "rtc": simulate_rtc(net, x0, cfg),
        "coupled": simulate_coupled(net, x0, y0, pert, cfg),
    }
    assert paths["direct"].status == paths["rtc"].status == name
    table = ensemble_moments(net, x0, grid, 2, 300, seed=3, workers=1, **caps)
    curve = coupled_rms(net, x0, y0, pert, grid, 260, seed=5, workers=1, **caps)
    assert 0 < table.n_valid[-1] < 300 and 0 < curve.n_valid[-1] < 260
    return {
        "direct": _traj_digest(paths["direct"]),
        "rtc": _traj_digest(paths["rtc"]),
        "coupled": _digest(*(_traj_digest(leg) for leg in paths["coupled"])),
        "ensemble": _digest(table.to_csv()),
        "rms": _digest(curve.to_csv(net.species)),
    }


SAMPLER_GOLDEN = {'bimol': {'batch': 'f57443843377b9ce5d96e4efa0c4db125f4c7c7009d8b6868bc3933d277b7498',
           'coupled': '8826672daa776b8deec1b8f36152c799d5655b4553d0075a011118afac130e2a',
           'direct': 'e7764c92c23df61b0821b5ab956370d55e792bcfcdbfe8169940b2737b3a187b',
           'ensemble': 'ff57649ae08899d2b5f10ed16f60a7a72323d3776bd3760ba0105cafa7c7a875',
           'rms': '3048360cbe09cdb4b7830e8e72835f43b47416d9ca5327869b515a4bd812c375',
           'rtc': 'fb4e28b00a88504f286a928090f784b1d5b694217b5f8e8441d4cddd2256e8c5'},
 'enzyme': {'batch': '1bc8c87e24e51ba298ef0d75f11fe76af108eb6fdb2c9e9e58720fa39d6219bc',
            'coupled': 'fb627f01bad18534d72a3b59182e54d8944aac112c365b2ff8e95e02b7ef64a6',
            'direct': 'aba0bf18b90f74fee4ef2893d25d7cea944f232d825d7930a0bb7b3ed01b8cb0',
            'ensemble': '9ac3d039c674200ce38f6811c168924bcd6dba5c532455d43b1f618336313cf4',
            'rms': 'a9a038c8d100e8d87d94744c8321d8eff2901b0138835ef985f684efa78d371b',
            'rtc': '7db1c7733a67e50ee5e70aab927b73d55ad5a6f0634a07a212e00644ad3fa548'},
 'mixed': {'batch': 'c5a46eabcb9fdc154178ab32cf95c79d60a9aaf92f3b8c377e637dec5277d6ec',
           'coupled': '1f6b8e9336cbed8ae9bcaaf8e70f42b2fe1caa9b19710eedf7eefd49a8229f08',
           'direct': 'f2746d5b35e0dfbcb62375cff539b144590b32e8cd769aa2848d21647ae063bb',
           'ensemble': 'c4ae516494794354e999d02b6c90492710e510735ee5b7d2c132ba3cda777193',
           'rms': '0db3acc5f8e67b26f89858ae8c2f497360bad174376ede3677e1b98e0d802557',
           'rtc': '9a7d0a43ab1dfb5c6a3e9842cfac367dbf17423704d348dbdb6e827d9e475f9b'}}

CME_GOLDEN = {'bimol': '86986a62a0303cae64ce4a39d693f97d1bbb5a049955e00177276f422321c642',
 'enzyme': '811d5a8403b949c2cfd981b106e32bf9fe0449b11e19f51b7796c337ead31b87',
 'mixed': 'c21ad0c98e99e21f1ceb32d2f598a2d84e02dbe96025bd5ddea147b7aff10c0e'}

# recorded by running the samplers as they were before the generated steppers
CAPPED_GOLDEN = {'max_events': {'coupled': 'a3b9f398d50a3ecd01caec6859a34f43938cbf9d777a587e24b84ea607f2c73a',
                'direct': 'b153408371bca8086df68411c8bff2f889f4b8eb60ef6059108985652da63f88',
                'ensemble': 'c8527df68e119bb713bc1c5c02d3f1996631522b56d564ecf6b70e445df0fe37',
                'rms': '9e5c13872326978698fb83e927a2a9bbb78281b9d06ca4bd49798e5c43ad6202',
                'rtc': '123cfb3ee3ecb820c84f99666ac716115eb892e5e7bff1687cf4bbea81daef28'},
 'state_cap': {'coupled': '3613afe6f7b8067aea2f4df286e15d63dfd21e5670623e4547560fe2b0d8a152',
               'direct': '13288c74af09d6b8b050101eb3e0a1965d4223f4f0aa3be23395fe606aca3ce9',
               'ensemble': '79e54f0cde2b0057d6e17955debf768b72e0be34ae8bd08a6e90cbdbe5b66b70',
               'rms': 'cb74ff6fc3e87692fbab891a8a2d47149f7e66b6dbf69e047777eb46cd42b4da',
               'rtc': '3955dfc117005d4f4dda8be18350846769ec357a803cc4677db7bdae678b88a5'}}

# models beyond the presets that take the weight-vector search: the first
# has a strictly positive annihilator of its quadratic column, the second
# (two independent quadratic columns) needs the inequality fallback
WEIGHTED = {
    "weighted-exact": "species A B\nR1: 0 -> A @ 1\nR2: 2 A -> 3 B @ 1\nR3: B -> 0 @ 1",
    "weighted-lp": (
        "species A B\nR1: 0 -> A @ 1\nR2: 2 A -> 3 B @ 1\nR3: B -> 0 @ 1\n"
        "R4: A + B -> 0 @ 2"
    ),
}

ANALYZE_GOLDEN = {'bimol': {'A': 2.0,
           'alpha': 0.0,
           'L': 0.0,
           'lambda': 0.5,
           'Gamma': 2.0,
           'gamma': 0.25,
           'M': 0.0,
           'mu': 0.10355339059327379,
           'l': [1.0, 1.0],
           'norm_1tN': 2.0,
           'norm_1tN_sq': 4.0,
           'norm_1tN2': 2.0,
           'M_special_sum': 0.0,
           'M_combined': 0.0,
           'per_reaction': [{'label': 'R1',
                             'kind': 'constant',
                             'M': 0.0,
                             'mu': 0.0,
                             'L': 0.0,
                             'lambda': 0.0,
                             'Gamma': 1.0,
                             'gamma': 0.0},
                            {'label': 'R2',
                             'kind': 'constant',
                             'M': 0.0,
                             'mu': 0.0,
                             'L': 0.0,
                             'lambda': 0.0,
                             'Gamma': 1.0,
                             'gamma': 0.0},
                            {'label': 'R3',
                             'kind': 'bilinear',
                             'M': 0.0,
                             'mu': 0.10355339059327379,
                             'L': 0.0,
                             'lambda': 0.5,
                             'Gamma': 0.0,
                             'gamma': 0.25}]},
 'enzyme': {'A': 10020.0,
            'alpha': -1.0,
            'L': 2.0,
            'lambda': 50.0,
            'Gamma': 10020.0,
            'gamma': 27.0,
            'M': -1.0,
            'mu': 25.0,
            'l': [1.0, 1.0],
            'norm_1tN': 1.0,
            'norm_1tN_sq': 1.0,
            'norm_1tN2': 1.0,
            'M_special_sum': 0.0,
            'M_combined': -1.0,
            'per_reaction': [{'label': 'R1',
                              'kind': 'constant',
                              'M': 0.0,
                              'mu': 0.0,
                              'L': 0.0,
                              'lambda': 0.0,
                              'Gamma': 10010.0,
                              'gamma': 0.0},
                             {'label': 'R2',
                              'kind': 'linear',
                              'M': 0.0,
                              'mu': 0.0,
                              'L': 1.0,
                              'lambda': 0.0,
                              'Gamma': 0.0,
                              'gamma': 1.0},
                             {'label': 'R3',
                              'kind': 'constant',
                              'M': 0.0,
                              'mu': 0.0,
                              'L': 0.0,
                              'lambda': 0.0,
                              'Gamma': 10.0,
                              'gamma': 0.0},
                             {'label': 'R4',
                              'kind': 'linear',
                              'M': 0.0,
                              'mu': 0.0,
                              'L': 1.0,
                              'lambda': 0.0,
                              'Gamma': 0.0,
                              'gamma': 1.0},
                             {'label': 'R5',
                              'kind': 'bilinear',
                              'M': 0.0,
                              'mu': 25.0,
                              'L': 0.0,
                              'lambda': 50.0,
                              'Gamma': 0.0,
                              'gamma': 25.0}]},
 'enzyme-linear': {'A': 10010.0,
                   'alpha': -1001.0,
                   'L': 1001.0,
                   'lambda': 0.0,
                   'Gamma': 10010.0,
                   'gamma': 1001.0,
                   'M': -1001.0,
                   'mu': 0.0,
                   'l': [1.0],
                   'norm_1tN': 1.0,
                   'norm_1tN_sq': 1.0,
                   'norm_1tN2': 1.0,
                   'M_special_sum': 0.0,
                   'M_combined': -1001.0,
                   'per_reaction': [{'label': 'R1',
                                     'kind': 'constant',
                                     'M': 0.0,
                                     'mu': 0.0,
                                     'L': 0.0,
                                     'lambda': 0.0,
                                     'Gamma': 10010.0,
                                     'gamma': 0.0},
                                    {'label': 'R2',
                                     'kind': 'linear',
                                     'M': 0.0,
                                     'mu': 0.0,
                                     'L': 1.0,
                                     'lambda': 0.0,
                                     'Gamma': 0.0,
                                     'gamma': 1.0},
                                    {'label': 'R3',
                                     'kind': 'linear',
                                     'M': 0.0,
                                     'mu': 0.0,
                                     'L': 1000.0,
                                     'lambda': 0.0,
                                     'Gamma': 0.0,
                                     'gamma': 1000.0}]},
 'extended-bimol': {'A': 2.0,
                    'alpha': -1.0,
                    'L': 2.0,
                    'lambda': 0.5,
                    'Gamma': 2.0,
                    'gamma': 2.25,
                    'M': -1.0,
                    'mu': 0.10355339059327379,
                    'l': [1.0, 1.0],
                    'norm_1tN': 2.0,
                    'norm_1tN_sq': 4.0,
                    'norm_1tN2': 2.0,
                    'M_special_sum': 0.0,
                    'M_combined': -1.0,
                    'per_reaction': [{'label': 'R1',
                                      'kind': 'constant',
                                      'M': 0.0,
                                      'mu': 0.0,
                                      'L': 0.0,
                                      'lambda': 0.0,
                                      'Gamma': 1.0,
                                      'gamma': 0.0},
                                     {'label': 'R2',
                                      'kind': 'constant',
                                      'M': 0.0,
                                      'mu': 0.0,
                                      'L': 0.0,
                                      'lambda': 0.0,
                                      'Gamma': 1.0,
                                      'gamma': 0.0},
                                     {'label': 'R3',
                                      'kind': 'linear',
                                      'M': 0.0,
                                      'mu': 0.0,
                                      'L': 1.0,
                                      'lambda': 0.0,
                                      'Gamma': 0.0,
                                      'gamma': 1.0},
                                     {'label': 'R4',
                                      'kind': 'linear',
                                      'M': 0.0,
                                      'mu': 0.0,
                                      'L': 1.0,
                                      'lambda': 0.0,
                                      'Gamma': 0.0,
                                      'gamma': 1.0},
                                     {'label': 'R5',
                                      'kind': 'bilinear',
                                      'M': 0.0,
                                      'mu': 0.10355339059327379,
                                      'L': 0.0,
                                      'lambda': 0.5,
                                      'Gamma': 0.0,
                                      'gamma': 0.25}]},
 'reversible': {'A': 0.0,
                'alpha': 1.0,
                'L': 1.0,
                'lambda': 0.5,
                'Gamma': 0.0,
                'gamma': 1.25,
                'M': 0.3660254037844386,
                'mu': 0.1830127018922193,
                'l': [1.0, 1.0, 1.0],
                'norm_1tN': 1.0,
                'norm_1tN_sq': 1.0,
                'norm_1tN2': 3.0,
                'M_special_sum': 0.3660254037844386,
                'M_combined': 0.36602540378443865,
                'per_reaction': [{'label': 'R1',
                                  'kind': 'bilinear',
                                  'M': 0.0,
                                  'mu': 0.1830127018922193,
                                  'L': 0.0,
                                  'lambda': 0.5,
                                  'Gamma': 0.0,
                                  'gamma': 0.25},
                                 {'label': 'R2',
                                  'kind': 'linear',
                                  'M': 0.3660254037844386,
                                  'mu': 0.0,
                                  'L': 1.0,
                                  'lambda': 0.0,
                                  'Gamma': 0.0,
                                  'gamma': 1.0}]},
 'reversible-open': {'A': 1.0,
                     'alpha': 0.0,
                     'L': 2.0,
                     'lambda': 0.5,
                     'Gamma': 1.0,
                     'gamma': 2.25,
                     'M': 0.22474487139158908,
                     'mu': 0.1830127018922193,
                     'l': [1.0, 1.0, 1.0],
                     'norm_1tN': 1.0,
                     'norm_1tN_sq': 1.0,
                     'norm_1tN2': 3.0,
                     'M_special_sum': 0.3660254037844386,
                     'M_combined': 0.22474487139158908,
                     'per_reaction': [{'label': 'R1',
                                       'kind': 'bilinear',
                                       'M': 0.0,
                                       'mu': 0.1830127018922193,
                                       'L': 0.0,
                                       'lambda': 0.5,
                                       'Gamma': 0.0,
                                       'gamma': 0.25},
                                      {'label': 'R2',
                                       'kind': 'linear',
                                       'M': 0.3660254037844386,
                                       'mu': 0.0,
                                       'L': 1.0,
                                       'lambda': 0.0,
                                       'Gamma': 0.0,
                                       'gamma': 1.0},
                                      {'label': 'R3',
                                       'kind': 'linear',
                                       'M': 0.0,
                                       'mu': 0.0,
                                       'L': 1.0,
                                       'lambda': 0.0,
                                       'Gamma': 0.0,
                                       'gamma': 1.0},
                                      {'label': 'R4',
                                       'kind': 'constant',
                                       'M': 0.0,
                                       'mu': 0.0,
                                       'L': 0.0,
                                       'lambda': 0.0,
                                       'Gamma': 1.0,
                                       'gamma': 0.0}]},
 'weighted-exact': {'A': 1.5,
                    'alpha': 0.0,
                    'L': 2.0,
                    'lambda': 1.0,
                    'Gamma': 1.0,
                    'gamma': 2.0,
                    'M': 2.621320343559643,
                    'mu': 0.8027756377319946,
                    'l': [1.5, 1.0],
                    'norm_1tN': 1.5,
                    'norm_1tN_sq': 2.25,
                    'norm_1tN2': 13.0,
                    'M_special_sum': 2.802775637731995,
                    'M_combined': 2.621320343559643,
                    'per_reaction': [{'label': 'R1',
                                      'kind': 'constant',
                                      'M': 0.0,
                                      'mu': 0.0,
                                      'L': 0.0,
                                      'lambda': 0.0,
                                      'Gamma': 1.0,
                                      'gamma': 0.0},
                                     {'label': 'R2',
                                      'kind': 'dimer',
                                      'M': np.float64(2.802775637731995),
                                      'mu': np.float64(0.8027756377319946),
                                      'L': 1.0,
                                      'lambda': 1.0,
                                      'Gamma': 0.0,
                                      'gamma': 1.0},
                                     {'label': 'R3',
                                      'kind': 'linear',
                                      'M': 0.0,
                                      'mu': 0.0,
                                      'L': 1.0,
                                      'lambda': 0.0,
                                      'Gamma': 0.0,
                                      'gamma': 1.0}]},
 'weighted-lp': {'A': 1.5,
                 'alpha': 0.0,
                 'L': 2.0,
                 'lambda': 2.0,
                 'Gamma': 1.0,
                 'gamma': 2.5,
                 'M': 2.621320343559643,
                 'mu': 1.0098824189185422,
                 'l': [1.5, 1.0],
                 'norm_1tN': 2.5,
                 'norm_1tN_sq': 6.25,
                 'norm_1tN2': 13.0,
                 'M_special_sum': 2.802775637731995,
                 'M_combined': 2.621320343559643,
                 'per_reaction': [{'label': 'R1',
                                   'kind': 'constant',
                                   'M': 0.0,
                                   'mu': 0.0,
                                   'L': 0.0,
                                   'lambda': 0.0,
                                   'Gamma': 1.0,
                                   'gamma': 0.0},
                                  {'label': 'R2',
                                   'kind': 'dimer',
                                   'M': np.float64(2.802775637731995),
                                   'mu': np.float64(0.8027756377319946),
                                   'L': 1.0,
                                   'lambda': 1.0,
                                   'Gamma': 0.0,
                                   'gamma': 1.0},
                                  {'label': 'R3',
                                   'kind': 'linear',
                                   'M': 0.0,
                                   'mu': 0.0,
                                   'L': 1.0,
                                   'lambda': 0.0,
                                   'Gamma': 0.0,
                                   'gamma': 1.0},
                                  {'label': 'R4',
                                   'kind': 'bilinear',
                                   'M': 0.0,
                                   'mu': 0.20710678118654757,
                                   'L': 0.0,
                                   'lambda': 1.0,
                                   'Gamma': 0.0,
                                   'gamma': 0.5}]}}


def _network(name):
    return parse_model(WEIGHTED[name]) if name in WEIGHTED else get_preset(name).network


@pytest.mark.parametrize("name", sorted(CASES))
def test_sampler_digests(name):
    assert _sampler_outputs(name) == SAMPLER_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CAPPED_CASES))
def test_capped_digests(name):
    assert _capped_outputs(name) == CAPPED_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CME_CASES))
def test_cme_digests(name):
    assert _cme_outputs(name) == CME_GOLDEN[name]


def _assert_close(got, want):
    if isinstance(want, dict):
        assert set(got) == set(want)
        for key in want:
            _assert_close(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_close(g, w)
    elif isinstance(want, str):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", sorted(ANALYZE_GOLDEN))
def test_analyze_constants(name):
    report = analyzer.analyze(_network(name))
    _assert_close(report.to_dict(), ANALYZE_GOLDEN[name])
