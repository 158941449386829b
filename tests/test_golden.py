"""Golden outputs: fixed-seed digests and analyzer constants.

The determinism tests elsewhere compare two runs of the same code; these
compare against values recorded once, so a rewrite of a sampler, the
oracle or the analyzer that changes a stream, a draw order or a float
expression fails here even when it stays self-consistent.  Sizes are
small: the whole module runs in a few seconds.
"""

import hashlib
import os
from collections import Counter

import numpy as np
import pytest

from jkl import analyzer, bounds, cme
from jkl.cli import main
from jkl.demos import run_demo
from jkl.engine import (
    PerturbationSpec,
    SimConfig,
    batch_states,
    coupled_rms,
    ensemble_moments,
    integrate_rre,
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

# CSV texts of the producers the sampler and capped digests do not cover
CLI_CSV_CASES = {
    "simulate-grid": ("simulate", "--preset", "bimol", "--t-end", "5", "--grid", "10",
                      "--seed", "3"),
    "couple-pair": ("couple", "--preset", "enzyme", "--t-end", "0.02", "--grid", "5",
                    "--samples", "1", "--seed", "2", "--perturb", "alphaE=-0.5"),
    "cme": ("cme", "--preset", "bimol", "--caps", "12", "--t-end", "1", "--grid", "4",
            "--p", "3"),
    # the bound is inf past its blow-up time, about 0.2
    "bounds-cubic": ("bounds", "--preset", "cubic", "--kind", "cubic", "--x0", "3",
                     "--t-end", "0.4", "--grid", "4"),
    # the second-moment envelope at its golden-section eps
    **{f"bounds-second-{name}": ("bounds", "--preset", name, "--kind", "second",
                                 "--t-end", "1", "--grid", "4")
       for name in ("bimol", "enzyme", "reversible")},
}

DEMO_CSV_CASES = {
    "enzyme-sensitivity": {"samples": 200, "seed": 3, "t_ode": 1.0, "t_stoch": 0.5,
                           "t_rms": 0.02},
    "cubic-blowup": {"samples": 100, "seed": 2, "moment_samples": 2000},
    "bimol-walk": {"samples": 200, "seed": 4},
    "reversible-oracle": {"samples": 300, "seed": 5},
}


def _engine_csv_outputs() -> dict[str, str]:
    net, x0 = _model("mixed")
    grid = np.linspace(0.0, 2.0, 5)
    pert = PerturbationSpec({"k3": 0.1})
    return {
        "ode": _digest(integrate_rre(net, x0, grid).to_csv(net.species)),
        "rms-no-species": _digest(
            coupled_rms(net, x0, [22, 19], pert, grid, 40, seed=5, workers=1).to_csv()
        ),
    }


def _cli_csv_output(name: str, out_dir) -> str:
    path = os.path.join(out_dir, "out.csv")
    assert main([*CLI_CSV_CASES[name], "--out", path]) == 0
    with open(path, encoding="utf-8") as fh:
        return _digest(fh.read())


def _demo_csv_outputs(name: str, out_dir) -> dict[str, str]:
    run_demo(name, out_dir=out_dir, **DEMO_CSV_CASES[name])
    out = {}
    for file in sorted(os.listdir(out_dir)):
        if file.endswith(".csv"):
            with open(os.path.join(out_dir, file), encoding="utf-8") as fh:
                out[file] = _digest(fh.read())
    return out


# recorded by running the CSV writers as they were before the one CSV writer;
# the bounds-second digests by running second_moment_curve before the scalar
# envelope of its eps search
ENGINE_CSV_GOLDEN = {'ode': '5b3860416ceefa328b981635f45e9b382962ed0c94f6e4ad02db442216174a0d',
 'rms-no-species': 'e9cf5fa26870117ab96210f6a92096a195baa56d05bc638b15438d68de3cd41d'}

CLI_CSV_GOLDEN = {'bounds-cubic': '8163777000c1bc640ed2ee953044c1c05bddc33fe34fade9692ff217906ce4ca',
 'bounds-second-bimol': 'b2cdb9808cba336957163509201b1bf4fdc042d11c6e5849d449cb319f2c1ac1',
 'bounds-second-enzyme': '6e5e23b4d81a9c4937a747fce0d02850eb7891b7fd65a4ecb9499eb360490809',
 'bounds-second-reversible': '2e0063d445e0112ad52e4079b27def948eaa8f39a25faab4bbf933cc3128e313',
 'cme': '6c9b7486635503ec5d05955c65c4f77b9b79420b52fc6abf0b2b4b0eec1f16ef',
 'couple-pair': 'dc71f340c419e71ff70b00bf531b5ad195b46497b5498af944801cccea9c2bee',
 'simulate-grid': 'e0b60dbbf33ab7b51f6670ef9431b120717d9ddc4b44ef6d6a40eb0732393b62'}

DEMO_CSV_GOLDEN = {'bimol-walk': {'difference_histogram.csv': '31f945831222d3ed4357a15f816714c269dec68e85e042b3b52cc44d1c4ff10d',
                'sample_path.csv': '66b61cf3461b8f38a47514677ad361c34ecf78ca82a9cc82f159222688a5c970'},
 'cubic-blowup': {'third_moment.csv': 'a37294d9723c255e15a3015c72bb75dfd3b62c3436fffc62e7b6f4470256a224'},
 'enzyme-sensitivity': {'ode_response.csv': '9a6bddd90580804f81e8c79387bc886383246775037f3a05df8dfa5fd36a2075',
                        'rms_difference.csv': '0b27036a20b6ae8a8d08ed0ad0e8bbd3832e1d32e7d14074ed1072cabc2f444d',
                        'stochastic_response.csv': '0d2e44832f630fe3200ee0dce6847e69c52d9b8c719d81e6396ce01c4fa53ce4'},
 'reversible-oracle': {'oracle_bimol.csv': 'c3cf271e00cd2cb5f183b94eb19fb091fa6d4f63ad3b89a2f52e5c0d12a2a6f6',
                       'oracle_reversible.csv': 'bf226847a6afd18579ee7a409ce171734f91493b6c9e84fd21b7c032ac35e657'}}

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


# seeded order <= 2 networks for the bound digest: every propensity kind,
# rates that are not dyadic fractions, and a share of networks that take
# each branch of the weight-vector search or are rejected
BOUND_NETWORKS = 300
BOUND_GRIDS = (np.array([0.0, 1.0, 800.0]), np.linspace(0.0, 1.0, 5))


def _random_order2(rng: np.random.Generator) -> tuple[str, list[int]]:
    dim = int(rng.integers(2, 6))
    names = [f"S{i}" for i in range(dim)]

    def side(n: int) -> str:
        counts = Counter(rng.choice(names, size=n).tolist())
        return " + ".join(f"{c} {s}" if c > 1 else s for s, c in sorted(counts.items())) or "0"

    lines = ["species " + " ".join(names)]
    for r in range(int(rng.integers(1, 7))):
        lhs = side(int(rng.choice(3, p=[0.2, 0.3, 0.5])))
        rhs = side(int(rng.integers(0, 4)))
        rate = round(float(10 ** rng.uniform(-1.0, 1.0)), 4)
        lines.append(f"R{r + 1}: {lhs} -> {rhs} @ {rate}")
    return "\n".join(lines) + "\n", rng.integers(0, 11, size=dim).tolist()


def _bound_outputs() -> str:
    """sha256 of (l, A, alpha, eps, values) of the second-moment curve.

    Over the seeded networks, at x0 norm 0, the l-weighted norm of the
    network's x0 and 1e3, on both grids; a rejected network contributes
    the name of its rejection.
    """
    rng = np.random.default_rng(20120217)
    parts = []
    for _ in range(BOUND_NETWORKS):
        text, x0 = _random_order2(rng)
        try:
            report = analyzer.analyze(parse_model(text))
        except analyzer.AnalyzerError as exc:
            parts.append(type(exc).__name__)
            continue
        parts.append(np.array([*report.l, report.A, report.alpha]))
        for x0_norm in (0.0, float(np.dot(report.l, x0)), 1e3):
            for grid in BOUND_GRIDS:
                curve = bounds.second_moment_curve(report, x0_norm, grid)
                parts += [np.array([curve.inputs["eps"]]), curve.values]
    return _digest(*parts)


# recorded by running second_moment_curve as it was before the scalar envelope
# of the eps search and the sign test of the weight-vector search
BOUNDS_GOLDEN = '7c4ca33f4df3c3982711f2bec14931369abc10d00f96ee6cd5aa564f10ebf796'


def _network(name):
    return parse_model(WEIGHTED[name]) if name in WEIGHTED else get_preset(name).network


def _analyze_outputs(name: str, out_dir) -> dict[str, str]:
    """Digests of the ``jkl analyze`` output, ``--json`` and text.

    ``ANALYZE_GOLDEN`` compares the same constants at rel 1e-12; these pin
    every byte, key names and order included.
    """
    source = ["--preset", name]
    if name in WEIGHTED:
        source = ["--model", os.path.join(out_dir, "model.rxn")]
        with open(source[1], "w", encoding="utf-8") as fh:
            fh.write(WEIGHTED[name])
    path = os.path.join(out_dir, "out.txt")
    out = {}
    for fmt, flags in (("json", ["--json"]), ("text", [])):
        assert main(["analyze", *source, *flags, "--out", path]) == 0
        with open(path, encoding="utf-8") as fh:
            out[fmt] = _digest(fh.read())
    return out


# recorded by running `jkl analyze` as it was before to_dict derived its keys
# from the report's fields
ANALYZE_OUTPUT_GOLDEN = {'bimol': {'json': '45b7bf419c25dc28edeb8247dde888220b8ee98211d346177863f1fcf6a21fb3',
           'text': '472703e2751fb70bd0c14d513f456a55ebc6be378acb4e8769666afa26d2180d'},
 'enzyme': {'json': 'bb3e2acbfed8802f3eff299a12772152425d185a908c859cff2c5e02338e718b',
            'text': '4ee5c549ad682a5410455f2bb074ff30a56197b10cd63f4516d8aa393ae609ac'},
 'enzyme-linear': {'json': '372f480ab708a2c13881993e6635b7ef906cb017d374b6fd4c2a691e91488f53',
                   'text': '61f566fb971f9b23fb273909c683209d026cdc9da81e99536842f1ad888f6370'},
 'extended-bimol': {'json': 'e2f707c2f72c5df44e20edacf76330b576dcd4c9e9416ccbe84faa88c0795b0e',
                    'text': '96152375c1f9ff0fb92b927e6db2882157455503368520c6e7ef5e64ab18a1ad'},
 'reversible': {'json': '947abb30d5fea014476636b4fb77dc834dba925085c22abadd4bc0bbfd77db6e',
                'text': '73433d0c6b9a911ad339d4fc451e5241c06f74fa08334eab49ad91de9adf3960'},
 'reversible-open': {'json': 'fd01decd4ac0292a4358e5fb880f865689544ec09594e377236e41395513ff55',
                     'text': '2f3d0000630d52948abf9c06fb88052b9a4e4e7b47754825822d4d770bf7cb5f'},
 'weighted-exact': {'json': '84038dc36e52237ddccf63f20f9f6277a5325b5a71f4d64d4fd28b4cd45ad65f',
                    'text': 'cb98c5617d1694c8f3843f6eeda573627e9b15e319fa2cf0f0123bbc10f89005'},
 'weighted-lp': {'json': '649f6183bc08e0ccc59595cb1d5586b673431d5f02a968a28ab468483c9845b4',
                 'text': '402e1b859f1b4656315b0747f6a55cda2c950c7896f9a760aa82d1a6d4a559ed'}}


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


def test_bound_digest():
    assert _bound_outputs() == BOUNDS_GOLDEN


@pytest.mark.parametrize("name", sorted(ANALYZE_GOLDEN))
def test_analyze_constants(name):
    report = analyzer.analyze(_network(name))
    _assert_close(report.to_dict(), ANALYZE_GOLDEN[name])


@pytest.mark.parametrize("name", sorted(ANALYZE_GOLDEN))
def test_analyze_output_digests(name, tmp_path):
    assert _analyze_outputs(name, str(tmp_path)) == ANALYZE_OUTPUT_GOLDEN[name]


def test_engine_csv_digests():
    assert _engine_csv_outputs() == ENGINE_CSV_GOLDEN


@pytest.mark.parametrize("name", sorted(CLI_CSV_CASES))
def test_cli_csv_digests(name, tmp_path):
    assert _cli_csv_output(name, str(tmp_path)) == CLI_CSV_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(DEMO_CSV_CASES))
def test_demo_csv_digests(name, tmp_path):
    assert _demo_csv_outputs(name, str(tmp_path)) == DEMO_CSV_GOLDEN[name]
