"""Named end-to-end experiments behind the figure-level results.

Each demo runs a full pipeline with documented defaults, writes the
underlying data as CSV files plus a ``summary.json``, and returns the
summary dict.  All randomness flows from the single ``seed`` argument
through the engine's mixing chain, so reruns are byte-identical.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import bounds as bnd
from . import cme
from . import engine as eng
from .presets import get_preset

__all__ = [
    "demo_enzyme_sensitivity",
    "demo_cubic_blowup",
    "demo_bimol_walk",
    "demo_reversible_oracle",
    "run_demo",
    "DEMO_NAMES",
]


def _write(out_dir: str | None, name: str, text: str) -> None:
    if out_dir is None:
        return
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def _prepare(out_dir: str | None, **counts: int) -> None:
    """Reject bad arguments before any work is done.

    Every standard error needs at least two samples, and ``out_dir``
    must be a directory or creatable as one.
    """
    for name, n in counts.items():
        if n < 2:
            raise ValueError(f"{name} must be >= 2, got {n}")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)


def _finish_summary(out_dir: str | None, summary: dict) -> dict:
    _write(out_dir, "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def demo_enzyme_sensitivity(
    out_dir: str | None = None,
    samples: int = 10**4,
    seed: int = 1,
    t_ode: float = 10.0,
    t_stoch: float = 5.0,
    t_rms: float = 0.1,
    workers: int | None = None,
) -> dict:
    """Deterministic vs. stochastic response to halving the enzyme inflow.

    Perturbation: alphaE -> alphaE/2, so the stationary enzyme level
    halves.  Three readouts:

    * rate-equation response of the full model and of its
      one-dimensional linearization (both settle at twice the complex
      level; the linear model reacts ~500x faster);
    * stochastic mean complex level for the nominal and perturbed
      ensembles; its plateau response is far larger than the rate
      equations predict.  The mean response develops on the enzyme
      relaxation timescale (~1 time unit), so the read-off averages the
      plateau window [0.8 t_stoch, t_stoch] with ``t_stoch`` = 5.  Both
      response ratios are measured against the nominal complex level
      (the common pre-perturbation steady state, like the rate-equation
      ratio); the ratio against the unperturbed stochastic mean is
      reported alongside;
    * RMS difference of coupled pairs, which saturates within ~0.05
      time units, on the short window ``t_rms``.
    """
    _prepare(out_dir, samples=samples)
    preset = get_preset("enzyme")
    net = preset.network
    x0 = preset.x0
    pert = eng.PerturbationSpec({"alphaE": -0.5})
    pert_net = pert.apply(net)

    # rate equations: the nominal model sits at its fixed point (10, 10)
    ode_grid = np.linspace(0.0, t_ode, 401)
    sol_nl = eng.integrate_rre(pert_net, x0, ode_grid)
    lin = get_preset("enzyme-linear")
    lin_pert = eng.PerturbationSpec({"kE": -0.5}).apply(lin.network)
    sol_lin = eng.integrate_rre(lin_pert, lin.x0, ode_grid)
    c_base = float(x0[0])
    ode_ratio = float(sol_nl.states[-1, 0] / c_base)
    rows = zip(ode_grid.tolist(), sol_nl.states[:, 0].tolist(), sol_lin.states[:, 0].tolist())
    _write(out_dir, "ode_response.csv", eng._csv(["time", "C_nonlinear", "C_linear"], rows))

    # stochastic mean response (lockstep batch sampler, one stream each)
    sgrid = np.linspace(0.0, t_stoch, 21)[1:]
    (s_un, _), (s_pe, _) = eng._pool_map(
        eng.batch_states,
        [
            (net, x0, sgrid, samples, eng.mix64(seed, 1)),
            (pert_net, x0, sgrid, samples, eng.mix64(seed, 2)),
        ],
        eng.worker_count(workers),
    )
    cu = s_un[:, :, 0]
    cp = s_pe[:, :, 0]
    mean_u, mean_p = cu.mean(axis=1), cp.mean(axis=1)
    se_u = cu.std(axis=1, ddof=1) / np.sqrt(samples)
    se_p = cp.std(axis=1, ddof=1) / np.sqrt(samples)
    header = ["time", "mean_C", "stderr", "mean_C_perturbed", "stderr_perturbed",
              "ratio_vs_nominal"]
    cols = (sgrid, mean_u, se_u, mean_p, se_p, mean_p / c_base)
    _write(out_dir, "stochastic_response.csv", eng._csv(header, zip(*(c.tolist() for c in cols))))

    # read the plateau as a window average (the perturbed mean has a heavy
    # tail from low-enzyme excursions, so single points are noisy); the
    # response ratio is taken against the nominal complex level, the same
    # baseline the rate-equation ratio uses
    window = sgrid >= 0.8 * t_stoch
    plateau_p = float(mean_p[window].mean())
    plateau_u = float(mean_u[window].mean())
    # conservative: window points are positively correlated
    plateau_se = float(se_p[window].mean())
    stoch_ratio = plateau_p / c_base

    # coupled RMS difference of the complex level (common channel clocks)
    rgrid = np.linspace(0.0, t_rms, 26)
    rms = eng.coupled_rms(net, x0, x0, pert, rgrid, samples, eng.mix64(seed, 3), workers=workers)
    _write(out_dir, "rms_difference.csv", rms.to_csv(species=net.species))
    c_rms = rms.species_rms[:, 0]
    third = max(1, len(rgrid) // 3)
    summary = {
        "n": samples,
        "seed": seed,
        "ode_read_time": t_ode,
        "ode_response_ratio": ode_ratio,
        "stoch_read_time": t_stoch,
        "stoch_response_ratio": stoch_ratio,
        "stoch_response_stderr": plateau_se / c_base,
        "stoch_ratio_vs_unperturbed": plateau_p / plateau_u,
        "nominal_C": c_base,
        "mean_C": plateau_u,
        "mean_C_perturbed": plateau_p,
        "rms_read_time": t_rms,
        "rms_initial": float(c_rms[1]),
        "rms_early_mean": float(c_rms[1 : 1 + third].mean()),
        "rms_late_mean": float(c_rms[-third:].mean()),
        "rms_final": float(c_rms[-1]),
        "rms_max": float(c_rms.max()),
    }
    return _finish_summary(out_dir, summary)


def demo_cubic_blowup(
    out_dir: str | None = None,
    samples: int = 10**4,
    seed: int = 1,
    t_end: float = 1.0,
    moment_samples: int = 10**6,
    moment_x0: int = 10,
) -> dict:
    """The zero-drift cubic pair: absorption odds and moment blow-up.

    From X0 = 3 the first firing is the decay with probability
    3 / (3 + 6) = 1/3, after which the state is stuck at 1.  Returns to
    state 3 keep the long-run absorbed-at-1 fraction higher (a zero-drift
    step analysis gives 1/2), so both numbers are reported.  The second
    part estimates the third falling moment from X0 = 10 at half the
    lower-bound blow-up scale and compares against the bound curve.
    """
    _prepare(out_dir, samples=samples, moment_samples=moment_samples)
    preset = get_preset("cubic")
    net = preset.network

    decay_first = 0
    absorbed_at_1 = 0
    unresolved = 0
    for i in range(samples):
        cfg = eng.SimConfig(
            t_end=t_end, seed=eng.mix64(seed, 10, i), max_events=10**5, state_cap=10**6
        )
        traj = eng.simulate_direct(net, [3], cfg)
        if traj.n_events and traj.channels[0] == 0:
            decay_first += 1
        if traj.status == "t_end" and traj.final_state[0] == 1:
            absorbed_at_1 += 1
        if traj.status != "t_end":
            unresolved += 1

    frac = decay_first / samples
    se = float(np.sqrt(frac * (1 - frac) / samples))

    # third falling moment at t* = half of 1/(3 m0): well inside validity
    m0 = moment_x0 * (moment_x0 - 1) * (moment_x0 - 2)
    t_star = 0.5 / (3.0 * m0)
    mgrid = np.linspace(0.0, t_star, 6)[1:]
    states, _ = eng.batch_states(
        net, [moment_x0], mgrid, moment_samples, eng.mix64(seed, 20), state_cap=10**6
    )
    xs = states[:, :, 0]
    c3 = xs * (xs - 1) * (xs - 2)
    emp = c3.mean(axis=1)
    emp_se = c3.std(axis=1, ddof=1) / np.sqrt(moment_samples)
    curve = bnd.cubic_blowup_lowerbound(moment_x0, mgrid)
    header = ["time", "empirical_third_moment", "stderr", "lower_bound"]
    rows = zip(mgrid.tolist(), emp.tolist(), emp_se.tolist(), curve.values.tolist())
    _write(out_dir, "third_moment.csv", eng._csv(header, rows))

    summary = {
        "n": samples,
        "seed": seed,
        "decay_first_fraction": frac,
        "decay_first_stderr": se,
        "absorbed_at_1_fraction_at_t_end": absorbed_at_1 / samples,
        "unresolved_fraction": unresolved / samples,
        "t_end": t_end,
        "moment_x0": moment_x0,
        "moment_samples": moment_samples,
        "moment_read_time": t_star,
        "third_moment_empirical": float(emp[-1]),
        "third_moment_stderr": float(emp_se[-1]),
        "third_moment_lower_bound": float(curve.values[-1]),
        "blowup_time_lower_bound": float(curve.inputs["t_blowup"]),
    }
    return _finish_summary(out_dir, summary)


def demo_bimol_walk(
    out_dir: str | None = None,
    samples: int = 10**4,
    seed: int = 1,
    t_end: float = 10.0,
) -> dict:
    """The species difference A - B is a two-sided constant-rate walk.

    Its law at time t is the difference of two Poisson(k1 t) counts:
    mean 0 and variance 2 k1 t, independent of the pair decay.
    """
    _prepare(out_dir, samples=samples)
    preset = get_preset("bimol")
    net = preset.network
    diffs = np.empty(samples)
    for i in range(samples):
        cfg = eng.SimConfig(t_end=t_end, seed=eng.mix64(seed, i))
        traj = eng.simulate_direct(net, preset.x0, cfg)
        if i == 0:
            _write(out_dir, "sample_path.csv", traj.to_csv(net.species))
        a, b = traj.final_state
        diffs[i] = float(a - b)
    var = float(diffs.var(ddof=1))
    mean = float(diffs.mean())
    se_mean = float(diffs.std(ddof=1) / np.sqrt(samples))

    vals, counts = np.unique(diffs.astype(int), return_counts=True)
    rows = zip(vals.tolist(), counts.tolist())
    _write(out_dir, "difference_histogram.csv", eng._csv(["difference", "count"], rows))

    summary = {
        "n": samples,
        "seed": seed,
        "t_end": t_end,
        "difference_mean": mean,
        "difference_mean_stderr": se_mean,
        "difference_variance": var,
        "expected_variance": 2.0 * net.parameters["k1"] * t_end,
    }
    return _finish_summary(out_dir, summary)


def _oracle_case(net, x0, caps, times, samples, seed):
    """SSA means/variances vs truncated master-equation moments."""
    grid = np.asarray(times, dtype=float)
    states, cap_time = eng.batch_states(net, x0, grid, samples, eng.mix64(seed, 7))
    idx = cme.enumerate_states(net, x0, caps)
    gen = cme.build_generator(net, idx)
    sol = cme.integrate_cme(gen, cme.point_mass(idx, x0), grid)

    rows = []
    max_z = 0.0
    for g, t in enumerate(grid):
        ok = grid[g] < cap_time
        sample = states[g, ok]
        n_ok = int(ok.sum())
        mom = cme.cme_moments(sol.probs[g], idx, 2, defect=float(sol.defect[g]))
        for s in range(net.n_species):
            xs = sample[:, s]
            m_emp = float(xs.mean())
            se_m = float(xs.std(ddof=1) / np.sqrt(n_ok))
            v_emp = float(xs.var(ddof=1))
            # stderr of the sample variance from the fourth central moment
            m4 = float(((xs - m_emp) ** 4).mean())
            se_v = float(np.sqrt(max(m4 - v_emp**2, 0.0) / n_ok))
            z_m = (m_emp - float(mom.species_mean[s])) / se_m if se_m > 0 else 0.0
            z_v = (v_emp - float(mom.species_var[s])) / se_v if se_v > 0 else 0.0
            if abs(float(mom.species_var[s])) < 1e-12 and abs(v_emp) < 1e-12:
                z_v = 0.0
            max_z = max(max_z, abs(z_m), abs(z_v))
            rows.append(
                (float(t), s, m_emp, se_m, float(mom.species_mean[s]), v_emp, se_v,
                 float(mom.species_var[s]), z_m, z_v, float(sol.defect[g]))
            )
    return rows, max_z, idx.n_states


def demo_reversible_oracle(
    out_dir: str | None = None,
    samples: int = 10**4,
    seed: int = 1,
    times: tuple[float, ...] = (0.5, 1.0, 2.0),
) -> dict:
    """Cross-validate the simulator against the truncated master equation.

    Closed reversible network (exact finite state slice) and the
    birth-death pair model truncated at 60 copies per species: all
    moment z-scores between the ensemble and the oracle stay small.
    """
    _prepare(out_dir, samples=samples)
    rev = get_preset("reversible")
    rows_rev, z_rev, n_rev = _oracle_case(rev.network, rev.x0, 10, times, samples, eng.mix64(seed, 1))
    bim = get_preset("bimol")
    rows_bim, z_bim, n_bim = _oracle_case(bim.network, bim.x0, 60, times, samples, eng.mix64(seed, 2))

    header = ["time", "species", "ssa_mean", "ssa_mean_se", "cme_mean", "ssa_var",
              "ssa_var_se", "cme_var", "z_mean", "z_var", "defect"]
    for name, rows in (("reversible", rows_rev), ("bimol", rows_bim)):
        _write(out_dir, f"oracle_{name}.csv", eng._csv(header, rows))

    summary = {
        "n": samples,
        "seed": seed,
        "times": list(times),
        "max_z_reversible": z_rev,
        "max_z_bimol": z_bim,
        "max_z": max(z_rev, z_bim),
        "states_reversible": n_rev,
        "states_bimol": n_bim,
    }
    return _finish_summary(out_dir, summary)


DEMO_NAMES = {
    "enzyme-sensitivity": demo_enzyme_sensitivity,
    "cubic-blowup": demo_cubic_blowup,
    "bimol-walk": demo_bimol_walk,
    "reversible-oracle": demo_reversible_oracle,
}


def run_demo(name: str, out_dir: str | None = None, **kwargs) -> dict:
    try:
        fn = DEMO_NAMES[name]
    except KeyError:
        known = ", ".join(sorted(DEMO_NAMES))
        raise KeyError(f"unknown demo {name!r} (available: {known})") from None
    return fn(out_dir=out_dir, **kwargs)
