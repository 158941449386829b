"""The benchmark's four workloads: inputs from a seed, one timed pass, checks.

Every workload calls the public functions of ``jkl.engine``, ``jkl.cme``,
``jkl.parser``, ``jkl.analyzer`` and ``jkl.bounds`` the way the demos and
the CLI call them, and wraps each call in a tracer span.  Nothing in the
package is patched.  A workload provides:

* ``make_inputs(seed, probe)``: everything the pass needs, derived from the
  seed alone; ``probe=True`` gives the small default-seed instance whose
  outputs are compared with ``reference.json`` on every run;
* ``run_pass(inp, tracer, workers)``: the timed body, returning outputs;
* ``fingerprint(inp, out)``: digests and values recorded at the reference
  commit (sha256 of sampler bytes, numbers for the deterministic layers);
* ``check(inp, out)``: seed-independent law checks, returning
  ``(problems, known_failed_ops)``;
* ``counts(inp, out)``: per-layer work counters derived from the outputs;
* ``replay(inp, tracer)`` (samplers only): the ensembles' paths and pairs
  run serially through ``simulate_direct``/``simulate_coupled`` on their
  documented ``mix64(seed, i)`` streams, to count events.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from jkl import analyzer as an
from jkl import bounds as bnd
from jkl import cme
from jkl import engine as eng
from jkl.parser import ModelError, parse_model
from jkl.presets import get_preset

DEFAULT_SEED = 1
Z_LAW = 6.0  # standard errors allowed before a law check fails
LOG_MAX = math.log(sys.float_info.max)  # exp(z) overflows for z above this


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode() if isinstance(p, str) else bytes(p))
    return h.hexdigest()


def _nan_free(name: str, *arrays) -> list[str]:
    return [f"{name}: NaN in output"] if any(np.isnan(a).any() for a in arrays) else []


def _envelope_problems(name, report, x0, grid, est, se) -> list[str]:
    """est[:, p-1] +- se must sit under the p-th moment envelope, p = 1, 2."""
    x0_norm = float(np.dot(report.l, x0))  # |x|_1 <= l.x because min(l) = 1
    out = []
    for p, curve in ((1, bnd.first_moment_curve), (2, bnd.second_moment_curve)):
        env = curve(report, x0_norm, grid).values
        over = est[:, p - 1] - Z_LAW * se[:, p - 1] > env * (1 + 1e-12)
        if over.any():
            g = int(np.argmax(over))
            out.append(
                f"{name}: sampled moment {p} at t={grid[g]} is {est[g, p - 1]!r} "
                f"(se {se[g, p - 1]!r}) above its envelope {env[g]!r}"
            )
    return out


def _norm_moments(states: np.ndarray):
    """Mean and standard error of |X|_1 and |X|_1^2 per grid point of a batch."""
    norms = states.sum(axis=2)
    powers = np.stack([norms, norms**2], axis=2)
    n = states.shape[1]
    return powers.mean(axis=1), powers.std(axis=1, ddof=1) / math.sqrt(n)


# ---------------------------------------------------------------------------
# samplers: enzyme-long and short-paths


@dataclass(frozen=True)
class SamplerInputs:
    ens: tuple  # (net, x0, grid, p_max, n, seed)
    rms: tuple  # (net, x0, y0, pert, grid, n, seed)
    batches: tuple  # ((net, x0, grid, n, seed, state_cap, report), ...)
    species: tuple
    report: object  # analyzer report of the ensemble network


def _sampler_pass(inp: SamplerInputs, tr, workers: int) -> dict:
    net, x0, grid, p_max, n, seed = inp.ens
    with tr.span("engine.ensemble_moments"):
        table = eng.ensemble_moments(net, x0, grid, p_max, n, seed, workers=workers)
    rnet, rx0, ry0, pert, rgrid, rn, rseed = inp.rms
    with tr.span("engine.coupled_rms"):
        rms = eng.coupled_rms(rnet, rx0, ry0, pert, rgrid, rn, rseed, workers=workers)
    batches = []
    for bnet, bx0, bgrid, bn, bseed, cap, _ in inp.batches:
        with tr.span("engine.batch_states"):
            batches.append(eng.batch_states(bnet, bx0, bgrid, bn, bseed, state_cap=cap))
    return {"ensemble": table, "rms": rms, "batches": batches}


def _sampler_fingerprint(inp: SamplerInputs, out: dict) -> dict:
    fp = {
        "ensemble_moments": _sha(out["ensemble"].to_csv()),
        "coupled_rms": _sha(out["rms"].to_csv(species=inp.species)),
    }
    for b, (states, cap_time) in enumerate(out["batches"]):
        fp[f"batch_states.{b}"] = _sha(states.tobytes(), cap_time.tobytes())
    return fp


def _sampler_check(inp: SamplerInputs, out: dict):
    table, rms = out["ensemble"], out["rms"]
    probs = _nan_free("ensemble_moments", table.moments, table.stderr, table.species_mean)
    probs += _nan_free("coupled_rms", rms.rms, rms.stderr, rms.species_rms)
    _, x0, grid = inp.ens[:3]
    probs += _envelope_problems(
        "ensemble_moments", inp.report, x0, grid, table.moments, table.stderr
    )
    rx0, ry0 = inp.rms[1], inp.rms[2]
    if tuple(rx0) == tuple(ry0) and rms.rms[0] != 0.0:
        probs.append("coupled_rms: legs with equal initial data differ at t=0")
    if (rms.n_valid > rms.n).any() or (table.n_valid > table.n).any():
        probs.append("ensembles count more valid samples than they ran")
    for b, ((bnet, bx0, bgrid, bn, _, _, report), (states, cap_time)) in enumerate(
        zip(inp.batches, out["batches"])
    ):
        name = f"batch_states.{b}"
        probs += _nan_free(name, states)
        if states.shape != (len(bgrid), bn, bnet.n_species) or cap_time.shape != (bn,):
            probs.append(f"{name}: wrong output shape")
            continue
        if (states < 0).any():
            probs.append(f"{name}: negative population")
        if report is not None:
            est, se = _norm_moments(states)
            probs += _envelope_problems(name, report, bx0, bgrid, est, se)
        else:  # the cubic network: no envelope, but a blow-up lower bound
            xs = states[:, :, 0]
            c3 = xs * (xs - 1) * (xs - 2)
            emp = c3.mean(axis=1)
            se = c3.std(axis=1, ddof=1) / math.sqrt(bn)
            low = bnd.cubic_blowup_lowerbound(int(bx0[0]), bgrid).values
            if (emp + Z_LAW * se < low).any():
                probs.append(f"{name}: third falling moment below its lower bound")
    return probs, 0


def _sampler_counts(inp: SamplerInputs, out: dict) -> dict:
    grid_points = sum(len(b[2]) * b[3] for b in inp.batches)
    return {
        "engine.batch_states.traj_grid": grid_points,
        "engine.batch_states.computed_bytes": sum(
            len(b[2]) * b[3] * b[0].n_species * 8 for b in inp.batches
        ),
        "engine.batch_states.capped": sum(
            int(np.isfinite(cap).sum()) for _, cap in out["batches"]
        ),
    }


def _sampler_replay(inp: SamplerInputs, tr) -> dict:
    """Serial replay of every ensemble path and coupled pair (event counts)."""
    net, x0, grid, _, n, seed = inp.ens
    t_end = float(grid[-1])
    events = 0
    with tr.span("bench.replay"):
        for i in range(n):
            cfg = eng.SimConfig(t_end=t_end, seed=eng.mix64(seed, i))
            with tr.span("engine.simulate_direct"):
                traj = eng.simulate_direct(net, x0, cfg)
            events += traj.n_events
        rnet, rx0, ry0, pert, rgrid, rn, rseed = inp.rms
        r_end = float(rgrid[-1])
        pair_events = 0
        for i in range(rn):
            cfg = eng.SimConfig(t_end=r_end, seed=eng.mix64(rseed, i))
            with tr.span("engine.simulate_coupled"):
                leg_x, leg_y = eng.simulate_coupled(rnet, rx0, ry0, pert, cfg)
            pair_events += leg_x.n_events + leg_y.n_events
    return {
        "engine.simulate_direct.calls": n,
        "engine.simulate_direct.events": events,
        "engine.simulate_coupled.calls": rn,
        "engine.simulate_coupled.events": pair_events,
    }


def _enzyme_inputs(seed: int, probe: bool = False) -> SamplerInputs:
    preset = get_preset("enzyme")
    net, x0 = preset.network, preset.x0
    pert = eng.PerturbationSpec({"alphaE": -0.5})
    pert_net = pert.apply(net)
    # two chunks of 256 per ensemble, so both workers get a share
    if probe:
        n_ens, t_ens, n_rms, t_rms, n_b, t_b = 260, 0.02, 260, 0.01, 64, 0.05
    else:
        n_ens, t_ens, n_rms, t_rms, n_b, t_b = 512, 0.05, 512, 0.0125, 1000, 0.05
    bgrid = np.linspace(0.0, t_b, 11)[1:]
    report = an.analyze(net)
    return SamplerInputs(
        ens=(net, x0, np.linspace(0.0, t_ens, 11), 2, n_ens, eng.mix64(seed, 1)),
        rms=(net, x0, x0, pert, np.linspace(0.0, t_rms, 26), n_rms, eng.mix64(seed, 2)),
        batches=(
            (net, x0, bgrid, n_b, eng.mix64(seed, 3), 1e9, report),
            (pert_net, x0, bgrid, n_b, eng.mix64(seed, 4), 1e9, an.analyze(pert_net)),
        ),
        species=tuple(net.species),
        report=report,
    )


def _short_inputs(seed: int, probe: bool = False) -> SamplerInputs:
    bimol = get_preset("bimol")
    net, x0 = bimol.network, bimol.x0
    cubic = get_preset("cubic").network
    m_x0 = 10
    t_star = 0.5 / (3.0 * m_x0 * (m_x0 - 1) * (m_x0 - 2))
    if probe:
        n_ens, n_rms, n_b = 300, 300, 1000
    else:
        n_ens, n_rms, n_b = 2**13, 2**13, 5 * 10**5
    return SamplerInputs(
        ens=(net, x0, np.linspace(0.0, 10.0, 11), 2, n_ens, eng.mix64(seed, 1)),
        rms=(
            net, x0, x0, eng.PerturbationSpec({"k2": 0.1}),
            np.linspace(0.0, 0.05, 6), n_rms, eng.mix64(seed, 2),
        ),
        batches=(
            (cubic, [m_x0], np.linspace(0.0, t_star, 6)[1:], n_b, eng.mix64(seed, 3), 1e6, None),
        ),
        species=tuple(net.species),
        report=an.analyze(net),
    )


# ---------------------------------------------------------------------------
# cme-bimol: the truncated master-equation oracle


@dataclass(frozen=True)
class CmeInputs:
    net: object
    x0: tuple
    caps: int
    grid: np.ndarray


def _cme_inputs(seed: int, probe: bool = False) -> CmeInputs:
    # `jkl cme --preset bimol --t-end 0.2 --grid 11 --caps 120`: 14641 states,
    # a quarter of the time at the default caps of 200, with integration
    # still the largest stage; the oracle is deterministic, so the seed
    # selects nothing
    preset = get_preset("bimol")
    return CmeInputs(preset.network, preset.x0, 20 if probe else 120, np.linspace(0.0, 0.2, 11))


def _cme_pass(inp: CmeInputs, tr, workers: int) -> dict:
    with tr.span("cme.enumerate_states"):
        idx = cme.enumerate_states(inp.net, inp.x0, inp.caps)
    with tr.span("cme.build_generator"):
        gen = cme.build_generator(inp.net, idx)
    p0 = cme.point_mass(idx, inp.x0)
    with tr.span("cme.integrate_cme"):
        sol = cme.integrate_cme(gen, p0, inp.grid)
    moments = []
    for g in range(len(inp.grid)):
        with tr.span("cme.cme_moments"):
            moments.append(cme.cme_moments(sol.probs[g], idx, 2, defect=float(sol.defect[g])))
    return {"idx": idx, "gen": gen, "sol": sol, "moments": moments}


def _cme_envelopes(inp: CmeInputs):
    report = an.analyze(inp.net)
    x0_norm = float(np.dot(report.l, inp.x0))
    first = bnd.first_moment_curve(report, x0_norm, inp.grid).values
    second = bnd.second_moment_curve(report, x0_norm, inp.grid).values
    return report, first, second


def _cme_fingerprint(inp: CmeInputs, out: dict) -> dict:
    report, first, second = _cme_envelopes(inp)
    mom = out["moments"]
    return {
        "n_states": [out["idx"].n_states],
        "nnz": [out["gen"].q.nnz],
        "retained_moments": [m.moments.tolist() for m in mom],
        "species_mean": [m.species_mean.tolist() for m in mom],
        "species_var": [m.species_var.tolist() for m in mom],
        "defect": out["sol"].defect.tolist(),
        "constants": [report.A, report.alpha, report.L, report.lam,
                      report.Gamma, report.gamma, report.M, report.mu],
        "envelopes": [first.tolist(), second.tolist()],
    }


def _cme_check(inp: CmeInputs, out: dict):
    sol, mom = out["sol"], out["moments"]
    probs = _nan_free("integrate_cme", sol.probs, sol.defect)
    probs += _nan_free("cme_moments", *[m.moments for m in mom])
    mass = sol.total_mass()
    if np.abs(mass - 1.0).max() > 1e-9:
        probs.append(f"integrate_cme: retained + defect = {mass.tolist()} != 1")
    # the retained moments are lower values of E|X|^p; CmeMoments.upper is
    # not an upper bound and is never used as a reference
    _, first, second = _cme_envelopes(inp)
    retained = np.array([m.moments for m in mom])
    for p, env in ((1, first), (2, second)):
        if (retained[:, p - 1] > env * (1 + 1e-12) + 1e-12).any():
            probs.append(f"cme: retained moment {p} exceeds its envelope")
    return probs, 0


def _cme_counts(inp: CmeInputs, out: dict) -> dict:
    nnz = out["gen"].q.nnz
    lam_t = out["gen"].lam * float(inp.grid[-1])
    return {
        "cme.enumerate_states.states": out["idx"].n_states,
        "cme.build_generator.nnz": nnz,
        "cme.integrate_cme.lam_t": lam_t,
        "cme.integrate_cme.computed_flops": 2.0 * nnz * lam_t,
        "cme.integrate_cme.defect": float(out["sol"].defect[-1]),
    }


# ---------------------------------------------------------------------------
# analyze-screen: parser, analyzer and bounds on random networks

SCREEN_GRID = np.array([0.0, 1.0, 800.0])
SCREEN_NETWORKS = 500
SCREEN_PROBE = 100
_SCREEN_TAG = 0x5C2EE4
# outcome classes: accepted with l = ones / after the weight-vector search,
# or a documented rejection
_REJECTIONS = (
    (ModelError, "M"),
    (an.WeightVectorNotFound, "W"),
    (an.QuadraticObstruction, "Q"),
    (an.CubicUnsupported, "C"),
    (an.InvalidNetworkError, "I"),
)


@dataclass(frozen=True)
class ScreenInputs:
    texts: tuple  # model text per network
    x0s: tuple  # initial state per network
    order: tuple  # the order in which a pass visits the networks


def _random_network(rng: random.Random) -> tuple[str, list[int]]:
    """Order <= 2 mass-action network with 2-10 species and 2-20 reactions."""
    dim = rng.randint(2, 10)
    names = [f"S{i}" for i in range(dim)]
    lines = ["species " + " ".join(names)]
    for r in range(rng.randint(2, 20)):
        order = rng.randint(0, 2)
        if order == 2 and rng.random() < 0.25:
            lhs = "2 " + rng.choice(names)
        else:
            lhs = " + ".join(rng.sample(names, order)) or "0"
        rhs = " + ".join(rng.choice(names) for _ in range(rng.randint(0, 3))) or "0"
        rate = round(10 ** rng.uniform(-1.0, 1.0), 4)
        lines.append(f"R{r + 1}: {lhs} -> {rhs} @ {rate}")
    return "\n".join(lines) + "\n", [rng.randint(0, 10) for _ in range(dim)]


def _screen_inputs(seed: int, probe: bool = False) -> ScreenInputs:
    # The networks are always those of the default-seed screen, so every run
    # meets the known NaN-bound defect on the same networks and counts the
    # same failed operations; the seed only shuffles the order of the visits.
    # The probe is the head of that screen, visited in screen order.
    rng = random.Random(eng.mix64(DEFAULT_SEED, _SCREEN_TAG))
    nets = [_random_network(rng) for _ in range(SCREEN_PROBE if probe else SCREEN_NETWORKS)]
    order = list(range(len(nets)))
    if not probe:
        random.Random(eng.mix64(seed, _SCREEN_TAG)).shuffle(order)
    return ScreenInputs(tuple(t for t, _ in nets), tuple(x for _, x in nets), tuple(order))


def _screen_one(text: str, x0, tr):
    try:
        with tr.span("parser.parse_model"):
            net = parse_model(text)
        with tr.span("analyzer.analyze"):
            report = an.analyze(net, weight="auto")
    except tuple(e for e, _ in _REJECTIONS) as exc:
        return next(c for e, c in _REJECTIONS if isinstance(exc, e)), None, None
    x0_norm = float(np.dot(report.l, x0))
    with tr.span("bounds.first_moment_curve"):
        first = bnd.first_moment_curve(report, x0_norm, SCREEN_GRID)
    with tr.span("bounds.second_moment_curve"):
        second = bnd.second_moment_curve(report, x0_norm, SCREEN_GRID)
    with tr.span("bounds.pth_moment_curve"):
        third = bnd.pth_moment_curve(report, x0_norm, 3, SCREEN_GRID)
    searched = any(v != 1.0 for v in report.l)
    return ("w" if searched else "o"), report, (first, second, third)


def _screen_pass(inp: ScreenInputs, tr, workers: int) -> dict:
    results = [None] * len(inp.texts)
    for i in inp.order:
        with tr.span("screen.network"):
            try:
                results[i] = _screen_one(inp.texts[i], inp.x0s[i], tr)
            except Exception as exc:  # an undocumented failure is a failed operation
                results[i] = ("E", repr(exc), None)
    return {"results": results}


def _curve_beta(curve) -> float:
    inputs = curve.inputs
    return max(inputs["alpha"] if "alpha" in inputs else inputs["beta"], 0.0)


def _screen_nan_kinds(curves):
    """(known, unknown) NaN counts in the curves of one network.

    A NaN where beta * t overflows exp() is the known defect: the envelope
    is +inf there and the curve returns 0 * inf.  Any other NaN is a
    defect the benchmark does not expect.
    """
    known = unknown = 0
    for c in curves:
        nan = np.isnan(c.values)
        overflow = _curve_beta(c) * c.times > LOG_MAX
        known += int((nan & overflow).sum())
        unknown += int((nan & ~overflow).sum())
    return known, unknown


def _screen_fingerprint(inp: ScreenInputs, out: dict) -> dict:
    values = []
    for cls, report, curves in out["results"]:
        if curves is None:
            values.append([])
            continue
        row = [report.A, report.alpha, report.L, report.lam,
               report.Gamma, report.gamma, report.M, report.mu]
        for c in curves:
            row += c.values.tolist()
        values.append(row)
    return {"classes": "".join(r[0] for r in out["results"]), "values": values}


def _screen_check(inp: ScreenInputs, out: dict):
    probs, known = [], 0
    for i, (cls, report, curves) in enumerate(out["results"]):
        if cls == "E":
            probs.append(f"network {i}: undocumented failure {report}")
            continue
        if curves is None:
            continue
        x0_norm = float(np.dot(report.l, inp.x0s[i]))
        k, u = _screen_nan_kinds(curves)
        known += k > 0
        if u:
            probs.append(f"network {i}: NaN in a bound curve where no exponent overflows")
        for p, c in enumerate(curves, start=1):
            v = c.values
            if not math.isclose(v[0], x0_norm**p, rel_tol=1e-12):
                probs.append(f"network {i}: moment-{p} envelope at t=0 is not |x0|^{p}")
            finite = v[np.isfinite(v)]
            if (np.diff(finite) < 0).any():
                probs.append(f"network {i}: moment-{p} envelope decreases in time")
    return probs, known


def _screen_counts(inp: ScreenInputs, out: dict) -> dict:
    classes = [r[0] for r in out["results"]]
    nan_values = sum(
        int(np.isnan(c.values).sum()) for r in out["results"] if r[2] for c in r[2]
    )
    return {
        "parser.parse_model.bytes": sum(len(t.encode()) for t in inp.texts),
        "analyzer.analyze.weight_search": sum(c in "wWQ" for c in classes),
        "analyzer.analyze.rejected": sum(c in "WQCI" for c in classes),
        "bounds.nan_values": nan_values,
    }


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable
    run_pass: Callable
    fingerprint: Callable
    check: Callable
    counts: Callable
    ops_per_pass: Callable  # inputs -> distinct operations a pass attempts
    replay: Callable | None = None
    seeded: bool = True  # False: the outputs do not depend on the seed
    pooled: bool = False  # True: the pass spreads its work over a pool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "enzyme-long",
            "per-event sampler cost dominates: enzyme ensemble, coupled pairs and "
            "batch paths of ~10^3 events each; oracle and analyzer do no work",
            _enzyme_inputs, _sampler_pass, _sampler_fingerprint, _sampler_check,
            _sampler_counts, lambda inp: 2 + len(inp.batches), _sampler_replay,
            pooled=True,
        ),
        Workload(
            "short-paths",
            "same sampler calls, but per-call setup, pool fork and pickling and "
            "per-element array work dominate: bimol paths of ~30 events, cubic "
            "batch of 5x10^5",
            _short_inputs, _sampler_pass, _sampler_fingerprint, _sampler_check,
            _sampler_counts, lambda inp: 2 + len(inp.batches), _sampler_replay,
            pooled=True,
        ),
        Workload(
            "cme-bimol",
            "the master-equation oracle alone: enumerate, build, integrate and "
            "moments for bimol at caps 120 (14641 states); bypasses every sampler",
            _cme_inputs, _cme_pass, _cme_fingerprint, _cme_check, _cme_counts,
            lambda inp: 3 + len(inp.grid), seeded=False,
        ),
        Workload(
            "analyze-screen",
            "the only workload where parser, analyzer and bounds do measurable "
            "work: 500 fixed random order-2 networks per pass in seeded order, "
            "over half through the weight-vector search",
            _screen_inputs, _screen_pass, _screen_fingerprint, _screen_check,
            _screen_counts, lambda inp: len(inp.texts), seeded=False,
        ),
    )
}
