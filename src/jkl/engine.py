"""Exact stochastic simulation of the jump process.

Two exact samplers are provided: the direct method (total-intensity
exponential waiting times, channel picked by cumulative-sum inversion of
a uniform mark) and a random-time-change sampler that runs one unit-rate
Poisson clock per channel and fires the channel whose integrated
intensity first reaches its next clock point.  Both sample the same law;
the clock-based sampler is what the common-random-number coupling builds
on: a nominal and a perturbed trajectory driven by the *same* per-channel
clock streams differ only through the perturbation.

Randomness is pinned down explicitly so that results are reproducible
and schedule-independent:

* every stream is a ``random.Random`` (CPython Mersenne Twister) seeded
  through the splitmix64 mixing chain :func:`mix64`;
* trajectory ``i`` of an ensemble uses ``mix64(seed, i)``; channel ``r``
  of a coupled pair uses ``mix64(seed, pair, r)`` for both legs;
* exponentials are inverse-CDF samples ``-log(1 - u)``;
* both ensemble estimators go through one reducer, :func:`_reduce`,
  which combines fixed-size chunk sums in index order, so serial and
  parallel runs produce identical bytes.

The lockstep batch sampler (:func:`batch_states`) trades per-trajectory
streams for one master-seeded vector stream; it is exact and
deterministic but its per-trajectory paths depend on the batch size.

Every public sampler runs :func:`~jkl.model.validate_network` once per
call and raises ``ValueError`` listing the diagnostics; ensemble chunks
then call the per-trajectory cores, which skip the check.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Sequence

import numpy as np
import scipy.integrate

from .model import ReactionNetwork, propensity_eval, validate_network

__all__ = [
    "SimulationError",
    "SimConfig",
    "Trajectory",
    "PerturbationSpec",
    "MomentTable",
    "RmsCurve",
    "OdeSolution",
    "mix64",
    "simulate_direct",
    "simulate_rtc",
    "simulate_coupled",
    "ensemble_moments",
    "coupled_rms",
    "batch_states",
    "integrate_rre",
    "worker_count",
]

_MASK64 = (1 << 64) - 1


def mix64(*parts: int) -> int:
    """Fold integers into one 64-bit seed via the splitmix64 finalizer.

    This mixing chain is a documented, frozen part of the reproducibility
    contract: ``z_0 = 0x9E3779B97F4A7C15``; for each part ``p``,
    ``z -> splitmix64_finalizer(z + p)``.
    """
    z = 0x9E3779B97F4A7C15
    for p in parts:
        z = (z + (p & _MASK64)) & _MASK64
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & _MASK64
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
    return z


class SimulationError(RuntimeError):
    """Hard numerical failure (non-finite propensity, integrator failure)."""


def worker_count(requested: int | None = None) -> int:
    """Resolve the worker count: argument, else JKL_THREADS, else all cores."""
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get("JKL_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


@dataclass(frozen=True)
class SimConfig:
    """Caps and sampling controls for a single run.

    ``state_cap`` bounds the population 1-norm (the localization device:
    the run stops the first time it is exceeded); ``max_events`` bounds
    the number of jumps.  Hitting either is recorded in the trajectory
    status, never silent.
    """

    t_end: float
    seed: int = 0
    max_events: int = 10**8
    state_cap: float = 1e9

    def __post_init__(self):
        if not 0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        if self.max_events <= 0 or not self.state_cap > 0:
            raise ValueError("caps must be positive")


@dataclass(frozen=True)
class Trajectory:
    """A piecewise-constant sample path.

    ``times[0] == 0`` with the initial state; event ``i`` happens at
    ``times[i+1]`` firing channel ``channels[i]``.  ``status`` is one of
    ``"t_end"``, ``"max_events"``, ``"state_cap"``.
    """

    times: np.ndarray  # (E+1,)
    states: np.ndarray  # (E+1, D) int64
    channels: np.ndarray  # (E,) int64
    status: str
    t_end: float
    internal_times: tuple[float, ...] | None = None  # per-channel integrated intensity
    channel_counts: tuple[int, ...] | None = None

    @property
    def n_events(self) -> int:
        return len(self.channels)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def cap_time(self) -> float:
        """Time after which the path is unknown (inf if it ran to t_end)."""
        return math.inf if self.status == "t_end" else float(self.times[-1])

    def sample(self, grid: Sequence[float]) -> np.ndarray:
        """States at the given times (right-continuous piecewise constant)."""
        grid = np.asarray(grid, dtype=float)
        idx = np.searchsorted(self.times, grid, side="right") - 1
        if (idx < 0).any():
            raise ValueError("grid extends before the initial time")
        return self.states[idx]

    def to_csv(self, species: Sequence[str], grid: Sequence[float] | None = None) -> str:
        header = "time," + ",".join(species)
        if grid is None:
            times, states = self.times, self.states
        else:
            times, states = np.asarray(grid, dtype=float), self.sample(grid)
        lines = [header]
        for t, row in zip(times, states):
            lines.append(repr(float(t)) + "," + ",".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PerturbationSpec:
    """Relative perturbation of named rate constants: k -> k (1 + delta).

    ``delta_total`` is the smallest constant with
    ``|w(x) - w_pert(x)|_1 <= delta |w(x)|_1`` (the largest ``|delta_r|``)
    and ``delta_drift`` the analogue for the drift,
    ``max_r |nu_r| |delta_r|``.
    """

    deltas: dict[str, float] = field(default_factory=dict)

    def reaction_deltas(self, net: ReactionNetwork) -> dict[int, float]:
        out: dict[int, float] = {}
        for name, delta in self.deltas.items():
            hits = net.reactions_for_parameter(name)
            if not hits:
                raise KeyError(f"no reaction rate is bound to parameter {name!r}")
            if not math.isfinite(delta):
                raise ValueError(f"perturbation {name}={delta} is not finite")
            if 1.0 + delta < 0:
                raise ValueError(f"perturbation {name}={delta} makes the rate negative")
            for j in hits:
                out[j] = delta
        return out

    def apply(self, net: ReactionNetwork) -> ReactionNetwork:
        rd = self.reaction_deltas(net)
        return net.with_scaled_rates({j: 1.0 + d for j, d in rd.items()})

    def totals(self, net: ReactionNetwork) -> tuple[float, float]:
        rd = self.reaction_deltas(net)
        if not rd:
            return 0.0, 0.0
        delta = max(abs(d) for d in rd.values())
        delta_f = max(
            abs(d) * float(np.linalg.norm(net.reactions[j].nu)) for j, d in rd.items()
        )
        return delta, delta_f


# ---------------------------------------------------------------------------
# compiled propensity kernels


def _compile(net: ReactionNetwork):
    """Per-reaction scalar evaluators plus sparse state updates."""
    evaluators = [rxn.propensity.evaluate for rxn in net.reactions]
    updates = [
        tuple((s, d) for s, d in enumerate(rxn.nu) if d) for rxn in net.reactions
    ]
    return evaluators, updates


def _eval_into(evaluators, x, w) -> float:
    """Evaluate all propensities at x into list w; returns the total."""
    total = 0.0
    for idx, evaluate in enumerate(evaluators):
        v = evaluate(x)
        w[idx] = v
        total += v
    return total


def _check_network(net: ReactionNetwork) -> None:
    """Reject a network that fails validation before simulating or enumerating it."""
    issues = validate_network(net)
    if issues:
        msgs = "; ".join(str(d) for d in issues)
        raise ValueError(f"network fails validation: {msgs}")


def _check_state(x0: Sequence[int], net: ReactionNetwork) -> list[int]:
    x = [int(v) for v in x0]
    if len(x) != net.n_species:
        raise ValueError(f"state has dimension {len(x)}, expected {net.n_species}")
    if any(v < 0 for v in x):
        raise ValueError("initial state must be non-negative")
    return x


def _finish(times, states, channels, status, t_end, internal=None, counts=None):
    return Trajectory(
        times=np.array(times, dtype=float),
        states=np.array(states, dtype=np.int64),
        channels=np.array(channels, dtype=np.int64),
        status=status,
        t_end=t_end,
        internal_times=internal,
        channel_counts=counts,
    )


def simulate_direct(net: ReactionNetwork, x0: Sequence[int], cfg: SimConfig) -> Trajectory:
    """Direct-method exact sample path.

    Waiting times are Exp(W(x)) with W the total intensity; the channel
    is the first whose cumulative intensity exceeds a uniform mark times
    W.  Zero total intensity is not an error: the state is frozen and
    the path runs to t_end.
    """
    _check_network(net)
    return _direct_core(net, x0, cfg)


def _direct_core(net, x0, cfg: SimConfig) -> Trajectory:
    x = _check_state(x0, net)
    evaluators, updates = _compile(net)
    n_r = len(evaluators)
    rng = random.Random(cfg.seed & _MASK64)
    w = [0.0] * n_r
    times = [0.0]
    states = [tuple(x)]
    channels: list[int] = []
    t = 0.0
    status = "t_end"
    while True:
        if len(channels) >= cfg.max_events:
            status = "max_events"
            break
        total = _eval_into(evaluators, x, w)
        if not total < 1e300:
            raise SimulationError(f"propensity overflow at state {x}")
        if total <= 0.0:
            break
        t_next = t + rng.expovariate(total)
        if t_next > cfg.t_end:
            break
        target = rng.random() * total
        acc = 0.0
        fired = n_r - 1
        for j in range(n_r):
            acc += w[j]
            if target < acc:
                fired = j
                break
        for s, d in updates[fired]:
            x[s] -= d
        t = t_next
        times.append(t)
        states.append(tuple(x))
        channels.append(fired)
        if sum(x) > cfg.state_cap:
            status = "state_cap"
            break
    return _finish(times, states, channels, status, cfg.t_end)


def _rtc_core(net, x0, cfg: SimConfig, channel_rngs) -> Trajectory:
    x = _check_state(x0, net)
    evaluators, updates = _compile(net)
    n_r = len(evaluators)
    w = [0.0] * n_r
    # integrated intensity consumed per channel, and its next clock point
    t_int = [0.0] * n_r
    nxt = [rng.expovariate(1.0) for rng in channel_rngs]
    counts = [0] * n_r
    times = [0.0]
    states = [tuple(x)]
    channels: list[int] = []
    t = 0.0
    status = "t_end"
    while True:
        if len(channels) >= cfg.max_events:
            status = "max_events"
            break
        total = _eval_into(evaluators, x, w)
        if not total < 1e300:
            raise SimulationError(f"propensity overflow at state {x}")
        if total <= 0.0:
            break
        best = math.inf
        fired = -1
        for j in range(n_r):
            wj = w[j]
            if wj > 0.0:
                dt = (nxt[j] - t_int[j]) / wj
                if dt < best:  # strict: ties go to the lowest index
                    best = dt
                    fired = j
        t_next = t + best
        if t_next > cfg.t_end:
            break
        for j in range(n_r):
            wj = w[j]
            if wj > 0.0 and j != fired:
                adv = t_int[j] + wj * best
                t_int[j] = adv if adv < nxt[j] else nxt[j]
        t_int[fired] = nxt[fired]
        nxt[fired] += channel_rngs[fired].expovariate(1.0)
        counts[fired] += 1
        for s, d in updates[fired]:
            x[s] -= d
        t = t_next
        times.append(t)
        states.append(tuple(x))
        channels.append(fired)
        if sum(x) > cfg.state_cap:
            status = "state_cap"
            break
    return _finish(
        times, states, channels, status, cfg.t_end,
        internal=tuple(t_int), counts=tuple(counts),
    )


_CHANNEL_TAG = 0x52544300  # stream-domain separator for per-channel clocks


def simulate_rtc(net: ReactionNetwork, x0: Sequence[int], cfg: SimConfig) -> Trajectory:
    """Random-time-change exact sample path (next-reaction bookkeeping).

    Statistically identical to :func:`simulate_direct`; exposes the
    per-channel integrated intensities, which is the handle the coupling
    uses.  Channel r draws its clock increments from the stream seeded
    ``mix64(seed, _CHANNEL_TAG, r)``.
    """
    _check_network(net)
    return _rtc_core(net, x0, cfg, _channel_streams(cfg.seed, net.n_reactions))


def _channel_streams(seed: int, n_r: int) -> list[random.Random]:
    return [random.Random(mix64(seed, _CHANNEL_TAG, r)) for r in range(n_r)]


def simulate_coupled(
    net: ReactionNetwork,
    x0: Sequence[int],
    y0: Sequence[int],
    pert: PerturbationSpec,
    cfg: SimConfig,
) -> tuple[Trajectory, Trajectory]:
    """Coupled pair: nominal and perturbed legs on shared channel clocks.

    Both legs consume the *same* per-channel unit-rate Poisson streams
    (re-created from identical seeds), each advancing its own integrated
    intensity.  With equal initial data and zero perturbation the two
    legs coincide event for event.
    """
    pert_net = pert.apply(net)
    _check_network(net)
    _check_network(pert_net)
    return _coupled_core(net, pert_net, x0, y0, cfg)


def _coupled_core(net, pert_net, x0, y0, cfg: SimConfig) -> tuple[Trajectory, Trajectory]:
    leg_x = _rtc_core(net, x0, cfg, _channel_streams(cfg.seed, net.n_reactions))
    leg_y = _rtc_core(pert_net, y0, cfg, _channel_streams(cfg.seed, net.n_reactions))
    return leg_x, leg_y


# ---------------------------------------------------------------------------
# ensembles


@dataclass(frozen=True)
class MomentTable:
    """Ensemble moment estimates of |X_t|_1 plus per-species statistics.

    ``moments[g, p-1]`` estimates E|X_t|_1^p at ``times[g]``; standard
    errors are sample standard deviation over sqrt(n_valid).  Capped
    trajectories are excluded from every time at or past their cap and
    counted in ``n_excluded``.
    """

    times: np.ndarray
    p_max: int
    moments: np.ndarray  # (G, p_max)
    stderr: np.ndarray  # (G, p_max)
    species_mean: np.ndarray  # (G, D)
    species_var: np.ndarray  # (G, D)
    n: int
    n_valid: np.ndarray  # (G,)
    n_excluded: np.ndarray  # (G,)

    @property
    def explosion(self) -> bool:
        return bool(self.n_excluded.any())

    def to_csv(self) -> str:
        lines = ["time,p,estimate,stderr,n"]
        for g, t in enumerate(self.times):
            for p in range(1, self.p_max + 1):
                lines.append(
                    f"{float(t)!r},{p},{float(self.moments[g, p - 1])!r},"
                    f"{float(self.stderr[g, p - 1])!r},{int(self.n_valid[g])}"
                )
        return "\n".join(lines) + "\n"


_CHUNK = 256  # fixed reduction granularity: results never depend on workers


def _check_grid(grid: Sequence[float]) -> np.ndarray:
    """The grid as a float array; rejects any grid that is not a time axis."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or not grid.size or not np.isfinite(grid).all():
        raise ValueError("grid must be a non-empty 1-D sequence of finite times")
    if grid[0] < 0 or (np.diff(grid) <= 0).any():
        raise ValueError("grid must be non-negative and strictly increasing")
    return grid


def _chunk(terms, targs, grid, seed, start, stop, max_events, state_cap):
    """Sums of the per-sample terms of samples start..stop-1 at their valid times.

    ``terms(cfg, grid, *targs)`` runs sample i on the stream ``mix64(seed, i)``
    and returns its valid-time mask and term arrays, one row per grid time.
    """
    t_end = max(float(grid[-1]), math.ulp(0.0))  # a [0.0] grid needs no events
    valid = np.zeros(len(grid), dtype=np.int64)
    for i in range(start, stop):
        cfg = SimConfig(
            t_end=t_end, seed=mix64(seed, i), max_events=max_events, state_cap=state_cap
        )
        ok, parts = terms(cfg, grid, *targs)
        if i == start:
            sums = [np.zeros_like(term) for term in parts]
        okf = ok.astype(float)
        for acc, term in zip(sums, parts):
            acc += term * okf[:, None]
        valid += ok
    return sums, valid


def _pool_map(fn, jobs, workers):
    """``[fn(*job) for job in jobs]``, on a fork pool when workers > 1."""
    if workers <= 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    ctx = get_context("fork")
    with ctx.Pool(processes=min(workers, len(jobs))) as pool:
        return pool.starmap(fn, jobs)


def _reduce(terms, targs, grid, n, seed, workers, max_events, state_cap):
    """Means of the per-sample terms over the valid samples at each time.

    Returns ``(grid, means, valid, nv, bessel)`` with ``nv`` the valid
    count (at least 1) as a ``(G, 1)`` column and ``bessel = nv / (nv - 1)``
    (1 where ``nv == 1``).
    """
    if n < 2:
        raise ValueError("ensemble needs n >= 2")
    grid = _check_grid(grid)
    jobs = [
        (terms, targs, grid, seed, start, min(start + _CHUNK, n), max_events, state_cap)
        for start in range(0, n, _CHUNK)
    ]
    parts = _pool_map(_chunk, jobs, worker_count(workers))
    valid = sum(p[1] for p in parts)
    nv = np.maximum(valid, 1).astype(float)[:, None]
    means = [sum(chunk_sums) / nv for chunk_sums in zip(*(p[0] for p in parts))]
    return grid, means, valid, nv, nv / np.maximum(nv - 1, 1)


def _moment_terms(cfg, grid, net, x0, p_max):
    traj = _direct_core(net, x0, cfg)
    samples = traj.sample(grid).astype(float)
    norms = samples.sum(axis=1)
    powers = norms[:, None] ** np.arange(1, p_max + 1)[None, :]
    return grid < traj.cap_time, (powers, powers**2, samples, samples**2)


def ensemble_moments(
    net: ReactionNetwork,
    x0: Sequence[int],
    grid: Sequence[float],
    p_max: int,
    n: int,
    seed: int,
    workers: int | None = None,
    max_events: int = 10**8,
    state_cap: float = 1e9,
) -> MomentTable:
    """Moments of |X_t|_1 up to order p_max over n independent runs.

    Trajectory i uses the stream ``mix64(seed, i)``; partial sums are
    reduced in fixed chunk order, so the table is bit-identical for any
    worker count (set ``workers`` or the JKL_THREADS variable).
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    _check_network(net)
    grid, (mean, sq, sp_mean, sp_sq), valid, nv, bessel = _reduce(
        _moment_terms, (net, x0, p_max), grid, n, seed, workers, max_events, state_cap
    )
    var = np.maximum(sq - mean**2, 0.0)
    return MomentTable(
        times=grid,
        p_max=p_max,
        moments=mean,
        stderr=np.sqrt(var * bessel) / np.sqrt(nv),
        species_mean=sp_mean,
        species_var=np.maximum(sp_sq - sp_mean**2, 0.0) * bessel,
        n=n,
        n_valid=valid,
        n_excluded=n - valid,
    )


@dataclass(frozen=True)
class RmsCurve:
    """Ensemble root-mean-square difference of coupled pairs on a grid."""

    times: np.ndarray
    rms: np.ndarray  # sqrt(E |X_t - Y_t|^2)
    stderr: np.ndarray  # delta-method stderr of the rms
    mean_sq: np.ndarray
    species_rms: np.ndarray  # (G, D): per-species sqrt(E (X-Y)_s^2)
    n: int
    n_valid: np.ndarray

    def to_csv(self, species: Sequence[str] | None = None) -> str:
        cols = "time,rms,stderr,n"
        if species is not None:
            cols += "," + ",".join(f"rms_{s}" for s in species)
        lines = [cols]
        for g, t in enumerate(self.times):
            row = (
                f"{float(t)!r},{float(self.rms[g])!r},"
                f"{float(self.stderr[g])!r},{int(self.n_valid[g])}"
            )
            if species is not None:
                row += "," + ",".join(repr(float(v)) for v in self.species_rms[g])
            lines.append(row)
        return "\n".join(lines) + "\n"


def _rms_terms(cfg, grid, net, pert_net, x0, y0):
    leg_x, leg_y = _coupled_core(net, pert_net, x0, y0, cfg)
    ok = (grid < leg_x.cap_time) & (grid < leg_y.cap_time)
    diff = (leg_x.sample(grid) - leg_y.sample(grid)).astype(float)
    d2 = (diff**2).sum(axis=1)[:, None]
    return ok, (d2, d2**2, diff**2)


def coupled_rms(
    net: ReactionNetwork,
    x0: Sequence[int],
    y0: Sequence[int],
    pert: PerturbationSpec,
    grid: Sequence[float],
    n: int,
    seed: int,
    workers: int | None = None,
    max_events: int = 10**8,
    state_cap: float = 1e9,
) -> RmsCurve:
    """(E |X_t - Y_t|^2)^(1/2) over n coupled pairs, with standard errors."""
    pert_net = pert.apply(net)
    _check_network(net)
    _check_network(pert_net)
    grid, (mean_sq, sq_sq, sp_sq), valid, nv, bessel = _reduce(
        _rms_terms, (net, pert_net, x0, y0), grid, n, seed, workers, max_events, state_cap
    )
    var_sq = np.maximum(sq_sq - mean_sq**2, 0.0)
    se_mean_sq = (np.sqrt(var_sq * bessel) / np.sqrt(nv))[:, 0]
    mean_sq = mean_sq[:, 0]
    rms = np.sqrt(mean_sq)
    stderr = np.where(rms > 0, se_mean_sq / np.maximum(2 * rms, 1e-300), 0.0)
    return RmsCurve(
        times=grid,
        rms=rms,
        stderr=stderr,
        mean_sq=mean_sq,
        species_rms=np.sqrt(sp_sq),
        n=n,
        n_valid=valid,
    )


# ---------------------------------------------------------------------------
# lockstep batch sampler


_BATCH_TAG = 0xBA7C4


def batch_states(
    net: ReactionNetwork,
    x0: Sequence[int],
    grid: Sequence[float],
    n: int,
    seed: int,
    state_cap: float = 1e9,
    max_events_per_traj: int = 10**8,
) -> tuple[np.ndarray, np.ndarray]:
    """Direct-method sampling of n trajectories in numpy lockstep.

    Returns ``(states, cap_time)`` with ``states[g, i]`` the state of
    trajectory i at ``grid[g]`` and ``cap_time[i]`` the time trajectory i
    hit a cap (inf if it never did; states past the cap are frozen and
    should be masked by the caller).  Memory is O(len(grid) * n * D).

    Exact per trajectory; the draw order (one exponential and one
    uniform per trajectory per step, full width) is fixed by ``seed``
    and ``n``, independent of anything else.
    """
    grid = _check_grid(grid)
    _check_network(net)
    x_init = np.asarray(_check_state(x0, net), dtype=float)
    dim = net.n_species
    n_g = len(grid)
    n_r = net.n_reactions
    t_end = float(grid[-1])
    rng = np.random.Generator(np.random.PCG64(mix64(seed, _BATCH_TAG)))
    props = [rxn.propensity for rxn in net.reactions]

    x = np.tile(x_init, (n, 1))
    t = np.zeros(n)
    gidx = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    events = np.zeros(n, dtype=np.int64)
    cap_time = np.full(n, np.inf)
    out = np.empty((n_g, n, dim))
    nu_rows = net.stoichiometry.T.astype(float)  # (R, D)
    traj_idx = np.arange(n)
    w = np.empty((n_r, n))
    cum = np.empty((n_r, n))

    while active.any():
        for r, prop in enumerate(props):
            prop.evaluate_batch(x, w[r])
        total = w.sum(axis=0)
        if not np.isfinite(total[active]).all():
            raise SimulationError("propensity overflow in batch run")
        e = rng.exponential(size=n)
        u = rng.random(n)
        with np.errstate(divide="ignore", invalid="ignore"):
            dt = np.where(total > 0, e / total, np.inf)
        t_new = np.where(active, t + dt, -np.inf)

        # flush grid points strictly before the pending event time (an event
        # landing exactly on a grid point is recorded post-event next pass,
        # matching the right-continuous path convention)
        while True:
            rec = active & (gidx < n_g)
            rec &= grid[np.minimum(gidx, n_g - 1)] < t_new
            if not rec.any():
                break
            out[gidx[rec], traj_idx[rec]] = x[rec]
            gidx[rec] += 1

        # fully recorded trajectories are done; that covers both idle runs
        # (t_new = inf flushes every remaining point) and runs past t_end
        active &= gidx < n_g
        fire = active & (t_new <= t_end)
        if not fire.any():
            continue

        np.cumsum(w, axis=0, out=cum)
        target = u * total
        sel = np.minimum((cum <= target[None, :]).sum(axis=0), n_r - 1)
        x[fire] -= nu_rows[sel[fire]]
        t[fire] = t_new[fire]
        events[fire] += 1

        capped = fire & (
            (x.sum(axis=1) > state_cap) | (events >= max_events_per_traj)
        )
        if capped.any():
            cap_time[capped] = t[capped]
            # freeze and flush the remaining grid with the last state
            while True:
                rec = capped & (gidx < n_g)
                if not rec.any():
                    break
                out[gidx[rec], traj_idx[rec]] = x[rec]
                gidx[rec] += 1
            active[capped] = False
    return out, cap_time


# ---------------------------------------------------------------------------
# deterministic rate equations


@dataclass(frozen=True)
class OdeSolution:
    times: np.ndarray
    states: np.ndarray  # (G, D)

    def to_csv(self, species: Sequence[str]) -> str:
        lines = ["time," + ",".join(species)]
        for t, row in zip(self.times, self.states):
            lines.append(repr(float(t)) + "," + ",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"


def integrate_rre(
    net: ReactionNetwork,
    x0: Sequence[float],
    grid: Sequence[float],
    tol: float = 1e-8,
) -> OdeSolution:
    """Adaptive embedded Runge-Kutta 4(5) solution of x' = -N w(x).

    Raises:
        SimulationError: when the step size underflows (stiff failure).
    """
    grid = np.asarray(grid, dtype=float)
    x_init = np.asarray(x0, dtype=float)
    if (x_init < 0).any():
        raise ValueError("initial state must be non-negative")
    nmat = net.stoichiometry.astype(float)

    def rhs(_t, x):
        return -(nmat @ propensity_eval(net, x))

    res = scipy.integrate.solve_ivp(
        rhs,
        (float(grid[0]), float(grid[-1])),
        x_init,
        method="RK45",
        t_eval=grid,
        rtol=tol,
        atol=tol,
    )
    if not res.success:
        raise SimulationError(f"rate-equation integration failed: {res.message}")
    return OdeSolution(times=res.t, states=res.y.T)
