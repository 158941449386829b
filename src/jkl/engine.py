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
* trajectory ``i`` of an ensemble uses ``s_i = mix64(seed, i)``; channel
  ``r`` of coupled pair ``i`` uses ``mix64(s_i, _CHANNEL_TAG, r)`` for
  both legs: each stream is seeded once per pair, and the perturbed leg
  replays the draws the nominal leg took from it, then continues it;
* exponentials are inverse-CDF samples ``-log(1 - u)``; the RTC
  sampler's channel clocks deliver them as increments
  (:func:`_increments`);
* both ensemble estimators go through one reducer, :func:`_reduce`,
  which combines fixed-size chunk sums in index order, so serial and
  parallel runs produce identical bytes.  A chunk derives all its seeds
  in one uint64 array pass (:func:`_mix_lanes`, the same chain).  An
  ``ensemble_moments`` chunk re-seeds one stream per sample, which leaves
  it as a freshly seeded one; a ``coupled_rms`` chunk seeds each channel
  stream of each pair once, and both legs read its draws, in stream
  order, from one store.

Both samplers run as generated code: for each network, sampler and
record mode, :func:`_stepper_source` writes one straight-line Python
function with the propensities, their index-order total, the channel
selection and the integer state updates unrolled, and :func:`_stepper`
compiles it once per process.  Only ``repr(float(rate))``, species
indices and stoichiometric integers are written into the source, never
labels or names, and every propensity is the text that
:func:`~jkl.model._expression` writes, so the generated code produces
the same bytes as a plain loop would.  Path mode returns the whole path
(the public :class:`Trajectory`); grid mode, which ``ensemble_moments``
uses, records the state only at the grid times.  ``coupled_rms`` runs
the pairs of a chunk through :func:`jkl.lockstep.pair_states`, a numpy
kernel that gives the grid-mode RTC stepper's bytes on every leg at once
and hands the stepper the few legs that run long, or that overflow.

The lockstep batch sampler (:func:`batch_states`) runs species-major in
numpy on one master-seeded vector stream: exact and deterministic, but
its per-trajectory paths depend on the batch size.  Running sums of the
rates give the total and the channel; one gather per species moves it.
Every row is allocated once per call and each step writes into one.
Once at most half of the trajectories still fire, the work rows shrink to
those that do, in their first lanes; the draws stay full width, so each
keeps its own column.

Every public sampler checks its network (raising
:class:`~jkl.model.InvalidNetworkError`) and initial state once per call;
ensemble chunks then run the compiled steppers on the checked state.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
import os
import random
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .lockstep import pair_states
from .model import ReactionNetwork, _check_network, _compile, _expression, _rates

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
    return _mix(0x9E3779B97F4A7C15, parts)


def _mix(z: int, parts) -> int:
    """Fold ``parts`` into the chain state ``z``: ``mix64(*a, *b) == _mix(mix64(*a), b)``."""
    for p in parts:
        z = (z + (p & _MASK64)) & _MASK64
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & _MASK64
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
    return z


def _mix_lanes(z, parts) -> np.ndarray:
    """:func:`_mix` elementwise on uint64 arrays, whose adds and multiplies wrap mod 2**64.

    ``z`` and each part are integers in ``[0, 2**64)`` or uint64 arrays of
    them; they broadcast.  ``_mix_lanes(mix64(seed), [i])`` holds the seeds
    ``mix64(seed, i)`` of the sample indices ``i``.
    """
    z = np.array(z, dtype=np.uint64, ndmin=1)
    for p in parts:
        z = z + np.asarray(p, dtype=np.uint64)
        z ^= z >> 30
        z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27
        z *= 0x94D049BB133111EB
        z ^= z >> 31
    return z


def _integer(value, name: str) -> int:
    """``value`` as a Python int; any integer type passes (numpy's too), anything else is rejected."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _csv(header: Sequence[str], rows) -> str:
    """CSV text: the header names, then one line per row, each ending in ``\n``.

    Cells are Python scalars (callers pass ``.tolist()`` rows) and are
    written with ``str``, which for a float is its ``repr``: the shortest
    text that reads back to the same bits (``inf`` and ``nan`` included).
    """
    lines = [",".join(header)]
    lines += [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


class SimulationError(RuntimeError):
    """Hard numerical failure (non-finite propensity, integrator failure)."""


def worker_count(requested: int | None = None) -> int:
    """Resolve the worker count: argument, else JKL_THREADS, else usable cores.

    Usable cores are those of the process's CPU affinity mask where the
    platform reports one, else every core.
    """
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get("JKL_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
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
        if not self.max_events > 0 or not self.state_cap > 0:  # NaN included
            raise ValueError("caps must be positive")
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))


def _grid_config(grid: np.ndarray, **controls) -> SimConfig:
    """The run controls of a sampler that records on ``grid``; a [0.0] grid needs no events."""
    return SimConfig(t_end=max(float(grid[-1]), math.ulp(0.0)), **controls)


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

    @property
    def n_events(self) -> int:
        return len(self.channels)

    @property
    def channel_counts(self) -> tuple[int, ...] | None:
        """Firings per channel, counted from ``channels``; None on a direct path."""
        if self.internal_times is None:
            return None
        return tuple(np.bincount(self.channels, minlength=len(self.internal_times)).tolist())

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def cap_time(self) -> float:
        """Time after which the path is unknown (inf if it ran to t_end)."""
        return math.inf if self.status == "t_end" else float(self.times[-1])

    def sample(self, grid: Sequence[float]) -> np.ndarray:
        """States at the given times in [0, t_end] (right-continuous piecewise constant)."""
        grid = np.asarray(grid, dtype=float)
        if np.isnan(grid).any():
            raise ValueError("grid times must not be NaN")
        idx = np.searchsorted(self.times, grid, side="right") - 1
        if (idx < 0).any():
            raise ValueError("grid extends before the initial time")
        if (grid > self.t_end).any():
            raise ValueError(f"grid extends past the simulated horizon t_end = {self.t_end!r}")
        return self.states[idx]

    def to_csv(self, species: Sequence[str], grid: Sequence[float] | None = None) -> str:
        if grid is None:
            times, states = self.times, self.states
        else:
            times, states = np.asarray(grid, dtype=float), self.sample(grid)
        rows = ([t, *x] for t, x in zip(times.tolist(), states.tolist()))
        return _csv(["time", *species], rows)


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
# generated per-network steppers


_RATE_LIMIT = 1e300  # both direct samplers raise at a total intensity this high (or NaN)


def _max_gain(reactions) -> int:
    """The largest rise of the 1-norm in one event (0 when no event raises it)."""
    return max([0, *(-sum(rxn.nu) for rxn in reactions)])


def _cap_limit(reactions, top: int) -> int:
    """The largest norm from which no event lifts a count past ``top``, where rows stay exact."""
    return top - _max_gain(reactions)


# Every stepper has this shape; _stepper_source fills the {slots}.  ``draws``
# is the direct method's stream, or the RTC sampler's list of channel clocks,
# each a zero-argument callable returning the channel's next increment (see
# _increments).  The cap test heads the loop, so a start above the cap stops
# at t = 0.
_SKELETON = """\
def step(x, draws, t_end, max_events, state_cap, grid=None):
    [{xs}] = x
    norm = {norm}
    state_cap = min(state_cap, {limit})
    t = 0.0
    n = 0
    status = 't_end'
{start}
    while True:
        if norm > state_cap:
            status = 'state_cap'
            break
        if n >= max_events:
            status = 'max_events'
            break
{rates}
        if not total < {rate_limit}:
            raise SimulationError(f'propensity overflow at state {{[{xs}]}}')
        if total <= 0.0:
            break
{wait}
        if t_next > t_end:
            break
{before}
{fire}
        t = t_next
        n += 1
{after}
{stop}
"""


def _tuple_source(names: list[str]) -> str:
    return f"({names[0]},)" if len(names) == 1 else f"({', '.join(names)})"


def _stepper_source(reactions, dim: int, sampler: str, mode: str) -> str:
    """Python source of the straight-line stepper for one network.

    The propensities, their index-order total and the channel selection
    are unrolled and each channel's ``nu`` becomes fixed integer updates
    of the locals ``x0, x1, ...``; the 1-norm is kept incrementally.  Only
    ``repr(float(rate))``, species indices and stoichiometric integers
    enter the text.  ``path`` mode returns ``(times, states, channels,
    status, internal)`` with ``internal`` the RTC sampler's integrated
    intensities (None for direct); ``grid`` mode records the state only
    at the grid times and returns ``(rows, cap_time, events)``.
    """
    n_r = len(reactions)
    xs = [f"x{s}" for s in range(dim)]
    row = _tuple_source(xs)
    rtc, grid = sampler == "rtc", mode == "grid"
    exprs = [_expression(rxn.propensity, False) for rxn in reactions]

    def update(j: int, pad: str) -> list[str]:
        nu = reactions[j].nu
        out = [f"{pad}{xs[s]} {'-' if d > 0 else '+'}= {abs(d)}" for s, d in enumerate(nu) if d]
        if sum(nu):
            out.append(f"{pad}norm {'-' if sum(nu) > 0 else '+'}= {abs(sum(nu))}")
        if rtc:
            out[:0] = [f"{pad}s{j} = p{j}", f"{pad}p{j} += clock{j}()"]
        if not grid:
            out.append(f"{pad}channels.append({j})")
        return out or [f"{pad}pass"]

    if rtc:
        # p_j is channel j's next clock point, s_j its integrated intensity
        start = [f"    clock{j} = draws[{j}]" for j in range(n_r)]
        start += [f"    p{j} = clock{j}()" for j in range(n_r)]
        start += [f"    s{j} = 0.0" for j in range(n_r)]
        rates = [f"        w{j} = {expr}" for j, expr in enumerate(exprs)]
        rates.append(f"        total = {' + '.join(['0.0'] + [f'w{j}' for j in range(n_r)])}")
        # the smallest time to a clock point wins; strict, so ties go to
        # the lowest index
        wait = ["        best = inf", "        fired = -1"]
        for j in range(n_r):
            wait += [
                f"        if w{j} > 0.0:",
                f"            dt = (p{j} - s{j}) / w{j}",
                "            if dt < best:",
                "                best = dt",
                f"                fired = {j}",
            ]
        wait.append("        t_next = t + best")
        # every running channel advances, clamped at its clock point; the
        # fired one is then set to its clock point exactly
        fire = []
        for j in range(n_r):
            fire += [
                f"        if w{j} > 0.0:",
                f"            adv = s{j} + w{j} * best",
                f"            s{j} = adv if adv < p{j} else p{j}",
            ]
        tests = [f"fired == {j}" for j in range(n_r)]
    else:
        start = ["    uniform = draws.random"]
        # c_j = 0.0 + w0 + ... + w_j, summed in index order: the cumulative
        # intensities of the inversion, and the total
        rates = [
            f"        c{j} = {f'c{j - 1}' if j else '0.0'} + {expr}"
            for j, expr in enumerate(exprs)
        ]
        rates.append(f"        total = {f'c{n_r - 1}' if n_r else '0.0'}")
        wait = ["        t_next = t + -log(1.0 - uniform()) / total"]
        fire = ["        target = uniform() * total"]
        tests = [f"target < c{j}" for j in range(n_r)]
    for j in range(n_r):  # a single channel needs no test
        head = "else" if j == n_r - 1 else f"{'elif' if j else 'if'} {tests[j]}"
        fire += update(j, "        ") if n_r == 1 else [f"        {head}:", *update(j, " " * 12)]

    if grid:
        start += ["    rows = []", "    grid = [*grid, inf]", "    tg = grid[0]"]
        # grid times strictly before the event keep the pre-event state
        before = [
            "        while tg < t_next:",
            f"            rows.append({row})",
            "            tg = grid[len(rows)]",
        ]
        after = []
        stop = [
            f"    rows += [{row}] * (len(grid) - 1 - len(rows))",
            "    return rows, (inf if status == 't_end' else t), n",
        ]
    else:
        start += ["    times = [0.0]", f"    states = [{row}]", "    channels = []"]
        before = []
        after = ["        times.append(t)", f"        states.append({row})"]
        internal = _tuple_source([f"s{j}" for j in range(n_r)]) if rtc else "None"
        stop = [f"    return times, states, channels, status, {internal}"]
    slots = dict(
        start=start, rates=rates, wait=wait, before=before, fire=fire, after=after, stop=stop
    )
    source = _SKELETON.format(
        xs=", ".join(xs),
        norm=" + ".join(xs) or "0",
        limit=_cap_limit(reactions, 2**63 - 1),
        rate_limit=_RATE_LIMIT,
        **{name: "\n".join(lines) for name, lines in slots.items()},
    )
    return "".join(line for line in source.splitlines(keepends=True) if line.strip())


@functools.lru_cache(maxsize=256)
def _stepper(reactions, dim: int, sampler: str, mode: str):
    """The compiled stepper for one network, sampler and mode, built once per process.

    Keyed by ``net.reactions`` (hashable) and ``net.n_species``; the most
    recently used 256 steppers are kept.
    """
    source = _stepper_source(reactions, dim, sampler, mode)
    return _compile(source, "step", SimulationError=SimulationError, log=math.log)


def _counts(values: Sequence[int], what: str) -> list[int]:
    """values as ints.

    Integral floats such as ``2.0`` pass; a fractional or non-finite
    entry raises ValueError, never truncated, and so does an entry
    outside int64, the dtype every state array is built with.
    """
    bad = [v for v in values if not (isinstance(v, numbers.Integral) or float(v).is_integer())]
    if bad:
        raise ValueError(f"{what} must hold integer counts, got {float(bad[0])!r}")
    counts = [int(v) for v in values]
    wide = [v for v in counts if not -(2**63) <= v < 2**63]
    if wide:
        raise ValueError(f"{what} must hold counts that fit a 64-bit integer, got {wide[0]}")
    return counts


def _check_state(x0: Sequence[int], dim: int) -> list[int]:
    """x0 as ints (see :func:`_counts`), ``dim`` non-negative counts."""
    x = _counts(x0, "initial state")
    if len(x) != dim:
        raise ValueError(f"state has dimension {len(x)}, expected {dim}")
    if any(v < 0 for v in x):
        raise ValueError("initial state must be non-negative")
    return x


def _check_real_state(x0: Sequence[float], dim: int) -> np.ndarray:
    """x0 as a float array of ``dim`` finite, non-negative values."""
    x = np.asarray(x0, dtype=float)
    if x.shape != (dim,) or not np.isfinite(x).all():
        raise ValueError(f"initial state must be {dim} finite values")
    if (x < 0).any():
        raise ValueError("initial state must be non-negative")
    return x


def _path(net, sampler: str, x0, cfg: SimConfig, draws) -> Trajectory:
    """One full sample path from the compiled path-mode stepper on ``draws``."""
    x = _check_state(x0, net.n_species)
    step = _stepper(net.reactions, net.n_species, sampler, "path")
    times, states, channels, status, internal = step(
        x, draws, cfg.t_end, cfg.max_events, cfg.state_cap
    )
    return Trajectory(
        times=np.array(times, dtype=float),
        states=np.array(states, dtype=np.int64),
        channels=np.array(channels, dtype=np.int64),
        status=status,
        t_end=cfg.t_end,
        internal_times=internal,
    )


def simulate_direct(net: ReactionNetwork, x0: Sequence[int], cfg: SimConfig) -> Trajectory:
    """Direct-method exact sample path.

    Waiting times are Exp(W(x)) with W the total intensity; the channel
    is the first whose cumulative intensity exceeds a uniform mark times
    W.  Zero total intensity is not an error: the state is frozen and
    the path runs to t_end.
    """
    _check_network(net)
    return _path(net, "direct", x0, cfg, random.Random(cfg.seed & _MASK64))


_CHANNEL_TAG = 0x52544300  # stream-domain separator for per-channel clocks


def simulate_rtc(net: ReactionNetwork, x0: Sequence[int], cfg: SimConfig) -> Trajectory:
    """Random-time-change exact sample path (next-reaction bookkeeping).

    Statistically identical to :func:`simulate_direct`; exposes the
    per-channel integrated intensities, which is the handle the coupling
    uses.  Channel r draws its clock increments from the stream seeded
    ``mix64(seed, _CHANNEL_TAG, r)``; the channel that fires is the one
    with the smallest time to its next clock point, ties to the lowest
    index.
    """
    _check_network(net)
    clocks = [_increments(r).__next__ for r in _channel_streams(cfg.seed, net.n_reactions)]
    return _path(net, "rtc", x0, cfg, clocks)


def _channel_streams(seed: int, n_r: int) -> list[random.Random]:
    z = mix64(seed, _CHANNEL_TAG)
    return [random.Random(_mix(z, (r,))) for r in range(n_r)]


def _increments(stream):
    """The unit-exponential clock increments ``-log(1 - u)`` of ``stream``'s uniforms, in order."""
    log, draw = math.log, stream.random
    while True:
        yield -log(1.0 - draw())


def _coupled_clocks(streams: list[random.Random]) -> tuple[list, list]:
    """The channel clocks of a coupled pair's two legs, on one set of streams.

    The first leg draws channel r's increments from its stream through a
    ``tee``; the second leg reads the ones the first buffered, then
    continues the same stream.  So each leg sees the stream's draws in
    stream order, exactly as a leg with freshly seeded streams would.
    """
    legs = [itertools.tee(_increments(r)) for r in streams]
    return [x.__next__ for x, _ in legs], [y.__next__ for _, y in legs]


def simulate_coupled(
    net: ReactionNetwork,
    x0: Sequence[int],
    y0: Sequence[int],
    pert: PerturbationSpec,
    cfg: SimConfig,
) -> tuple[Trajectory, Trajectory]:
    """Coupled pair: nominal and perturbed legs on shared channel clocks.

    Both legs consume the *same* per-channel unit-rate Poisson streams,
    each advancing its own integrated intensity: the streams are seeded
    once, and the perturbed leg replays the nominal leg's draws before it
    continues them, so each leg equals :func:`simulate_rtc` on its network.
    With equal initial data and zero perturbation the two legs coincide
    event for event.
    """
    pert_net = pert.apply(net)
    _check_network(net)
    _check_network(pert_net)
    clocks_x, clocks_y = _coupled_clocks(_channel_streams(cfg.seed, net.n_reactions))
    return _path(net, "rtc", x0, cfg, clocks_x), _path(pert_net, "rtc", y0, cfg, clocks_y)


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
        rows = (
            (t, p, m, se, n)
            for t, ms, ses, n in zip(
                self.times.tolist(), self.moments.tolist(), self.stderr.tolist(),
                self.n_valid.tolist(),
            )
            for p, m, se in zip(range(1, self.p_max + 1), ms, ses)
        )
        return _csv(["time", "p", "estimate", "stderr", "n"], rows)


_CHUNK = 256  # fixed reduction granularity: results never depend on workers


def _check_grid(grid: Sequence[float]) -> np.ndarray:
    """The grid as a float array; rejects any grid that is not a time axis."""
    grid = np.asarray(grid, dtype=float)
    times = grid.tolist()
    if grid.ndim != 1 or not times or not all(map(math.isfinite, times)):
        raise ValueError("grid must be a non-empty 1-D sequence of finite times")
    if times[0] < 0 or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("grid must be non-negative and strictly increasing")
    return grid


def _chunk(terms, targs, grid, seed, start, stop, cfg):
    """Sums of the per-sample terms of samples start..stop-1 at their valid times.

    ``terms(grid, cfg, *targs)`` returns ``(samples, batch)``:
    ``samples(seeds)`` runs one sample per stream seed of a uint64 array
    and returns ``(rows, caps)``: the samples' grid rows as floats, one
    sample per leading index, and the times they hit a cap.  ``batch(rows)``
    returns the rows' term arrays, shaped ``(S, G, k)``.  Sample i uses
    the seed ``mix64(seed, i)``; the chunk's seeds come from one array
    pass.  The sums run in sample order: numpy's cumsum, unlike its sum,
    is never pairwise.
    """
    samples, batch = terms(grid, cfg, *targs)
    seeds = _mix_lanes(mix64(seed), [np.arange(start, stop, dtype=np.uint64)])
    rows, caps = samples(seeds)
    ok = grid < caps[:, None]
    okf = ok[:, :, None].astype(float)
    sums = [np.cumsum(term * okf, axis=0)[-1] for term in batch(rows)]
    return sums, ok.sum(axis=0)


def _pool_map(fn, jobs, workers):
    """``[fn(*job) for job in jobs]``, on a fork pool when workers > 1."""
    if workers <= 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    from multiprocessing import get_context

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
    # the run controls shared by every sample (each has its own seed)
    cfg = _grid_config(grid, seed=seed, max_events=max_events, state_cap=state_cap)
    jobs = [
        (terms, targs, grid, cfg.seed, start, min(start + _CHUNK, n), cfg)
        for start in range(0, n, _CHUNK)
    ]
    parts = _pool_map(_chunk, jobs, worker_count(workers))
    valid = sum(p[1] for p in parts)
    nv = np.maximum(valid, 1).astype(float)[:, None]
    means = [sum(chunk_sums) / nv for chunk_sums in zip(*(p[0] for p in parts))]
    return grid, means, valid, nv, nv / np.maximum(nv - 1, 1)


def _moment_terms(grid, cfg, net, x, p_max):
    step = _stepper(net.reactions, net.n_species, "direct", "grid")
    run = (cfg.t_end, cfg.max_events, cfg.state_cap, grid.tolist())
    orders = np.arange(1, p_max + 1)

    def samples(seeds):
        # one stream, re-seeded per sample: seed(s) sets the state Random(s) starts in
        stream = random.Random()
        rows, caps = [], []
        for s in seeds.tolist():
            stream.seed(s)
            sample_rows, cap_time, _ = step(x, stream, *run)
            rows.append(sample_rows)
            caps.append(cap_time)
        return np.array(rows, dtype=float), np.array(caps)

    def batch(rows):
        powers = rows.sum(axis=2)[:, :, None] ** orders
        return powers, powers**2, rows, rows**2

    return samples, batch


def ensemble_moments(
    net: ReactionNetwork,
    x0: Sequence[int],
    grid: Sequence[float],
    p_max: int,
    n: int,
    seed: int,
    workers: int | None = None,
    max_events: int = SimConfig.max_events,
    state_cap: float = SimConfig.state_cap,
) -> MomentTable:
    """Moments of |X_t|_1 up to order p_max over n independent runs.

    Trajectory i uses the stream ``mix64(seed, i)``; partial sums are
    reduced in fixed chunk order, so the table is bit-identical for any
    worker count (set ``workers`` or the JKL_THREADS variable).
    """
    n = _integer(n, "n")
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    _check_network(net)
    x = _check_state(x0, net.n_species)
    grid, (mean, sq, sp_mean, sp_sq), valid, nv, bessel = _reduce(
        _moment_terms, (net, x, p_max), grid, n, seed, workers, max_events, state_cap
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
        header = ["time", "rms", "stderr", "n"]
        rows = zip(
            self.times.tolist(), self.rms.tolist(), self.stderr.tolist(), self.n_valid.tolist()
        )
        if species is None:
            return _csv(header, rows)
        header += [f"rms_{s}" for s in species]
        return _csv(header, ((*row, *sp) for row, sp in zip(rows, self.species_rms.tolist())))


def _rms_terms(grid, cfg, net, pert_net, x, y):
    # the stop rule in exact ints: an integer norm exceeds state_cap iff it
    # exceeds its floor
    cap = _cap_limit(net.reactions, 2**63 - 1)
    if cfg.state_cap < math.inf:
        cap = min(cap, math.floor(cfg.state_cap))
    rule = (max(cap, -1), _max_gain(net.reactions), _RATE_LIMIT)
    channels = np.arange(net.n_reactions, dtype=np.uint64)
    # the legs a chunk runs again: those that overflow, and a few that run long
    steppers = [_stepper(n.reactions, net.n_species, "rtc", "grid") for n in (net, pert_net)]

    def samples(seeds):
        # channel r of pair i reads the stream _channel_streams gives it; each
        # is seeded once, pair after pair
        pair_seeds = _mix_lanes(mix64(), (seeds[:, None], _CHANNEL_TAG, channels)).tolist()
        streams = [[random.Random(s).random for s in pair] for pair in pair_seeds]
        return pair_states((net, pert_net), (x, y), streams, grid, cfg, *rule, steppers)

    def batch(pairs):
        diff = pairs[:, 0] - pairs[:, 1]
        d2 = (diff**2).sum(axis=2)[:, :, None]
        return d2, d2**2, diff**2

    return samples, batch


def coupled_rms(
    net: ReactionNetwork,
    x0: Sequence[int],
    y0: Sequence[int],
    pert: PerturbationSpec,
    grid: Sequence[float],
    n: int,
    seed: int,
    workers: int | None = None,
    max_events: int = SimConfig.max_events,
    state_cap: float = SimConfig.state_cap,
) -> RmsCurve:
    """(E |X_t - Y_t|^2)^(1/2) over n coupled pairs, with standard errors."""
    n = _integer(n, "n")
    pert_net = pert.apply(net)
    _check_network(net)
    _check_network(pert_net)
    x, y = _check_state(x0, net.n_species), _check_state(y0, net.n_species)
    grid, (mean_sq, sq_sq, sp_sq), valid, nv, bessel = _reduce(
        _rms_terms, (net, pert_net, x, y), grid, n, seed, workers, max_events, state_cap
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
# lanes per recording block, so its index temporaries stay near 2.5 MiB
_RECORD_BLOCK = 2**16


def batch_states(
    net: ReactionNetwork,
    x0: Sequence[int],
    grid: Sequence[float],
    n: int,
    seed: int,
    state_cap: float = SimConfig.state_cap,
    max_events_per_traj: int = SimConfig.max_events,
) -> tuple[np.ndarray, np.ndarray]:
    """Direct-method sampling of n trajectories in numpy lockstep.

    Returns ``(states, cap_time)`` with ``states[g, i]`` the state of
    trajectory i at ``grid[g]`` and ``cap_time[i]`` the time trajectory i
    hit a cap (inf if it never did, 0 from a start above ``state_cap``;
    states past the cap are frozen and should be masked by the caller).
    The steppers' stop rule holds, with ``state_cap`` clamped to keep the
    float rows' counts within 2**53.  Memory: the (G, n, D) states and
    the n cap times it returns, and rows of n allocated once: D state
    rows, R running sums, the times t and t_new, the next grid times, one
    draw row, a channel row of ``np.min_scalar_type(R)``, R - 1 bool rows
    of the channel test and two bool rows.  Recording visits the lanes in
    blocks of ``_RECORD_BLOCK``.

    Exact per trajectory; the draw order (one exponential and one
    uniform per trajectory per step, full width) is fixed by ``seed``
    and ``n``, independent of anything else.  Raises ``ValueError`` for
    a non-integer ``n`` or ``n < 1``, for a count above 2**53 in ``x0``
    and for caps or a seed that :class:`SimConfig` rejects.
    """
    grid = _check_grid(grid)
    _check_network(net)
    x_init = _check_state(x0, net.n_species)
    cfg = _grid_config(grid, seed=seed, max_events=max_events_per_traj, state_cap=state_cap)
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("batch needs n >= 1")
    if max(x_init, default=0) > 2**53:
        raise ValueError(
            f"batch_states holds counts of at most 2**53 in float rows, got {max(x_init)}"
        )
    state_cap = min(cfg.state_cap, _cap_limit(net.reactions, 2**53))
    dim, n_g, n_r = net.n_species, len(grid), net.n_reactions
    norm, gain = sum(x_init), _max_gain(net.reactions)
    if norm > state_cap:  # stopped at t = 0, as a stepper stops: no draws
        return np.full((n_g, n, dim), x_init, dtype=float), np.zeros(n)
    rng = np.random.Generator(np.random.PCG64(mix64(cfg.seed, _BATCH_TAG)))
    rates = _rates(net.reactions, dim, True)

    # species-major rows; column R of the decrement table is the zero step
    # of the trajectories that do not fire
    x = np.repeat(np.array(x_init, dtype=float)[:, None], n, axis=1)
    nu = np.zeros((dim, n_r + 1))
    nu[:, :n_r] = net.stoichiometry
    t = np.zeros(n)  # inf once capped: the next pass records the rest of the grid
    t_new = np.empty(n)
    tg = np.full(n, grid[0])  # the next grid time to record, inf once all are
    gnext = np.append(grid, np.inf)
    draw = np.empty(n)
    w = np.zeros((max(n_r, 1), n))  # a network with no channel has total 0
    sel = np.empty(n, dtype=np.min_scalar_type(n_r))
    below = np.empty((max(n_r - 1, 0), n), dtype=bool)
    fire = np.empty(n, dtype=bool)
    mask = np.empty(n, dtype=bool)  # each step's own bool row in turn
    states = np.empty((n_g, n, dim))
    cap_time = np.full(n, np.inf)
    # the work rows hold the trajectories ``lane`` (all n while it is None);
    # once at most half of them fire, they shrink to views of the first m
    # lanes, holding those that do
    lane, m = None, n
    # a trajectory fires on every pass until its grid is recorded, so the
    # pass count is the event count of every trajectory that fires
    events = 0

    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            rates(w, *x)
            for j in range(1, n_r):  # c_j = c_{j-1} + w_j, in place
                np.add(w[j - 1], w[j], out=w[j])
            total = w[-1]
            if not total.max(initial=0.0) < _RATE_LIMIT:  # NaN fails it too
                if not (total[(tg < np.inf) & (t < np.inf)] < _RATE_LIMIT).all():
                    raise SimulationError("propensity overflow in batch run")
            # the draws stay full width, so each trajectory reads its own
            # column: the exponential (the bits of rng.exponential(size=n)),
            # then the uniform, in one row
            rng.standard_exponential(out=draw)
            # mode "clip" gathers straight into ``out``; "raise" buffers it
            e = draw if lane is None else draw.take(lane, out=t_new, mode="clip")
            # t_new = t + (e / total where total > 0, else inf)
            np.greater(total, 0.0, out=mask)
            np.divide(e, total, out=t_new, where=mask)
            np.copyto(t_new, np.inf, where=np.logical_not(mask, out=mask))
            np.add(t, t_new, out=t_new)
            rng.random(out=draw)

            # record the grid points strictly before the pending event (an
            # event on a grid point is recorded post-event, right-continuous)
            np.greater(t_new, tg, out=mask)
            for a in range(0, m, _RECORD_BLOCK):
                rec = np.flatnonzero(mask[a : a + _RECORD_BLOCK])
                if not rec.size:
                    continue
                rec += a
                lo, hi = np.searchsorted(grid, tg[rec]), np.searchsorted(grid, t_new[rec])
                for g in range(lo.min(), hi.max()):
                    k = rec[(lo <= g) & (g < hi)]
                    states[g, k if lane is None else lane[k]] = x[:, k].T
                tg[rec] = gnext[hi]

            # the rest fire: a pending event past t_end flushed the whole grid
            np.less(tg, np.inf, out=fire)
            n_fire = np.count_nonzero(fire)
            if not n_fire:
                break
            if 2 * n_fire <= m:
                lane = np.flatnonzero(fire) if lane is None else lane[fire]
                for row in (*x, *w, t_new, tg):
                    row[:n_fire] = row[fire]
                m = n_fire
                x, w, t, t_new, tg = x[:, :m], w[:, :m], t[:m], t_new[:m], tg[:m]
                below, sel, mask, fire = below[:, :m], sel[:m], mask[:m], fire[:m]
                fire.fill(True)
                total = w[-1]
            # t is free until the swap below, so it holds the gathered uniforms
            u = draw if lane is None else draw.take(lane, out=t, mode="clip")
            np.multiply(u, total, out=u)
            np.less_equal(w[:-1], u, out=below).sum(axis=0, out=sel)
            if n_fire < m:
                np.copyto(sel, n_r, where=np.logical_not(fire, out=mask))
            step = draw[:m]
            for s in range(dim):
                x[s] -= nu[s].take(sel, out=step, mode="clip")
            t, t_new = t_new, t
            events += 1
            if events >= cfg.max_events:
                capped = fire
            elif norm + events * gain > state_cap:  # else no count can be past it yet
                capped = np.greater(x.sum(axis=0, out=step), state_cap, out=mask)
                capped &= fire
            else:
                continue
            if capped.any():
                cap_time[capped if lane is None else lane[capped]] = t[capped]
                t[capped] = np.inf
    return states, cap_time


# ---------------------------------------------------------------------------
# deterministic rate equations


@dataclass(frozen=True)
class OdeSolution:
    times: np.ndarray
    states: np.ndarray  # (G, D)

    def to_csv(self, species: Sequence[str]) -> str:
        rows = ([t, *x] for t, x in zip(self.times.tolist(), self.states.tolist()))
        return _csv(["time", *species], rows)


def integrate_rre(
    net: ReactionNetwork,
    x0: Sequence[float],
    grid: Sequence[float],
    tol: float = 1e-8,
) -> OdeSolution:
    """Adaptive embedded Runge-Kutta 4(5) solution of x' = -N w(x).

    Integrates from ``grid[0]`` (where the state is ``x0``) through the
    grid, which the samplers' grid check must accept.

    Raises:
        ValueError: for an invalid network, grid or initial state.
        SimulationError: when the step size underflows (stiff failure).
    """
    _check_network(net)
    grid = _check_grid(grid)
    x_init = _check_real_state(x0, net.n_species)
    if len(grid) == 1:  # solve_ivp returns no usable result on an empty span
        return OdeSolution(times=grid, states=x_init[None, :])
    import scipy.integrate

    nmat = net.stoichiometry.astype(float)
    rates = _rates(net.reactions, net.n_species, False)
    w = np.empty(net.n_reactions)

    def rhs(_t, x):
        rates(w, *x)
        return -(nmat @ w)

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
