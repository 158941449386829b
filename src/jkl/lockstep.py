"""The lane layer: the numpy lockstep kernels of ``batch_states`` and ``coupled_rms``.

A kernel runs many samples ("lanes") at once, one event per lane per
pass, on species-major work rows allocated once per call: column k of
each row belongs to work row k.  :func:`direct_states` is the direct
method on one master-seeded vector stream, exact and deterministic but
with paths that depend on the batch size: running sums of the rates give
the total and the channel, one gather per species moves it, and each
pass draws a full-width row of exponentials, then one of uniforms, so
each lane keeps its own column.  :func:`pair_states` runs both legs of
coupled RTC pairs, each pass one turn of the RTC stepper's loop with its
float operations in its order, so each leg gets the stepper's bytes.

Both stop on the generated steppers' rule, defined here (``_RATE_LIMIT``
and :func:`_cap_limit`), and share four rules on the work rows:

* record (:func:`_record`): each grid time from a lane's next one to
  record up to, not at, its pending event gets its pre-event state,
  found by ``searchsorted`` on the lanes that pass one, in blocks of
  ``_RECORD_BLOCK`` lanes;
* compact (:func:`_compact`): once at most half of the lanes fire, the
  work rows shrink to those that do, moved in order to the first
  columns; ``lane`` then maps work rows to lanes;
* cap schedule (:func:`_past_cap`): no norm is tested while the largest
  start norm plus events times the largest gain of one event is within
  the cap;
* overflow (:func:`_overflow`): a live lane (one whose time is finite)
  whose total intensity is not below ``_RATE_LIMIT``, NaN included,
  fails: ``direct_states`` raises, ``pair_states`` hands it to its
  stepper, which raises.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .model import _rates

_RATE_LIMIT = 1e300  # every sampler fails at a total intensity this high (or NaN)
_RECORD_BLOCK = 2**16  # lanes per recording block, so its index temporaries stay small
_FIRST_BLOCK = 257  # the most draws a stream's first block holds
_TAIL = 16  # legs few enough for the stepper to run faster than a pass


class SimulationError(RuntimeError):
    """Hard numerical failure (non-finite propensity, integrator failure)."""


def _max_gain(reactions) -> int:
    """The largest rise of the 1-norm in one event (0 when no event raises it)."""
    return max([0, *(-sum(rxn.nu) for rxn in reactions)])


def _cap_limit(reactions, top: int, state_cap: float = math.inf) -> int:
    """The state cap as an int, at least -1, for rows that stay exact up to ``top``.

    A norm passes it iff it passes ``state_cap`` or the largest norm from
    which no event lifts a count past ``top``.
    """
    cap = top - _max_gain(reactions)
    if state_cap < math.inf:
        cap = min(cap, math.floor(state_cap))
    return max(cap, -1)


def _increments(draws):
    """Every RTC clock's increments: ``-log(1 - draw())`` for each ``draw`` that ``draws`` yields.

    Python floats and ``math.log``: ``np.log`` differs from libm on some inputs.
    """
    log = math.log
    for draw in draws:
        yield -log(1.0 - draw())


def _record(out, x, lane, gnext, tg, t_next, mask):
    """The record rule: lane l of L at grid time g goes to row ``g * L + l`` of ``out``.

    ``gnext`` is the grid with inf appended; ``mask`` is a scratch row.
    """
    np.greater(t_next, tg, out=mask)
    width = len(out) // (len(gnext) - 1)
    for a in range(0, len(mask), _RECORD_BLOCK):
        rec = np.flatnonzero(mask[a : a + _RECORD_BLOCK])
        if not rec.size:
            continue
        rec += a
        lo, hi = np.searchsorted(gnext, tg[rec]), np.searchsorted(gnext, t_next[rec])
        tg[rec] = gnext[hi]
        at = lo * width
        at += rec if lane is None else lane[rec]
        state = x[:, rec].T
        out[at] = state
        hi -= lo + 1  # the grid times each lane passes after its first
        for g in range(1, hi.max() + 1):  # a lane with fewer writes its last one again
            out[at + np.minimum(hi, g) * width] = state


def _compact(fire, n_fire, lane, moved, sized):
    """The compact rule: None while more than half fire, else ``(lane, views)``.

    The firing columns of ``moved`` move to the front; ``sized`` rows are
    scratch.  The views are of the first ``n_fire`` columns of both.
    """
    if 2 * n_fire > len(fire):
        return None
    for rows in moved:
        for row in np.atleast_2d(rows):
            row[:n_fire] = row[fire]
    lane = np.flatnonzero(fire) if lane is None else lane[fire]
    return lane, [rows[..., :n_fire] for rows in (*moved, *sized)]


def _past_cap(x, t, top, events, gain, cap, sums=None, out=None):
    """The live work rows whose norm passes ``cap``, or None while the schedule says none can."""
    if top + events * gain <= cap:
        return None
    past = np.greater(x.sum(axis=0, out=sums), cap, out=out)
    past &= t < math.inf
    return past


def _overflow(total, t):
    """The live work rows that overflow, or None when there are none."""
    if total.max(initial=0.0) < _RATE_LIMIT:
        return None
    bad = ~(total < _RATE_LIMIT) & (t < math.inf)
    return bad if bad.any() else None


def direct_states(net, start, grid, n, rng, cfg):
    """:func:`jkl.engine.batch_states` on ``rng`` from a checked ``start`` not past the cap."""
    reactions, dim, n_g, n_r = net.reactions, net.n_species, len(grid), net.n_reactions
    cap, gain, top = _cap_limit(reactions, 2**53, cfg.state_cap), _max_gain(reactions), sum(start)
    rates = _rates(reactions, dim, True)

    # species-major rows; column R of the decrement table is the zero step
    # of the lanes that do not fire
    x = np.repeat(np.array(start, dtype=float)[:, None], n, axis=1)
    nu = np.pad(net.stoichiometry.astype(float), ((0, 0), (0, 1)))
    t = np.zeros(n)  # inf once capped: the next pass records the rest of the grid
    t_new, draw = np.empty((2, n))
    tg = np.full(n, grid[0])  # the next grid time to record, inf once all are
    gnext = np.append(grid, np.inf)
    w = np.zeros((max(n_r, 1), n))  # a network with no channel has total 0
    sel = np.empty(n, dtype=np.min_scalar_type(n_r))
    below = np.empty((max(n_r - 1, 0), n), dtype=bool)
    fire, mask = np.empty((2, n), dtype=bool)  # mask: each step's own bool row in turn
    states = np.empty((n_g * n, dim))  # row g * n + i holds trajectory i at grid time g
    cap_time = np.full(n, np.inf)
    lane, m = None, n  # the work rows hold lanes ``lane``, all n while it is None
    # a lane fires on every pass until its grid is recorded, so the pass
    # count is the event count of every lane that fires
    events = 0

    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            rates(w, *x)
            for j in range(1, n_r):  # c_j = c_{j-1} + w_j, in place
                np.add(w[j - 1], w[j], out=w[j])
            total = w[-1]
            if _overflow(total, t) is not None:
                raise SimulationError("propensity overflow in batch run")
            # the exponential (the bits of rng.exponential(size=n)), then the uniform
            rng.standard_exponential(out=draw)
            # mode "clip" gathers straight into ``out``; "raise" buffers it
            e = draw if lane is None else draw.take(lane, out=t_new, mode="clip")
            # t_new = t + (e / total where total > 0, else inf)
            np.greater(total, 0.0, out=mask)
            np.divide(e, total, out=t_new, where=mask)
            np.copyto(t_new, np.inf, where=np.logical_not(mask, out=mask))
            np.add(t, t_new, out=t_new)
            rng.random(out=draw)

            _record(states, x, lane, gnext, tg, t_new, mask)
            # the rest fire: a pending event past t_end flushed the whole grid
            np.less(tg, np.inf, out=fire)
            n_fire = np.count_nonzero(fire)
            if not n_fire:
                break
            # t is free until the swap below: it gathers the uniforms
            shrunk = _compact(fire, n_fire, lane, (x, w, t_new, tg), (t, below, sel, mask, fire))
            if shrunk:
                lane, (x, w, t_new, tg, t, below, sel, mask, fire) = shrunk
                m, total = n_fire, w[-1]
                fire.fill(True)
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
            else:
                capped = _past_cap(x, t, top, events, gain, cap, step, mask)
                if capped is None:
                    continue
            if capped.any():
                cap_time[capped if lane is None else lane[capped]] = t[capped]
                t[capped] = np.inf
    return states.reshape(n_g, n, dim), cap_time


def _block_size(lam: float, most: int) -> int:
    """A block's draws: ``1 + lam + 2 sqrt(lam)`` for ``lam`` points expected, at most ``most``."""
    if not lam < most:  # NaN and inf too
        return most
    return min(1 + math.ceil(lam + 2.0 * math.sqrt(lam)), most)


def pair_states(nets, starts, streams, grid, cfg, steppers):
    """Grid rows and cap times of S coupled pairs, every leg in lockstep.

    ``nets`` and ``starts`` are the nominal and perturbed networks (the
    same stoichiometry) and start states; ``streams[i][r]``, a
    zero-argument callable returning uniforms, is the clock stream of
    channel r of pair i, which both legs read.  ``cfg`` gives the run's
    controls and ``steppers`` are the legs' grid-mode RTC steppers.
    Returns ``(rows, caps)``: the (S, 2, G, D) grid rows as floats, x leg
    first, and each pair's ``min(cap_x, cap_y)``.

    Lane l runs leg ``l // S`` of pair ``l % S`` on int64 state rows and
    rows of next clock points ``p`` and integrated intensities ``s``; a
    lane that stops fires the idle clock row R.  Once at most
    ``_TAIL`` legs still fire and they have run twice the passes they had
    when they became that few, each is run again from its start by its
    stepper, on its streams replayed from the store; so is each leg that
    overflows, and the stepper raises.  Legs run again go pair after
    pair, x leg first, so the first error is the one the steppers raise.

    Draws: both legs read each stream's increments by position from one
    store, in blocks: a first one sized by :func:`_block_size` from the
    legs' start rates, then one whenever a leg reads past the last, sized
    from its rate and time left; each at most the stream's draws so far
    or ``_FIRST_BLOCK``.  So the store holds at most twice the draws the
    pairs take plus ``_FIRST_BLOCK`` per stream, in an array at most 1.5
    times that, and each stream's Mersenne Twister state (about 2.9 KB)
    stays alive: 3.7 MB for 256 pairs of a 5-channel network.
    """
    reactions, dim = nets[0].reactions, nets[0].n_species
    n_r, n_s, n_g = len(reactions), len(streams), len(grid)
    cap, gain = _cap_limit(reactions, 2**63 - 1, cfg.state_cap), _max_gain(reactions)
    streams = [draw for pair in streams for draw in pair]  # stream i * R + r
    width, n_c = 2 * n_s, max(n_r, 1)  # a network with no channel gets one idle clock
    rates = [_rates(net.reactions, dim, False) for net in nets]
    norms = [sum(start) for start in starts]
    top = max([0, *(norm for norm in norms if norm <= cap)])

    w = np.zeros((n_c, width))
    for leg in (0, 1):
        rates[leg](w[:, leg], *starts[leg])
    with np.errstate(over="ignore", invalid="ignore"):
        lam = (cfg.t_end * w[:n_r, :2].max(axis=1)).tolist()
    filled = [_block_size(v, _FIRST_BLOCK) for v in lam] * n_s  # draws per stream
    bounds = list(itertools.accumulate(filled, initial=0))
    first = itertools.chain.from_iterable(map(itertools.repeat, streams, filled))
    store = np.fromiter(_increments(first), float, bounds[-1])
    used = bounds[-1]
    later = {}  # the blocks each stream drew after its first
    seg = [[0] * width for _ in range(n_r)]  # each lane's block of each stream

    def draw_block(q, size):
        """Append stream q's next ``size`` increments to the store as its next block."""
        nonlocal store, used
        if used + size > len(store):
            store = np.concatenate([store[:used], np.empty(max(used // 2, size))])
        block = _increments(itertools.repeat(streams[q], size))
        store[used : used + size] = np.fromiter(block, float, size)
        filled[q] += size
        later.setdefault(q, []).append((used, used + size))
        used += size

    def replay(q):
        """Stream q's increments from its first, drawing blocks when they run out."""
        a, b = bounds[q], bounds[q + 1]
        for j in itertools.count():
            yield from store[a:b].tolist()
            if j == len(later.get(q, ())):
                draw_block(q, max(filled[q], _FIRST_BLOCK))
            a, b = later[q][j]

    # clock rows; row n_c is the idle row that stopped lanes fire
    p, s = np.zeros((2, n_c + 1, width))
    pos = np.zeros((n_c + 1, width), dtype=np.int64)  # each clock's next draw in the store
    end = np.full((n_c + 1, width), 2**62)  # and the end of its block
    if n_r:  # stream q's first block is bounds[q]:bounds[q + 1]
        q = np.tile(np.arange(n_s) * n_r, 2) + np.arange(n_r)[:, None]
        head = np.array(bounds)
        p[:n_r] = store[head[q]]
        pos[:n_r] = head[q] + 1
        end[:n_r] = head[q + 1]
    flat_p, flat_s, flat_pos, flat_end = (a.reshape(-1) for a in (p, s, pos, end))
    steps = np.pad(nets[0].stoichiometry, ((0, 0), (0, n_c + 1 - n_r)))
    x = np.repeat(np.array(starts, dtype=np.int64).T, n_s, axis=1)
    t = np.zeros(width)  # inf once stopped
    t_next = np.empty(width)
    tg = np.full(width, grid[0])  # the next grid time to record, inf once all are
    gnext = np.append(grid, math.inf)
    dt = np.empty((n_c, width))
    flat_dt = dt.reshape(-1)
    runs, below = np.empty((2, n_c, width), dtype=bool)
    total = np.empty(width)
    fire, mask = np.empty((2, width), dtype=bool)
    cols = np.arange(width)
    idle = n_c * width + cols  # the flat indices of the idle row
    out = np.empty((n_g * width, dim), dtype=np.int64)  # row g * width + l: lane l at grid time g
    cap_time = np.full(width, math.inf)
    lane, m, mx = None, width, n_s  # the work rows hold lanes ``lane``, x legs in the first mx
    tail = 0  # the pass count when at most _TAIL legs first fired
    rerun = []  # the legs the steppers run again: those that overflow, then the tail
    # every lane that fires does so on every pass, so the pass count is its event count
    events = 0

    with np.errstate(all="ignore"):
        while True:
            # the stepper's loop head: the caps, then the rates
            if events >= cfg.max_events:
                stop = t < math.inf
            elif not events:
                stop = np.repeat([norm > cap for norm in norms], n_s)
            else:
                stop = _past_cap(x, t, top, events, gain, cap)
            if stop is not None:  # a stopped lane's pending event is at inf
                cap_time[stop if lane is None else lane[stop]] = t[stop]
                t[stop] = math.inf
            rates[0](w[:, :mx], *x[:, :mx])
            rates[1](w[:, mx:], *x[:, mx:])
            np.add(w[0], 0.0, out=total)  # 0.0 + w0 + w1 + ..., in index order
            for j in range(1, n_c):
                np.add(total, w[j], out=total)
            bad = _overflow(total, t)
            if bad is not None:
                rerun += (np.flatnonzero(bad) if lane is None else lane[bad]).tolist()
                t[bad] = math.inf

            # the smallest time to a clock point wins, the first of equals:
            # the lowest index.  A total of 0 leaves every time inf
            np.greater(w, 0.0, out=runs)
            np.subtract(p[:n_c], s[:n_c], out=dt)
            np.divide(dt, w, out=dt, where=runs)
            np.copyto(dt, math.inf, where=np.logical_not(runs, out=below))
            fired = dt.argmin(axis=0)
            flat = fired * width
            flat += cols
            best = flat_dt.take(flat)
            np.add(t, best, out=t_next)

            _record(out, x, lane, gnext, tg, t_next, mask)
            np.less_equal(t_next, cfg.t_end, out=fire)
            n_fire = np.count_nonzero(fire)
            if not n_fire:
                break
            if n_fire < m:  # the rest stop here and fire the idle row from now on
                np.logical_not(fire, out=mask)
                np.copyto(t_next, math.inf, where=mask)
                np.copyto(fired, n_c, where=mask)
                np.copyto(flat, idle, where=mask)
            # every running clock advances, clamped at its point; the fired
            # one is then set to its point and adds its next increment
            np.multiply(w, best, out=dt)
            dt += s[:n_c]
            np.less(dt, p[:n_c], out=below)  # adv if adv < p else p, as the stepper has it
            np.copyto(dt, p[:n_c], where=np.logical_not(below, out=below))
            np.copyto(s[:n_c], dt, where=runs)
            point = flat_p.take(flat)
            flat_s.put(flat, point)
            at = flat_pos.take(flat)
            if not (at < flat_end.take(flat)).all():
                for k in np.flatnonzero(at >= flat_end.take(flat)).tolist():
                    r, leg = int(fired[k]), k if lane is None else int(lane[k])
                    q = leg % n_s * n_r + r
                    seg[r][leg] += 1
                    if seg[r][leg] > len(later.get(q, ())):  # this leg leads: draw on
                        lam = float(w[r, k]) * (cfg.t_end - float(t_next[k]))
                        draw_block(q, _block_size(lam, max(filled[q], _FIRST_BLOCK)))
                    flat_pos[r * width + k], flat_end[r * width + k] = later[q][seg[r][leg] - 1]
                    at[k] = flat_pos[r * width + k]
            # the idle row's reads are clipped
            point += store.take(at, mode="clip")
            flat_p.put(flat, point)
            at += 1
            flat_pos.put(flat, at)
            x -= steps.take(fired, axis=1)
            t, t_next = t_next, t
            events += 1

            if n_fire <= _TAIL:
                tail = tail or events
                if events >= 2 * tail:
                    rerun += (np.flatnonzero(fire) if lane is None else lane[fire]).tolist()
                    break
            shrunk = _compact(
                fire, n_fire, lane, (x, p, s, pos, end, t, tg),
                (w, dt, runs, below, t_next, total, fire, mask, cols, idle),
            )
            if shrunk:
                lane, (x, p, s, pos, end, t, tg, w, dt, runs, below, t_next, total, fire, mask,
                       cols, idle) = shrunk
                m, mx = n_fire, int(np.searchsorted(lane, n_s))
    run = (cfg.t_end, cfg.max_events, cfg.state_cap, grid.tolist())
    for leg in sorted(rerun, key=lambda leg: (leg % n_s, leg // n_s)):
        clocks = [replay(leg % n_s * n_r + r).__next__ for r in range(n_r)]
        leg_rows, cap_time[leg], _ = steppers[leg // n_s](starts[leg // n_s], clocks, *run)
        out[leg::width] = leg_rows
    rows = out.reshape(n_g, 2, n_s, dim).transpose(2, 1, 0, 3)
    return np.ascontiguousarray(rows, dtype=float), np.minimum(cap_time[:n_s], cap_time[n_s:])
