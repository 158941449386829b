"""Coupled pairs in numpy lockstep: the random-time-change kernel of ``coupled_rms``.

:func:`pair_states` runs both legs of every pair of an ensemble chunk at
once and returns the bytes the grid-mode RTC stepper of
:mod:`jkl.engine` returns on each leg: each pass is one turn of the
stepper's loop on every lane, with the same float operations in the same
order, the same stop rule and the same record rule.  It reads the
channel streams it is given and knows nothing of how they were seeded.

The unit-exponential increments ``-log(1 - u)`` of the streams it is
given are computed with ``math.log`` on Python floats, as
``jkl.engine._increments`` computes them, never with ``np.log``, whose
results differ from libm's on some inputs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .model import _rates

_FIRST_BLOCK = 257  # the most draws a stream's first block holds
_TAIL = 16  # legs few enough for the stepper to run faster than a pass


def _block_size(lam: float, most: int) -> int:
    """Draws for the next block of a stream: 1 + ``lam + 2 sqrt(lam)``, at most ``most``.

    ``lam`` is the number of clock points a leg expects before t_end at
    its current rate: the block covers them with two standard deviations
    to spare.
    """
    if not lam < most:  # NaN and inf too
        return most
    return min(1 + math.ceil(lam + 2.0 * math.sqrt(lam)), most)


def _increments(draws, counts):
    """The next ``count`` increments ``-log(1 - u)`` of each stream ``draw``, in turn."""
    log = math.log
    for draw, count in zip(draws, counts):
        for _ in range(count):
            yield -log(1.0 - draw())


def pair_states(nets, starts, streams, grid, cfg, cap, gain, rate_limit, steppers):
    """Grid rows and cap times of S coupled pairs, every leg in lockstep.

    ``nets`` and ``starts`` are the nominal and perturbed networks (the
    same stoichiometry) and start states; ``streams[i][r]``, a
    zero-argument callable returning uniforms, is the clock stream of
    channel r of pair i, which both legs of the pair read.  ``cfg``
    gives ``t_end`` and ``max_events``; ``cap`` is the state cap as an
    int (a norm above it stops a leg), ``gain`` the largest rise of the
    norm in one event and ``rate_limit`` the total intensity at which a
    leg fails.  ``steppers`` are the two legs' grid-mode RTC steppers,
    whose clocks return increments.

    Returns ``(rows, caps)``: the (S, 2, G, D) grid rows as floats, x leg
    before y leg, and each pair's ``min(cap_x, cap_y)``.  A leg whose
    total intensity reaches ``rate_limit`` stops and is run again by its
    stepper, which raises the error; legs run again go pair after pair,
    x leg first, so the first error is the one a run of the stepper on
    every leg in that order raises.

    Lane l runs leg ``l // S`` of pair ``l % S``: species-major int64
    state rows and (R, 2S) rows of next clock points ``p`` and integrated
    intensities ``s``.  A lane that stops fires the idle clock row R from
    then on, and once at most half of the lanes fire, the rows shrink to
    those that do, x legs still first.  A pass costs about as much for a
    few legs as for all, so once at most ``_TAIL`` legs still fire and
    they have run twice as many passes as they had when they became that
    few, each is run again from its start by its stepper, pair after
    pair, on its stream's increments replayed from the store.

    Draws: each stream's increments go into one store, in stream order,
    which both legs read by position.  A stream draws a first block sized
    by :func:`_block_size` from the legs' start rates (at most
    ``_FIRST_BLOCK``), and its next block when a leg reads past the last
    one, sized from that leg's rate and time left (at most the stream's
    draws so far, or ``_FIRST_BLOCK``).  So the store holds at most twice
    the draws the pairs take plus ``_FIRST_BLOCK`` per stream, in an
    array at most 1.5 times that.  The streams stay alive until the
    pairs are done, each with its Mersenne Twister state (about 2.9 KB
    as a ``random.Random``): 3.7 MB for 256 pairs of a 5-channel network.
    """
    reactions, dim = nets[0].reactions, nets[0].n_species
    n_r, n_s, n_g = len(reactions), len(streams), len(grid)
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
    store = np.fromiter(_increments(streams, filled), float, bounds[-1])
    used = bounds[-1]
    later = {}  # the blocks each stream drew after its first
    seg = [[0] * width for _ in range(n_r)]  # each lane's block of each stream

    def draw_block(q, size):
        """Append stream q's next ``size`` increments to the store as its next block."""
        nonlocal store, used
        if used + size > len(store):
            store = np.concatenate([store[:used], np.empty(max(used // 2, size))])
        store[used : used + size] = np.fromiter(_increments([streams[q]], [size]), float, size)
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
    p = np.zeros((n_c + 1, width))
    s = np.zeros((n_c + 1, width))
    pos = np.zeros((n_c + 1, width), dtype=np.int64)  # each clock's next draw in the store
    end = np.full((n_c + 1, width), 2**62)  # and the end of its block
    if n_r:  # stream q's first block is bounds[q]:bounds[q + 1]
        q = np.tile(np.arange(n_s) * n_r, 2) + np.arange(n_r)[:, None]
        head = np.array(bounds)
        p[:n_r] = store[head[q]]
        pos[:n_r] = head[q] + 1
        end[:n_r] = head[q + 1]
    flat_p, flat_s, flat_pos, flat_end = (a.reshape(-1) for a in (p, s, pos, end))
    steps = np.zeros((dim, n_c + 1), dtype=np.int64)
    steps[:, :n_r] = nets[0].stoichiometry
    x = np.repeat(np.array(starts, dtype=np.int64).T, n_s, axis=1)
    t = np.zeros(width)  # inf once stopped
    t_next = np.empty(width)
    tg = np.full(width, grid[0])  # the next grid time to record, inf once all are
    gnext = np.append(grid, math.inf)
    dt = np.empty((n_c, width))
    flat_dt = dt.reshape(-1)
    runs = np.empty((n_c, width), dtype=bool)
    below = np.empty((n_c, width), dtype=bool)
    total = np.empty(width)
    fire = np.empty(width, dtype=bool)
    mask = np.empty(width, dtype=bool)
    cols = np.arange(width)
    idle = n_c * width + cols  # the flat indices of the idle row
    out = np.empty((n_g, width, dim), dtype=np.int64)
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
            elif top + events * gain > cap:  # else no lane can be past it yet
                stop = (x.sum(axis=0) > cap) & (t < math.inf)
            else:
                stop = None
            if stop is not None:
                cap_time[stop if lane is None else lane[stop]] = t[stop]
            rates[0](w[:, :mx], *x[:, :mx])
            rates[1](w[:, mx:], *x[:, mx:])
            np.add(w[0], 0.0, out=total)  # 0.0 + w0 + w1 + ..., in index order
            for j in range(1, n_c):
                np.add(total, w[j], out=total)
            if not total.max(initial=0.0) < rate_limit:  # NaN fails it too
                bad = ~(total < rate_limit) & (t < math.inf)
                if stop is not None:
                    bad &= ~stop
                rerun += (np.flatnonzero(bad) if lane is None else lane[bad]).tolist()
                stop = bad if stop is None else stop | bad

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
            if stop is not None:
                np.copyto(t_next, math.inf, where=stop)

            # record the grid times strictly before the pending event, lo
            # to hi - 1 of each lane that passes one
            np.greater(t_next, tg, out=mask)
            rec = np.flatnonzero(mask)
            if rec.size:
                lo, hi = np.searchsorted(grid, tg[rec]), np.searchsorted(grid, t_next[rec])
                at, state = rec if lane is None else lane[rec], x[:, rec].T
                for g in range((hi - lo).max()):
                    more = lo + g < hi
                    out[lo[more] + g, at[more]] = state[more]
                tg[rec] = gnext[hi]

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
            if 2 * n_fire <= m:
                lane = np.flatnonzero(fire) if lane is None else lane[fire]
                mx = np.count_nonzero(fire[:mx])
                for row in (*x, *p, *s, *pos, *end, t, tg):
                    row[:n_fire] = row[fire]
                m = n_fire
                x, p, s, pos, end = x[:, :m], p[:, :m], s[:, :m], pos[:, :m], end[:, :m]
                w, dt, runs, below = w[:, :m], dt[:, :m], runs[:, :m], below[:, :m]
                t, t_next, tg, total = t[:m], t_next[:m], tg[:m], total[:m]
                fire, mask, cols, idle = fire[:m], mask[:m], cols[:m], idle[:m]
    run = (cfg.t_end, cfg.max_events, cfg.state_cap, grid.tolist())
    for leg in sorted(rerun, key=lambda leg: (leg % n_s, leg // n_s)):
        clocks = [replay(leg % n_s * n_r + r).__next__ for r in range(n_r)]
        leg_rows, cap_time[leg], _ = steppers[leg // n_s](starts[leg // n_s], clocks, *run)
        out[:, leg] = leg_rows
    rows = out.reshape(n_g, 2, n_s, dim).transpose(2, 1, 0, 3)
    caps = np.minimum(cap_time[:n_s], cap_time[n_s:])
    return np.ascontiguousarray(rows, dtype=float), caps
