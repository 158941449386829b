"""Brute-force oracle: truncated master equation on an enumerated state set.

The truncation is absorbing: any transition that would leave the
enumerated set routes its probability into an explicit defect channel,
so ``retained mass + defect == 1`` holds exactly.  Oracle moments are
lower values; ``value + defect * max f`` is not an upper bound, since
the escaped mass lies outside the index (``0 -> A @ 10``, caps 5, t=2:
5.0 against E[A] = 20).  This mirrors the stopping-time localization
used by the simulator's state cap.

Integration uses uniformization on every horizon: exact up to a
truncated Poisson tail, at a cost of about ``max |diagonal| * horizon``
Poisson terms.  Retained entries of a Poisson term that fall below
``np.finfo(float).tiny`` are flushed into the defect, which keeps the
products off the slow subnormal path.  The uniformized matrix is
entrywise non-negative, so the flush only lowers retained values and
raises the defect; each flush moves at most ``n * tiny`` of mass.  Each
term multiplies only the rows its nonzero prefix in breadth-first order
can reach, plus the defect row, so a term costs the part of the
generator its support touches, with the bytes of the full product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .engine import _check_grid, _check_state, _counts
from .model import ReactionNetwork, _check_network, _rates

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "CmeError",
    "StateIndex",
    "GeneratorMatrix",
    "CmeSolution",
    "enumerate_states",
    "build_generator",
    "integrate_cme",
    "cme_moments",
    "point_mass",
]

DEFAULT_MAX_STATES = 2 * 10**6
DEFECT_THRESHOLD = 0.05  # CmeSolution.unreliable once the defect exceeds this
_TINY = np.finfo(float).tiny  # smallest normal double; terms below it go to the defect


class CmeError(RuntimeError):
    pass


@dataclass(frozen=True)
class StateIndex:
    """Bijection between truncated lattice states and dense indices, with their transitions."""

    states: np.ndarray  # (n, D) int64
    lookup: dict
    caps: np.ndarray  # per-species caps (int64)
    rates: np.ndarray  # (n, R) channel rates at each state
    targets: np.ndarray  # (n, R) int64 target indices; n (defect) for rate 0 or off the caps
    reactions: tuple  # the net.reactions the index was enumerated for

    @property
    def n_states(self) -> int:
        return len(self.states)

    def index_of(self, state: Sequence[int]) -> int:
        """Dense index of ``state``.

        Raises:
            ValueError: for a fractional, non-finite or non-int64 entry.
            KeyError: if the state is not in the truncated set.
        """
        key = tuple(_counts(state, "state"))
        if key not in self.lookup:
            raise KeyError(f"state {key} is not in the truncated set")
        return self.lookup[key]

    def to_text(self) -> str:
        """Two-column debug dump: index and state tuple."""
        lines = [f"{i}\t{tuple(int(v) for v in s)}" for i, s in enumerate(self.states)]
        return "\n".join(lines) + "\n"


def _successors(net: ReactionNetwork, states: np.ndarray, caps: np.ndarray):
    """Propensities w (n, R), targets nxt = x - nu_r (n, R, D) and the in-caps mask.

    The network's rate evaluator runs on the species-major int64 rows
    ``states.T``, so every entry of w is the float expression that
    :func:`~jkl.model.propensity_eval` computes at that state.
    """
    w = np.empty((len(states), net.n_reactions))
    _rates(net.reactions, net.n_species, False)(w.T, *states.T)
    nxt = states[:, None, :] - net.stoichiometry.T[None]
    inside = ((nxt >= 0) & (nxt <= caps)).all(axis=2)
    return w, nxt, inside


def enumerate_states(
    net: ReactionNetwork,
    x0: Sequence[int],
    caps: int | Sequence[int],
    max_states: int = DEFAULT_MAX_STATES,
) -> StateIndex:
    """Breadth-first reachable set from x0 within per-species caps.

    Exploring only reachable states keeps closed systems on their
    conservation slice automatically.  Each state's rates and targets are kept.
    """
    _check_network(net)
    dim = net.n_species
    if np.shape(caps) not in ((), (dim,)):
        raise ValueError("caps must be a scalar or one per species")
    counts = _counts(np.ravel(caps).tolist(), "caps")  # fractional caps raise, never truncate
    caps_arr = np.array(counts * dim if np.ndim(caps) == 0 else counts, dtype=np.int64)
    start = tuple(_check_state(x0, dim))
    if (np.array(start) > caps_arr).any():
        raise ValueError("initial state must lie within the caps")

    lookup = {start: 0}
    frontier = np.array([start], dtype=np.int64)
    blocks = []  # each frontier's (rates, targets); -1 marks the defect row until n is known
    while len(frontier):
        w, nxt, inside = _successors(net, frontier, caps_arr)
        # targets outside the caps are not explored: they become defect flow
        moves = (w > 0) & inside
        keys = list(map(tuple, nxt[moves].tolist()))
        fresh = [key for key in dict.fromkeys(keys) if key not in lookup]
        lookup.update(zip(fresh, range(len(lookup), len(lookup) + len(fresh))))
        if len(lookup) > max_states:
            raise CmeError(f"state set exceeds {max_states} states; tighten the caps")
        targets = np.full(w.shape, -1, dtype=np.int64)
        targets[moves] = list(map(lookup.__getitem__, keys))
        blocks.append((w, targets))
        frontier = np.array(fresh, dtype=np.int64).reshape(-1, dim)
    rates, targets = map(np.concatenate, zip(*blocks))
    targets[targets < 0] = len(lookup)
    states = np.array(list(lookup), dtype=np.int64)
    return StateIndex(states, lookup, caps_arr, rates, targets, net.reactions)


@dataclass(frozen=True)
class GeneratorMatrix:
    """Column generator Q (p' = Q p) with an explicit defect row.

    ``q`` is (n+1) x (n+1): entry (i, j) is the rate from state j into
    state i; the last row is the absorbing defect channel collecting
    outflow across the truncation boundary.  Every column sums to zero,
    so total probability (retained + defect) is conserved exactly; the
    column sums over the interior rows alone are <= 0, with equality iff
    no outflow from that state crosses the boundary.
    """

    q: scipy.sparse.csr_matrix
    index: StateIndex
    lam: float  # max total outflow rate, the uniformization constant

    @property
    def n_states(self) -> int:
        return self.index.n_states


def build_generator(net: ReactionNetwork, idx: StateIndex) -> GeneratorMatrix:
    """Q from the rates and targets in ``idx``; ValueError for another network's index."""
    import scipy.sparse

    _check_network(net)
    if net.reactions != idx.reactions:
        raise ValueError("the state index was enumerated for another network")
    n = idx.n_states
    w = idx.rates
    total = w.sum(axis=1)
    # (n, 1+R) triplets in C order: each state's diagonal, then its channels
    # in index order; tocsr sums any duplicates in this order
    rows = np.column_stack([np.arange(n), idx.targets])
    cols = np.broadcast_to(np.arange(n)[:, None], rows.shape)
    vals = np.column_stack([-total, w])
    keep = np.column_stack([total > 0, w > 0])
    q = scipy.sparse.coo_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(n + 1, n + 1)
    ).tocsr()
    return GeneratorMatrix(q=q, index=idx, lam=float(total.max(initial=0.0)))


@dataclass(frozen=True)
class CmeSolution:
    """Probability vectors on a time grid plus the defect channel.

    ``defect`` includes the ``flushed`` mass: sub-``tiny`` Poisson-term
    entries moved off the retained states (see :func:`integrate_cme`).
    """

    times: np.ndarray
    probs: np.ndarray  # (G, n) retained probabilities
    defect: np.ndarray  # (G,)
    unreliable: bool  # defect exceeded DEFECT_THRESHOLD
    matvecs: int  # Poisson terms taken, one sparse matrix-vector product each
    flushed: float  # sub-tiny probability moved into the defect, at most matvecs * n * tiny
    row_products: int  # rows computed over all terms; / (matvecs * (n + 1)) is the share touched

    def total_mass(self) -> np.ndarray:
        return self.probs.sum(axis=1) + self.defect


def point_mass(idx: StateIndex, state: Sequence[int]) -> np.ndarray:
    p0 = np.zeros(idx.n_states)
    p0[idx.index_of(state)] = 1.0
    return p0


def _reach(p_op) -> list:
    """``reach[h]``: 1 + the largest retained row that any column ``< h`` feeds.

    A vector whose retained entries vanish from index ``h`` on has a
    product with ``p_op`` whose retained entries vanish from
    ``reach[h]`` on.  Computed in O(nnz) from the CSR arrays.
    """
    n = p_op.shape[0] - 1
    rows = np.repeat(np.arange(n + 1), np.diff(p_op.indptr))
    retained = rows < n
    fed = np.full(n, -1)
    np.maximum.at(fed, p_op.indices[retained], rows[retained])
    return [0, *(np.maximum.accumulate(fed) + 1).tolist()]


def _uniformization_step(p, p_op, reach, a, tol, matvec):
    """exp(a (P - I)) p via the truncated Poisson series, a = lam * dt.

    Each term multiplies only the retained rows ``[0, reach[hi])`` its
    nonzero prefix ``[0, hi)`` can feed, plus the defect row; ``matvec``
    is scipy's CSR kernel, which adds each row's products in storage
    order onto the output slot.  Every other row of the full product is
    a sum of exact ``+0.0`` products, so the bytes equal those of
    ``p_op @ term``.  Returns the result, the number of terms taken, the
    flushed mass that the result's defect entry carries (see
    :func:`integrate_cme`) and the number of rows computed.
    """
    n = len(p) - 1
    indptr, indices, data = p_op.indptr, p_op.indices, p_op.data
    result = p * np.exp(-a)
    term, out = p.copy(), np.zeros_like(p)
    hi = (p[:n] != 0.0).tobytes().rfind(1) + 1  # term[hi:n] == 0
    stale = 0  # out[stale:n] == 0
    weight = np.exp(-a)
    acc = weight
    k = rows = 0
    in_term = flushed = 0.0
    # the tail after k terms is 1 - acc; stop once it is below tol
    while acc < 1.0 - tol:
        k += 1
        r = reach[hi]
        out[: max(r, stale)] = 0.0
        out[n] = 0.0
        matvec(r, n + 1, indptr, indices, data, term, out)
        matvec(1, n + 1, indptr[n:], indices, data, term, out[n:])
        term, out, stale = out, term, hi
        rows += r + 1
        kept = term[:r]
        big = kept >= _TINY
        low = (kept > 0.0) ^ big  # exact zeros need no flush
        if np.count_nonzero(low):
            moved = kept[low].sum()
            kept[low] = 0.0
            term[n] += moved
            in_term += moved
        hi = big.tobytes().rfind(1) + 1  # a bool is one byte: 1 past the last kept entry
        weight *= a / k
        result[:r] += weight * kept
        result[n] += weight * term[n]
        flushed += weight * in_term  # the defect row keeps what earlier terms flushed
        acc += weight
        if k > 10 * a + 1000:
            raise CmeError(f"uniformization cannot reach tolerance {tol:.3g}; loosen tol")
    return result, k, flushed, rows


def integrate_cme(
    gen: GeneratorMatrix,
    p0: np.ndarray,
    grid: Sequence[float],
    tol: float = 1e-10,
) -> CmeSolution:
    """Integrate p' = Q p on the grid by uniformization.

    ``p0`` is the probability vector on the state index at time zero;
    grid times are absolute (non-negative, increasing).  Each interval
    is split into Poisson series of mean at most 500, so the cost is
    about ``lam * horizon`` Poisson terms on any horizon, each a product
    over the rows its support reaches (``row_products`` counts them).
    ``retained + defect = 1`` holds to within ``tol``.

    After each product, retained entries below ``np.finfo(float).tiny``
    are set to zero and their sum is added to the defect entry.  Since
    ``P = I + Q / lam`` is entrywise non-negative, retained values stay
    lower values and the defect stays an upper value for the mass off the
    retained states; each flush moves at most ``n * tiny`` of mass, far
    below ``tol``.

    Raises:
        ValueError: if the grid is not a finite, non-negative, increasing
            axis, ``tol`` is not in (0, 1), or ``p0`` is not a probability
            vector on the index.
        CmeError: if a Poisson series cannot reach its share of ``tol``.
    """
    import scipy.sparse
    from scipy.sparse._sparsetools import csr_matvec  # the kernel behind csr_matrix @ v

    grid = _check_grid(grid)
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol!r}")
    n = gen.n_states
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (n,):
        raise ValueError(f"p0 must have length {n}")
    if not np.isfinite(p0).all() or abs(p0.sum() - 1.0) > 1e-9 or (p0 < 0).any():
        raise ValueError("p0 must be a finite probability vector")

    out = np.empty((len(grid), n))
    defect = np.empty(len(grid))
    p = np.concatenate([p0, [0.0]])
    matvecs, flushed, row_products = 0, 0.0, 0

    ident = scipy.sparse.identity(n + 1, format="csr")
    p_op = (ident + gen.q / gen.lam).tocsr() if gen.lam > 0 else ident
    reach = _reach(p_op)
    t_prev = 0.0
    for g, t in enumerate(grid):
        dt = float(t) - t_prev
        if dt > 0 and gen.lam > 0:
            # keep each Poisson series within floating-point range
            n_sub = max(1, int(np.ceil(gen.lam * dt / 500.0)))
            a = gen.lam * dt / n_sub
            step_tol = tol / max(1, len(grid)) / n_sub
            for _ in range(n_sub):
                p, k, moved, rows = _uniformization_step(p, p_op, reach, a, step_tol, csr_matvec)
                matvecs += k
                flushed += moved
                row_products += rows
        t_prev = float(t)
        out[g] = p[:n]
        defect[g] = p[n]

    return CmeSolution(
        times=grid,
        probs=out,
        defect=defect,
        unreliable=bool(defect.max() > DEFECT_THRESHOLD),
        matvecs=matvecs,
        flushed=float(flushed),
        row_products=row_products,
    )


@dataclass(frozen=True)
class CmeMoments:
    """Moments of |X|_1 with defect-weighted ends, plus per-species statistics."""

    moments: np.ndarray  # (p_max,) lower values (retained mass only)
    upper: np.ndarray  # (p_max,) value + defect * max f over the index; not an upper bound
    species_mean: np.ndarray
    species_var: np.ndarray
    defect: float


def cme_moments(dist: np.ndarray, idx: StateIndex, p_max: int, defect: float = 0.0) -> CmeMoments:
    """Moments Sum_x p(x) f(x) of one distribution on the index.

    The retained-mass sum is a lower value; ``upper`` adds
    ``defect * max f`` over the truncated set, which is not an upper
    bound (see :class:`CmeMoments`).

    Raises:
        ValueError: for ``p_max < 1``.
    """
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {p_max!r}")
    dist = np.asarray(dist, dtype=float)
    states = idx.states.astype(float)
    norms = states.sum(axis=1)
    moments = np.array([float(dist @ norms**p) for p in range(1, p_max + 1)])
    upper = moments + defect * np.array(
        [float((norms**p).max()) if len(norms) else 0.0 for p in range(1, p_max + 1)]
    )
    mean = dist @ states
    var = dist @ states**2 - mean**2
    return CmeMoments(
        moments=moments,
        upper=upper,
        species_mean=mean,
        species_var=np.maximum(var, 0.0),
        defect=float(defect),
    )
