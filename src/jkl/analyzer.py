"""Closed-form stability constants for mass-action networks.

For a network with drift ``F(x) = -N w(x)`` this module computes, from
stoichiometry alone, the constants of the four working inequalities that
the moment and perturbation bounds consume:

* drift pair ``(A, alpha)``:        (l, F(x)) <= A + alpha * |x|_l
* Lipschitz pair ``(L, lambda)``:   |w(x)-w(y)|_1 <= (L + lambda |x+y|_1) |x-y|
* growth pair ``(Gamma, gamma)``:   |w(x)|_1 <= Gamma + gamma |x|_1^2
* one-sided pair ``(M, mu)``:       (x-y, F(x)-F(y)) <= (M + mu |x+y|_1) |x-y|^2

The one-sided constants come from per-reaction rank-1 logarithmic-norm
formulas (exact for single reactions) together with a combined
logarithmic norm of the full linear part, whichever is smaller.  All
constants require propensities of at most quadratic growth; order-3
kinds are rejected.

The weight vector ``l`` generalizes the all-ones "outward" direction:
any strictly positive ``l`` with ``l . nu_r >= 0`` on every superlinear
column makes the quadratic terms non-expansive in the weighted norm.
With the normalization ``min(l) = 1`` the weighted norm dominates the
plain 1-norm, so constants stated against ``|.|_1`` stay valid.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .model import InvalidNetworkError, Reaction, ReactionNetwork, _check_network, drift_eval

__all__ = [
    "AnalyzerError",
    "CubicUnsupported",
    "QuadraticObstruction",
    "WeightVectorNotFound",
    "RateOverflow",
    "InvalidNetworkError",
    "log_norm",
    "log_norm_rank1",
    "find_weight_vector",
    "drift_constants",
    "one_sided_constants",
    "lipschitz_constants",
    "growth_constants",
    "ray_diagnostic",
    "analyze",
    "ReactionContribution",
    "StabilityReport",
]


class AnalyzerError(Exception):
    """Base class for stability-analysis failures."""


class CubicUnsupported(AnalyzerError):
    """An order-3 propensity was found.

    The analysis requires at-most-quadratic propensity growth (the
    growth pair ``|w(x)|_1 <= Gamma + gamma |x|_1^2``); cubic kinds are
    admitted for simulation only, where second moments can blow up in
    finite time.
    """

    def __init__(self, reaction: str):
        self.reaction = reaction
        super().__init__(
            f"reaction {reaction} has an order-3 propensity; the stability "
            "analysis requires at most quadratic growth of the propensities "
            "(finite growth pair (Gamma, gamma)); order-3 kinds are "
            "simulation-only"
        )


class QuadraticObstruction(AnalyzerError):
    """A quadratic reaction increases the weighted population norm."""

    def __init__(self, reaction: str, d: float):
        self.reaction = reaction
        super().__init__(
            f"quadratic reaction {reaction} increases the weighted norm "
            f"(l . nu = {-d:g} < 0), so its quadratic term cannot be "
            "discarded; try find_weight_vector for a better weight"
        )


class WeightVectorNotFound(AnalyzerError):
    """No strictly positive weight vector tames the superlinear columns."""

    def __init__(self, obstructions: list[str]):
        self.obstructions = obstructions
        names = ", ".join(obstructions) if obstructions else "(none identified)"
        super().__init__(
            "no strictly positive weight vector l satisfies l . nu_r >= 0 on "
            f"every superlinear column; obstructing reactions: {names}"
        )


class RateOverflow(AnalyzerError):
    """A rate so large that its reaction's constants, or their sums over the
    reactions up to it, are not finite floats."""

    def __init__(self, reaction: str, rate: float, summed: bool = False):
        self.reaction = reaction
        what = (
            "the sum of the constants over the reactions up to it"
            if summed
            else "a per-reaction term or the drift's linear part"
        )
        super().__init__(
            f"reaction {reaction} with rate {rate!r} overflows its stability "
            f"constants: {what} is not a finite float"
        )


def _raise_first_overflow(reactions: Sequence[Reaction], finite) -> None:
    """Raise RateOverflow at the first reaction after which the running sums
    stop being finite; ``finite(s)`` says whether the sums over the reactions
    ``reactions[s]`` are."""
    for r, rxn in enumerate(reactions):
        if not finite(slice(r + 1)):
            summed = finite(slice(r, r + 1))
            raise RateOverflow(rxn.label, rxn.propensity.rate, summed)


def log_norm(mtx: np.ndarray) -> float:
    """Euclidean logarithmic norm: top eigenvalue of the symmetric part.

    This is the smallest constant ``M`` with ``(v, B v) <= M |v|^2``.
    """
    mtx = np.asarray(mtx, dtype=float)
    if mtx.size == 0:
        return 0.0
    if not np.isfinite(mtx).all():
        raise ValueError("matrix entries must be finite")
    sym = mtx / 2.0 + mtx.T / 2.0  # halving first: no overflow in the sum
    return float(np.linalg.eigvalsh(sym)[-1])


def log_norm_rank1(a: Sequence[float], b: Sequence[float]) -> float:
    """Logarithmic norm of the rank-1 matrix ``a b^T`` in closed form.

    The symmetric part of ``a b^T`` has extreme eigenvalues
    ``((a, b) +- |a||b|) / 2`` plus zeros; the top one is the
    logarithmic norm.  In dimension one there is no zero eigenvalue and
    the value is just ``a b``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 1:
        return float(a[0] * b[0])
    return float((a @ b + np.linalg.norm(a) * np.linalg.norm(b)) / 2.0)


# ---------------------------------------------------------------------------
# per-reaction rows


@dataclass(frozen=True)
class ReactionContribution:
    """Per-reaction summands of the constant pairs (at the reaction's rate)."""

    label: str
    kind: str
    M: float = 0.0
    mu: float = 0.0
    L: float = 0.0
    lam: float = 0.0
    Gamma: float = 0.0
    gamma: float = 0.0


def _contribution(rxn: Reaction) -> ReactionContribution:
    """The summands a reaction adds to every constant pair but (A, alpha).

    They are fixed by the reaction's kind, rate and stoichiometric column:
    M and mu are the rank-1 logarithmic-norm terms, L and lambda the
    Lipschitz terms (|S| = k/2 for a bilinear term, k for a squared one,
    plus the dimer's linear correction in L), and Gamma and gamma the
    lattice growth terms (x_m x_n <= |x|_1^2 / 4, x_n (x_n - 1) <= |x|_1^2).

    Raises:
        CubicUnsupported: for an order-3 propensity.
    """
    prop = rxn.propensity
    kind, k = prop.kind, prop.rate
    species = [s for s, _ in prop.reactants]
    nu = rxn.nu
    # exact: a sum of integer squares, then one correctly rounded sqrt
    norm = math.sqrt(sum(v * v for v in nu))
    if kind == "constant":
        return ReactionContribution(rxn.label, kind, Gamma=k)
    if kind == "linear":
        m_r = float(k * (-nu[species[0]] + norm) / 2.0)
        return ReactionContribution(rxn.label, kind, M=m_r, L=k, gamma=k)
    if kind == "bilinear":
        mu_r = float(k * max(-nu[j] + norm for j in species) / 4.0)
        return ReactionContribution(rxn.label, kind, mu=mu_r, lam=k / 2.0, gamma=k / 4.0)
    if kind == "dimer":
        n = species[0]
        m_r = float(k * (nu[n] + norm) / 2.0)
        mu_r = float(k * (-nu[n] + norm) / 2.0)
        return ReactionContribution(rxn.label, kind, M=m_r, mu=mu_r, L=k, lam=k, gamma=k)
    raise CubicUnsupported(rxn.label)


# ---------------------------------------------------------------------------
# weight vector


def _min_norm_positive(n2t: np.ndarray) -> np.ndarray | None:
    """Smallest-norm l with l >= 1 and N2^T l = 0; None if infeasible."""
    l, success = _slsqp_min_norm(n2t)
    if not success:
        return None
    tol = 1e-8 * max(1.0, float(np.abs(n2t).max()) * float(l.max()))
    if not np.abs(n2t @ l).max() <= tol or l.min() < 1.0 - 1e-9:
        return None
    return l


def _slsqp_min_norm(n2t: np.ndarray) -> tuple[np.ndarray, bool]:
    """SLSQP from l = 1 on ``min l @ l`` with l >= 1 and N2^T l = 0: its x and
    success.

    This is the loop ``minimize(method="SLSQP", options={"maxiter": 200,
    "ftol": 1e-14})`` runs around SLSQP's core, with the same state, buffer
    sizes and bounds (``xl = 1``, ``xu = nan`` for none), the objective
    ``l @ l``, its gradient ``2 l`` and the constraints ``N2^T l`` with
    their Jacobian ``N2^T``, so x has minimize's bytes without its per-call
    wrapper.  The Jacobian is passed once: the core never writes it, so
    minimize's re-evaluation of a constant Jacobian changes no byte.
    """
    from scipy.optimize._slsqplib import slsqp

    m, n = n2t.shape
    acc = 1e-14
    state = {
        "acc": acc, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0,
        "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10.0 * acc,
        "exact": 0, "inconsistent": 0, "reset": 0, "iter": 0, "itermax": 200,
        "line": 0, "m": m, "meq": m, "mode": 0, "n": n,
    }
    # minimize's worst-case workspace for m equality rows (meq = m) and no
    # inequality rows
    buffer = np.zeros(
        n * (n + 1) // 2 + 3 * m * n - (m + 5 * n + 7) * m + 9 * m + 8 * n * n + 35 * n
        + m * m + 28 + 2 * n * (n + 1)
    )
    indices = np.zeros(m + 2 * n + 2, dtype=np.int32)
    mult = np.zeros(m + 2 * n + 2)
    x, xl, xu = np.ones(n), np.ones(n), np.full(n, np.nan)
    jac = np.asfortranarray(n2t)  # constant; SLSQP's core only reads it
    fx, g, d = x @ x, 2 * x, n2t @ x
    while True:
        slsqp(state, fx, g, jac, d, x, mult, xl, xu, buffer, indices)
        if state["mode"] == 1:  # objective and constraints at the new x
            fx, d = x @ x, n2t @ x
        elif state["mode"] == -1:  # gradient at the new x
            g = 2 * x
        else:
            return x, state["mode"] == 0


_solvers = threading.local()  # each thread's HiGHS solver, made on first use


def _highs_solver():
    """This thread's HiGHS solver, built once with the options
    ``linprog(method="highs")`` sets: presolve on, no debug checks, no log,
    dual simplex."""
    solver = getattr(_solvers, "solver", None)
    if solver is None:
        from scipy.optimize._highspy import _core as highs

        opts = highs.HighsOptions()
        opts.presolve = "on"
        opts.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
        opts.log_to_console = False
        opts.output_flag = False
        opts.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        solver = _solvers.solver = highs._Highs()
        solver.passOptions(opts)
    return solver


def _min_sum_weight(n2t: np.ndarray) -> np.ndarray | None:
    """Smallest-sum l with l >= 1 and N2^T l >= 0; None if not found.

    HiGHS's dual simplex solves the model ``linprog(c=1, A_ub=-N2^T, b_ub=0,
    bounds=(1, None), method="highs")`` builds, with its options, and the
    solution is accepted by linprog's own check at its tolerance
    ``10 sqrt(1e-9)``, so ``l`` has linprog's bytes.  The solver is this
    thread's, cleared before each model.
    """
    from scipy.optimize._highspy import _core as highs

    n_rows, dim = n2t.shape
    nonzero = n2t.T != 0  # CSC of -N2^T: nonzeros column by column
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = dim
    lp.num_row_ = lp.a_matrix_.num_row_ = n_rows
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate(([0], np.cumsum(nonzero.sum(axis=1)))).astype(np.int32)
    lp.a_matrix_.index_ = np.nonzero(nonzero)[1].astype(np.int32)
    lp.a_matrix_.value_ = -n2t.T[nonzero]
    lp.col_cost_ = np.ones(dim)
    lp.col_lower_ = np.ones(dim)
    lp.col_upper_ = np.full(dim, highs.kHighsInf)
    lp.row_lower_ = np.full(n_rows, -highs.kHighsInf)
    lp.row_upper_ = np.zeros(n_rows)
    solver = _highs_solver()
    solver.clearSolver()
    solver.passModel(lp)
    solver.run()
    if solver.getModelStatus() != highs.HighsModelStatus.kOptimal:
        return None
    solution = solver.getSolution()
    l = np.array(solution.col_value)
    slack = -np.array(solution.row_value)
    # NaN fails both comparisons, as in linprog's check
    tol = 10.0 * math.sqrt(1e-9)
    if (l >= 1.0 - tol).all() and (slack >= -tol).all():
        return l
    return None


def _snap_rational(l: np.ndarray, n2_cols: list[tuple[int, ...]], equality: bool) -> np.ndarray:
    """``l`` scaled to ``min(l) = 1``: as nearby exact rationals if they keep
    every ``l . nu_r`` zero (``equality``) or non-negative, else as floats.

    The rationals are integer numerators over one common denominator, so
    the signs of ``l . nu_r`` are those of integer dot products, and each
    ``v / min`` is one correctly rounded integer division.
    """
    snapped = [Fraction(v).limit_denominator(10**6) for v in l]
    den = math.lcm(*(v.denominator for v in snapped))
    nums = [v.numerator * (den // v.denominator) for v in snapped]
    lo = min(nums)
    dots = (sum(c * v for c, v in zip(col, nums)) for col in n2_cols)
    if lo > 0 and all(d == 0 if equality else d >= 0 for d in dots):
        return np.array([v / lo for v in nums])
    return l / l.min()


def find_weight_vector(net: ReactionNetwork) -> np.ndarray:
    """Strictly positive weight vector taming all superlinear columns.

    Prefers an exact annihilator (``l . nu_r = 0`` for every superlinear
    reaction r, searched for by SLSQP when the superlinear stoichiometry
    has a non-trivial null space); otherwise falls back to the inequality
    form ``l . nu_r >= 0`` with the smallest ``sum(l)``.  That LP goes to
    HiGHS's dual simplex directly, with the model and options of
    ``linprog(method="highs")`` and its acceptance check, so ``l`` has
    linprog's bytes without its per-call wrapper.  The exact search is
    skipped when a superlinear column is nonzero and one-signed: no
    strictly positive l annihilates it.  The inequality search is skipped
    when such a column has no positive entry: no strictly positive l gives
    ``l . nu_r >= 0``.  The result is normalized to ``min(l) = 1``.

    Raises:
        WeightVectorNotFound: if no strictly positive l exists; the
            exception lists the obstructing reaction columns.
    """
    dim = net.n_species
    sup = [rxn for rxn in net.reactions if rxn.propensity.order >= 2]
    if not sup:
        return np.ones(dim)
    cols = [rxn.nu for rxn in sup]
    n2t = np.array(cols, dtype=float)  # rows are the superlinear columns of N

    # exact annihilation first: strictly positive element of the null space;
    # a nonzero one-signed column has l . nu_r != 0 for every l > 0
    one_signed = any(any(c) and (min(c) >= 0 or max(c) <= 0) for c in cols)
    if not one_signed and np.linalg.matrix_rank(n2t) < dim:
        l = _min_norm_positive(n2t)
        if l is not None:
            return _snap_rational(l, cols, equality=True)

    # inequality fallback: minimize sum(l) with l >= 1, N2^T l >= 0; a
    # nonzero column with no positive entry has l . nu_r < 0 for every l > 0
    if not any(any(c) and max(c) <= 0 for c in cols):
        l = _min_sum_weight(n2t)
        if l is not None:
            return _snap_rational(l, cols, equality=False)

    obstructions = [rxn.label for rxn in sup if any(v < 0 for v in rxn.nu)]
    raise WeightVectorNotFound(obstructions)


# ---------------------------------------------------------------------------
# constant pairs


def drift_constants(
    net: ReactionNetwork, l: Sequence[float] | None = None
) -> tuple[float, float]:
    """Drift pair (A, alpha) with (l, F(x)) <= A + alpha * (l, x).

    With ``d_r = -l . nu_r``: constant reactions feed A; linear reactions
    on species n feed the per-species coefficient ``c_n`` with ``d_r k``;
    a dimerization with ``d_r <= 0`` contributes its linear correction
    ``|d_r| k``; quadratic terms with ``d_r <= 0`` are non-positive and
    drop.  ``alpha`` is the largest ``c_n / l_n``.

    Raises:
        CubicUnsupported: for order-3 propensities.
        QuadraticObstruction: if a quadratic reaction has ``d_r > 0``.
        RateOverflow: at the first reaction after which A or alpha is not
            finite.
    """
    for rxn in net.reactions:
        if rxn.propensity.kind == "mass-action":
            raise CubicUnsupported(rxn.label)
    dim = net.n_species
    lv = np.ones(dim) if l is None else np.asarray(l, dtype=float)
    if lv.shape != (dim,):
        raise ValueError("weight vector has wrong dimension")
    if dim and not (np.isfinite(lv).all() and lv.min() > 0):
        raise ValueError("weight vector must be finite and strictly positive")

    pair = _drift_pair(net.reactions, lv)
    if not all(map(math.isfinite, pair)):
        _raise_first_overflow(
            net.reactions,
            lambda s: all(map(math.isfinite, _drift_pair(net.reactions[s], lv))),
        )
    return pair


def _drift_pair(reactions: Sequence[Reaction], lv: np.ndarray) -> tuple[float, float]:
    """:func:`drift_constants` over ``reactions``, with overflow left as inf."""
    a_const = 0.0
    coeff = np.zeros(len(lv))
    with np.errstate(over="ignore", invalid="ignore"):
        for rxn in reactions:
            kind, k = rxn.propensity.kind, rxn.propensity.rate
            d = -float(lv @ np.array(rxn.nu, dtype=float))
            if kind in ("bilinear", "dimer") and d > 1e-12:
                raise QuadraticObstruction(rxn.label, d)
            if kind == "constant":
                a_const += d * k
            elif kind == "linear":
                coeff[rxn.propensity.reactants[0][0]] += d * k
            elif kind == "dimer":
                coeff[rxn.propensity.reactants[0][0]] += abs(d) * k
        alpha = float((coeff / lv).max()) if len(lv) else 0.0
    return max(0.0, float(a_const)), alpha


def _pairs(net: ReactionNetwork) -> dict:
    """The report's fields that do not depend on the weight vector ``l``.

    The six pair fields are the column sums of ``per_reaction``, one row per
    reaction in reaction order.  ``M`` is the smaller of the rank-1 sum
    ``M_special_sum`` and ``M_combined``, the logarithmic norm of the drift's
    full linear part: a linear reaction adds ``-k nu e_n^T`` to it, and a
    dimer's linear correction ``-k x_n`` adds ``+k nu e_n^T``.

    Raises:
        RateOverflow: at the first reaction after which a column sum, an
            entry of the linear part or its logarithmic norm is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rows = tuple(_contribution(rxn) for rxn in net.reactions)
        out = _column_sums(net.reactions, rows, net.n_species)
        if not _finite(out):
            _raise_first_overflow(
                net.reactions,
                lambda s: _finite(_column_sums(net.reactions[s], rows[s], net.n_species)),
            )
    out["M_special_sum"] = out["M"]
    out["M"] = min(out["M_special_sum"], out["M_combined"])
    out["per_reaction"] = rows
    return out


def _column_sums(
    reactions: Sequence[Reaction], rows: Sequence[ReactionContribution], dim: int
) -> dict:
    """The six pair fields summed over ``rows``, and ``M_combined``, the
    logarithmic norm of the drift's linear part of ``reactions``; overflow
    reads inf (and warns unless under errstate)."""
    lin_part = np.zeros((dim, dim))
    for rxn in reactions:
        prop = rxn.propensity
        if prop.kind in ("linear", "dimer"):
            k = prop.rate if prop.kind == "linear" else -prop.rate
            lin_part[:, prop.reactants[0][0]] -= np.array(rxn.nu, dtype=float) * k
    sums = {
        name: float(sum(getattr(row, name) for row in rows))
        for name in ("M", "mu", "L", "lam", "Gamma", "gamma")
    }
    sums["M_combined"] = log_norm(lin_part) if np.isfinite(lin_part).all() else math.inf
    return sums


def _finite(sums: dict) -> bool:
    return all(map(math.isfinite, sums.values()))


def one_sided_constants(net: ReactionNetwork) -> tuple[float, float]:
    """One-sided pair (M, mu) for (x-y, F(x)-F(y)) <= (M + mu|x+y|_1)|x-y|^2.

    M is the smaller of the per-reaction rank-1 sums and the combined
    logarithmic norm of the full linear part (including dimer linear
    corrections); mu sums the per-reaction quadratic contributions.
    """
    pairs = _pairs(net)
    return pairs["M"], pairs["mu"]


def lipschitz_constants(net: ReactionNetwork) -> tuple[float, float]:
    """Lipschitz pair (L, lambda): |w(x)-w(y)|_1 <= (L + lambda|x+y|_1)|x-y|.

    Quadratic propensities ``x^T S x`` obey |w(x)-w(y)| = |(x+y)^T S (x-y)|
    <= |S| |x+y|_1 |x-y|, with |S| = k/2 for a bilinear term and k for a
    squared one; the dimer's linear correction joins L.
    """
    pairs = _pairs(net)
    return pairs["L"], pairs["lam"]


def growth_constants(net: ReactionNetwork) -> tuple[float, float]:
    """Growth pair (Gamma, gamma): |w(x)|_1 <= Gamma + gamma |x|_1^2.

    Integer-lattice bounds: x_n <= |x|_1 <= |x|_1^2 away from the origin
    (where linear propensities vanish anyway), x_m x_n <= |x|_1^2 / 4,
    and x_n (x_n - 1) <= |x|_1^2.
    """
    pairs = _pairs(net)
    return pairs["Gamma"], pairs["gamma"]


# ---------------------------------------------------------------------------
# diagnostics and aggregation


@dataclass(frozen=True)
class RayTable:
    """Exact growth diagnostics along the ray x = N * direction."""

    direction: tuple[float, ...]
    steps: np.ndarray  # N = 0..N_max
    x_dot_F: np.ndarray  # (x, F(x))
    one_dot_F: np.ndarray  # (1, F(x))
    norm2_sq: np.ndarray  # |x|^2
    norm1: np.ndarray  # |x|_1


def ray_diagnostic(net: ReactionNetwork, direction: Sequence[float], n_max: int) -> RayTable:
    """Evaluate (x, F(x)), (1, F(x)), |x|^2 and |x|_1 along a ray.

    Witnesses super-linear growth of (x, F(x)) along bad directions (or
    its absence), which is what rules out norm-based drift conditions.
    """
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (net.n_species,):
        raise ValueError("direction has wrong dimension")
    if (direction < 0).any():
        raise ValueError("direction must be non-negative")
    steps = np.arange(n_max + 1)
    x_dot, one_dot, n2, n1 = [], [], [], []
    for n in steps:
        x = n * direction
        f = drift_eval(net, x)
        x_dot.append(float(x @ f))
        one_dot.append(float(f.sum()))
        n2.append(float(x @ x))
        n1.append(float(x.sum()))
    return RayTable(
        tuple(direction), steps, np.array(x_dot), np.array(one_dot), np.array(n2), np.array(n1)
    )


@dataclass(frozen=True)
class StabilityReport:
    """All stability constants of a network, plus their ingredients.

    ``norm_1tN`` is ``max_r |l . nu_r|``, ``norm_1tN_sq`` its square taken
    elementwise over columns (these enter the moment bounds), and
    ``norm_1tN2`` is ``max_r sum_i nu_{ir}^2`` (which enters the
    perturbation bounds through L', lambda' and delta').  The fields are
    declared in the order ``jkl analyze`` prints them.
    """

    A: float
    alpha: float
    L: float
    lam: float
    Gamma: float
    gamma: float
    M: float
    mu: float
    M_special_sum: float
    M_combined: float
    norm_1tN: float
    norm_1tN_sq: float
    norm_1tN2: float
    l: tuple[float, ...]
    per_reaction: tuple[ReactionContribution, ...] = field(default_factory=tuple)

    @property
    def L_prime(self) -> float:
        return self.norm_1tN2 * self.L

    @property
    def lam_prime(self) -> float:
        return self.norm_1tN2 * self.lam

    def to_dict(self) -> dict:
        """The fields by name, ``lam`` spelled ``lambda``, sequences as lists."""
        out = _named(asdict(self))
        out["l"] = list(self.l)
        out["per_reaction"] = [_named(row) for row in out["per_reaction"]]
        return out


def _named(fields: dict) -> dict:
    return {"lambda" if key == "lam" else key: value for key, value in fields.items()}


def analyze(net: ReactionNetwork, weight="auto") -> StabilityReport:
    """Aggregate every stability constant into a report.

    Args:
        net: a validated network with propensity order <= 2.
        weight: "ones", "auto" (ones unless a quadratic column obstructs,
            then :func:`find_weight_vector`), or an explicit positive
            vector.

    Raises:
        InvalidNetworkError (a ValueError), CubicUnsupported,
        QuadraticObstruction, WeightVectorNotFound, RateOverflow (a rate
        whose constants or their running sums are not finite).
    """
    _check_network(net)
    if isinstance(weight, str):
        if weight not in ("ones", "auto"):
            raise ValueError(f"unknown weight policy {weight!r}")
        lv, search = np.ones(net.n_species), weight == "auto"
    else:
        lv, search = np.asarray(weight, dtype=float), False
    try:
        a, alpha = drift_constants(net, lv)
    except QuadraticObstruction:
        if not search:
            raise
        lv = find_weight_vector(net)
        a, alpha = drift_constants(net, lv)

    nmat = net.stoichiometry.astype(float)
    colsums = lv @ nmat
    return StabilityReport(
        A=a,
        alpha=alpha,
        norm_1tN=float(np.abs(colsums).max(initial=0.0)),
        norm_1tN_sq=float((colsums**2).max(initial=0.0)),
        norm_1tN2=float((nmat**2).sum(axis=0).max(initial=0.0)),
        l=tuple(float(v) for v in lv),
        **_pairs(net),
    )
