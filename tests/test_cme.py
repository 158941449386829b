"""Truncated master-equation oracle: enumeration, generator, integration."""

import itertools
import math
from collections import deque

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from jkl import cme
from jkl.cme import (
    CmeError,
    StateIndex,
    build_generator,
    cme_moments,
    enumerate_states,
    integrate_cme,
    point_mass,
)
from jkl.model import ReactionNetwork, propensity_eval
from jkl.parser import parse_model
from jkl.presets import PRESETS, get_preset
from test_golden import MIXED, _random_order2

REVERSIBLE = get_preset("reversible").network
BIMOL = get_preset("bimol").network
BIRTH = parse_model("species A\nR: 0 -> A @ 1.0")
CUBIC = get_preset("cubic").network
NEGATIVE = parse_model("species A\nR1: 0 -> A @ -1.0\nR2: A -> 0 @ 1")

# eleven channels of every kind at non-dyadic rates: a row sum over more
# than eight channels takes numpy's unrolled summation path
WIDE = parse_model("""\
species A B C
R1: 0 -> A @ 0.7
R2: 0 -> B @ 0.31
R3: 0 -> C @ 0.23
R4: A -> 0 @ 0.11
R5: B -> 0 @ 0.13
R6: C -> 0 @ 0.17
R7: A + B -> C @ 0.019
R8: C -> A + B @ 0.29
R9: 2 A -> B @ 0.0071
R10: A + B + C -> 0 @ 0.0013
R11: 2 B + C -> C @ 0.0009
""")

BAD_GRIDS = {
    "empty": [],
    "nan": [math.nan],
    "inf": [math.inf],
    "inf-last": [1.0, math.inf],
    "two-dimensional": [[0.5, 1.0]],
    "decreasing": [1.0, 0.5],
    "negative": [-1.0],
}


def _reference_enumerate(net, x0, caps):
    """Loop reference for enumerate_states: one state at a time off a deque."""
    caps_arr = np.full(net.n_species, caps, dtype=np.int64)
    nus = [np.array(rxn.nu, dtype=np.int64) for rxn in net.reactions]
    start = tuple(int(v) for v in x0)
    lookup = {start: 0}
    order = [start]
    queue = deque([start])
    while queue:
        state = queue.popleft()
        w = propensity_eval(net, state)
        for r, nu in enumerate(nus):
            if w[r] <= 0:
                continue
            nxt = tuple(int(v) for v in (np.array(state, dtype=np.int64) - nu))
            if min(nxt) < 0 or (np.array(nxt) > caps_arr).any():
                continue
            if nxt not in lookup:
                lookup[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
    return np.array(order, dtype=np.int64), lookup


def _reference_generator(net, idx):
    """Loop reference for build_generator, one state at a time: (q, lam)."""
    n = idx.n_states
    rows, cols, vals = [], [], []
    lam = 0.0
    nus = [np.array(rxn.nu, dtype=np.int64) for rxn in net.reactions]
    for j in range(n):
        state = idx.states[j]
        w = propensity_eval(net, state)
        total = float(w.sum())
        if total > 0:
            rows.append(j)
            cols.append(j)
            vals.append(-total)
            lam = max(lam, total)
        for r, nu in enumerate(nus):
            if w[r] <= 0:
                continue
            nxt = state - nu
            if (nxt < 0).any() or (nxt > idx.caps).any():
                target = n
            else:
                target = idx.lookup.get(tuple(int(v) for v in nxt), n)
            rows.append(target)
            cols.append(j)
            vals.append(float(w[r]))
    q = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n + 1, n + 1)).tocsr()
    return q, lam


def _box_index(net, caps):
    """Every lattice point of the box [0, caps], reachable or not, with its transitions."""
    states = np.array(list(itertools.product(*(range(c + 1) for c in caps))), dtype=np.int64)
    lookup = {tuple(int(v) for v in s): i for i, s in enumerate(states)}
    n = len(states)
    rates = np.zeros((n, net.n_reactions))
    targets = np.full((n, net.n_reactions), n, dtype=np.int64)
    for j, state in enumerate(states):
        rates[j] = propensity_eval(net, state)
        for r, rxn in enumerate(net.reactions):
            key = tuple(int(v) for v in state - np.array(rxn.nu, dtype=np.int64))
            if rates[j, r] > 0 and key in lookup:  # the box holds every in-caps point
                targets[j, r] = lookup[key]
    return StateIndex(states, lookup, np.array(caps, dtype=np.int64), rates, targets, net.reactions)


def _generator_cases():
    """Named networks, the presets and 100 seeded random order-2 networks at small caps."""
    yield pytest.param(parse_model(MIXED), [20, 20], 30, 7, id="mixed")
    yield pytest.param(WIDE, [2, 2, 2], 7, 7, id="wide")
    yield pytest.param(BIMOL, [0, 0], 25, 7, id="bimol")
    for name in sorted(PRESETS):
        preset = get_preset(name)
        yield pytest.param(preset.network, preset.x0, max(20, *preset.x0), 5, id=name)
    rng = np.random.default_rng(27)
    for i in range(100):
        text, x0 = _random_order2(rng)
        yield pytest.param(parse_model(text), [min(v, 3) for v in x0], 3, 2, id=f"random-{i}")


class TestEnumeration:
    def test_reversible_slice(self):
        idx = enumerate_states(REVERSIBLE, [2, 2, 0], 10)
        got = {tuple(s) for s in idx.states}
        assert got == {(2, 2, 0), (1, 1, 1), (0, 0, 2)}

    def test_pure_birth_cap(self):
        idx = enumerate_states(BIRTH, [0], 5)
        assert idx.n_states == 6

    def test_cubic_reachability_pattern(self):
        idx = enumerate_states(CUBIC, [5], 50)
        xs = sorted(int(s[0]) for s in idx.states)
        # steps are -2 and +1 from states >= 3: 5 -> {3, 6}, 3 -> {1, 4}, ...
        assert 5 in xs and 3 in xs and 1 in xs and 4 in xs
        assert 0 not in xs and 2 in xs  # 4 - 2 = 2 is reachable, 0 is not

    def test_max_states_guard(self):
        with pytest.raises(CmeError):
            enumerate_states(BIMOL, [0, 0], 200, max_states=50)

    def test_state_outside_caps_rejected(self):
        with pytest.raises(ValueError):
            enumerate_states(BIRTH, [9], 5)

    def test_invalid_network_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            enumerate_states(NEGATIVE, [0], 5)

    @pytest.mark.parametrize("x0", [[1.7, 0.2], [2.9, 0], [math.inf, 0], [math.nan, 0]])
    def test_non_integral_initial_state_rejected(self, x0):
        with pytest.raises(ValueError, match="integer counts"):
            enumerate_states(BIMOL, x0, 3)

    def test_integral_float_initial_state_accepted(self):
        idx = enumerate_states(BIMOL, [2.0, 1.0], 3)
        assert idx.states.tolist() == enumerate_states(BIMOL, [2, 1], 3).states.tolist()

    def test_per_species_caps(self):
        idx = enumerate_states(BIMOL, [0, 0], [2, 3])
        assert idx.caps.tolist() == [2, 3]
        assert sorted(map(tuple, idx.states.tolist())) == [
            (a, b) for a in range(3) for b in range(4)
        ]

    @pytest.mark.parametrize("caps", [2.7, [2.7, 3], math.inf, math.nan])
    def test_non_integral_caps_rejected(self, caps):
        with pytest.raises(ValueError, match="caps must hold integer counts"):
            enumerate_states(BIMOL, [0, 0], caps)

    def test_integral_float_caps_accepted(self):
        idx = enumerate_states(BIMOL, [0, 0], 2.0)
        assert idx.caps.tolist() == [2, 2]
        assert idx.states.tolist() == enumerate_states(BIMOL, [0, 0], 2).states.tolist()

    @pytest.mark.parametrize(
        "x0, caps, what",
        [([2**63, 0], 3, "initial state"), ([0, 0], 2**63, "caps"), ([0, 0], [3, 10**20], "caps")],
    )
    def test_counts_past_int64_rejected(self, x0, caps, what):
        with pytest.raises(ValueError, match=f"{what} must hold counts that fit a 64-bit"):
            enumerate_states(BIMOL, x0, caps)

    def test_state_lookup_past_int64_rejected(self):
        idx = enumerate_states(BIMOL, [1, 0], 3)
        with pytest.raises(ValueError, match="state must hold counts that fit a 64-bit"):
            idx.index_of([2**63, 0])
        with pytest.raises(KeyError):  # the largest int64 passes the rule and is looked up
            idx.index_of([2**63 - 1, 0])

    @pytest.mark.parametrize("caps", [[2, 3, 4], [[2, 3]]])
    def test_caps_shape_rejected(self, caps):
        with pytest.raises(ValueError, match="scalar or one per species"):
            enumerate_states(BIMOL, [0, 0], caps)

    @pytest.mark.parametrize("state", [[1.9, 0.5], [1.7, 0.2], [math.inf, 0], [math.nan, 0]])
    def test_non_integral_state_lookup_rejected(self, state):
        idx = enumerate_states(BIMOL, [1, 0], 3)
        with pytest.raises(ValueError, match="integer counts"):
            idx.index_of(state)
        with pytest.raises(ValueError, match="integer counts"):
            point_mass(idx, state)

    def test_state_lookup_integral_float_and_outside(self):
        idx = enumerate_states(BIMOL, [1, 0], 3)
        assert idx.index_of([1.0, 0.0]) == idx.index_of(np.array([1, 0])) == 0
        with pytest.raises(KeyError):
            idx.index_of([9, 0])

    def test_index_round_trip(self):
        idx = enumerate_states(BIMOL, [0, 0], 6)
        for i, s in enumerate(idx.states):
            assert idx.index_of(s) == i
        dump = idx.to_text()
        assert len(dump.splitlines()) == idx.n_states


class TestGenerator:
    @pytest.mark.parametrize("net, x0, caps, side", _generator_cases())
    def test_matches_per_state_reference(self, net, x0, caps, side):
        idx = enumerate_states(net, x0, caps)
        states, lookup = _reference_enumerate(net, x0, caps)
        assert idx.states.dtype == states.dtype and idx.states.shape == states.shape
        assert idx.states.tobytes() == states.tobytes()
        assert list(idx.lookup.items()) == list(lookup.items())
        box = _box_index(net, [side] * net.n_species)
        for index in (idx, box):
            gen = build_generator(net, index)
            q, lam = _reference_generator(net, index)
            for field in ("data", "indices", "indptr"):
                got, want = getattr(gen.q, field), getattr(q, field)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert gen.lam == lam and type(gen.lam) is float

    def test_invalid_network_rejected(self):
        idx = enumerate_states(BIRTH, [0], 5)
        with pytest.raises(ValueError, match="negative"):
            build_generator(NEGATIVE, idx)

    def test_index_of_another_network_rejected(self):
        # the index fixes the chain: a network with other rates or channels
        # on the same lattice must not borrow its transitions
        idx = enumerate_states(BIMOL, [0, 0], 5)
        scaled = BIMOL.with_scaled_rates({0: 2.0})
        for other in (scaled, get_preset("extended-bimol").network):
            assert other.n_species == BIMOL.n_species
            with pytest.raises(ValueError, match="enumerated for another network"):
                build_generator(other, idx)
        twin = get_preset("bimol").network  # parsed again: equal reactions, another object
        assert twin is not BIMOL
        assert build_generator(twin, idx).q.nnz == build_generator(BIMOL, idx).q.nnz

    def test_single_state_zero_matrix(self):
        net = ReactionNetwork(("A",), (), {})
        idx = enumerate_states(net, [0], 3)
        gen = build_generator(net, idx)
        assert gen.q.nnz == 0
        assert gen.lam == 0.0

    def test_reversible_three_state_rates(self):
        idx = enumerate_states(REVERSIBLE, [2, 2, 0], 10)
        gen = build_generator(REVERSIBLE, idx)
        q = gen.q.toarray()
        i0 = idx.index_of([2, 2, 0])
        i1 = idx.index_of([1, 1, 1])
        i2 = idx.index_of([0, 0, 2])
        # forward rates a*b: 4 then 1; backward rates c: 1 then 2
        assert q[i1, i0] == pytest.approx(4.0)
        assert q[i0, i1] == pytest.approx(1.0)
        assert q[i2, i1] == pytest.approx(1.0)
        assert q[i1, i2] == pytest.approx(2.0)

    def test_columns_sum_to_zero_with_defect(self):
        idx = enumerate_states(BIMOL, [0, 0], 5)
        gen = build_generator(BIMOL, idx)
        sums = np.asarray(gen.q.sum(axis=0)).ravel()
        assert np.allclose(sums, 0.0, atol=1e-12)

    def test_interior_column_sums_nonpositive(self):
        idx = enumerate_states(BIMOL, [0, 0], 5)
        gen = build_generator(BIMOL, idx)
        interior = gen.q[: idx.n_states, :].toarray()
        sums = interior.sum(axis=0)[: idx.n_states]
        assert (sums <= 1e-12).all()
        # boundary states lose mass to the defect channel
        assert sums.min() < -1e-9


class TestIntegration:
    def test_zero_generator_constant(self):
        net = ReactionNetwork(("A",), (), {})
        idx = enumerate_states(net, [2], 5)
        gen = build_generator(net, idx)
        sol = integrate_cme(gen, point_mass(idx, [2]), np.array([0.5, 1.0]))
        assert np.allclose(sol.probs, point_mass(idx, [2]))
        assert np.allclose(sol.defect, 0.0)

    def test_pure_birth_poisson_mean(self):
        idx = enumerate_states(BIRTH, [0], 60)
        gen = build_generator(BIRTH, idx)
        grid = np.array([1.0, 3.0, 5.0])
        sol = integrate_cme(gen, point_mass(idx, [0]), grid)
        for g, t in enumerate(grid):
            mom = cme_moments(sol.probs[g], idx, 1, defect=float(sol.defect[g]))
            assert mom.species_mean[0] == pytest.approx(t, abs=1e-6 + sol.defect[g] * 60)

    def test_against_dense_matrix_exponential(self):
        idx = enumerate_states(REVERSIBLE, [2, 2, 0], 10)
        gen = build_generator(REVERSIBLE, idx)
        p0 = point_mass(idx, [2, 2, 0])
        grid = np.array([0.3, 1.0, 2.5])
        sol = integrate_cme(gen, p0, grid, tol=1e-12)
        full0 = np.concatenate([p0, [0.0]])
        dense = gen.q.toarray()
        for g, t in enumerate(grid):
            expect = scipy.linalg.expm(dense * t) @ full0
            assert np.allclose(sol.probs[g], expect[:-1], atol=1e-9)

    def test_isomerization_closed_form(self):
        # A <-> B at rate k from (1, 0): p_A(t) = (1 + exp(-2 k t)) / 2, lam * t_end = 1e4
        k = 100.0
        net = parse_model(f"species A B\nR1: A -> B @ {k}\nR2: B -> A @ {k}")
        idx = enumerate_states(net, [1, 0], 1)
        gen = build_generator(net, idx)
        grid = np.concatenate([[0.0], np.geomspace(1e-4, 100.0, 25)])
        sol = integrate_cme(gen, point_mass(idx, [1, 0]), grid, tol=1e-10)
        assert gen.lam * grid[-1] == pytest.approx(1e4)
        p_a = sol.probs[:, idx.index_of([1, 0])]
        assert np.abs(p_a - (1.0 + np.exp(-2.0 * k * grid)) / 2.0).max() <= 1e-10
        assert np.abs(sol.total_mass() - 1.0).max() <= 1e-10
        # one matvec per Poisson term; a series of mean a takes a + O(sqrt(a)) terms
        assert gen.lam * grid[-1] <= sol.matvecs <= 1.5 * gen.lam * grid[-1]
        assert sol.flushed == 0.0

    def test_mass_conservation(self):
        idx = enumerate_states(BIMOL, [0, 0], 25)
        gen = build_generator(BIMOL, idx)
        sol = integrate_cme(gen, point_mass(idx, [0, 0]), np.linspace(0.25, 2.0, 8))
        assert np.allclose(sol.total_mass(), 1.0, atol=1e-9)

    def test_defect_monotone(self):
        idx = enumerate_states(BIRTH, [0], 8)
        gen = build_generator(BIRTH, idx)
        sol = integrate_cme(gen, point_mass(idx, [0]), np.linspace(0.5, 12.0, 10))
        assert (np.diff(sol.defect) >= -1e-12).all()
        assert sol.unreliable  # the cap is tiny, mass escapes

    def test_refining_caps_never_loses_mass(self):
        grid = np.array([2.0])
        retained = []
        for cap in (4, 8, 16):
            idx = enumerate_states(BIRTH, [0], cap)
            gen = build_generator(BIRTH, idx)
            sol = integrate_cme(gen, point_mass(idx, [0]), grid)
            retained.append(float(sol.probs[0].sum()))
        assert retained[0] <= retained[1] <= retained[2]

    def test_slice_and_box_agree(self):
        # conservation-law slice (reachable set) vs a bounding box
        grid = np.array([0.5, 1.5])
        idx_a = enumerate_states(REVERSIBLE, [2, 2, 0], 10)
        idx_b = _box_index(REVERSIBLE, (4, 4, 4))
        assert (idx_a.n_states, idx_b.n_states) == (3, 125)
        for idx in (idx_a, idx_b):
            gen = build_generator(REVERSIBLE, idx)
            sol = integrate_cme(gen, point_mass(idx, [2, 2, 0]), grid)
            mom = cme_moments(sol.probs[-1], idx, 2, defect=float(sol.defect[-1]))
            if idx is idx_a:
                base = mom
        assert np.allclose(base.species_mean, mom.species_mean, atol=1e-9)
        assert np.allclose(base.moments, mom.moments, atol=1e-9)

    def test_stationary_matches_long_integration(self):
        idx = enumerate_states(REVERSIBLE, [2, 2, 0], 10)
        gen = build_generator(REVERSIBLE, idx)
        q = gen.q.toarray()[: idx.n_states, : idx.n_states]
        w, v = scipy.linalg.eig(q)
        stat = np.real(v[:, np.argmax(np.real(w))])
        stat = np.abs(stat) / np.abs(stat).sum()
        sol = integrate_cme(gen, point_mass(idx, [2, 2, 0]), np.array([60.0]))
        assert np.allclose(sol.probs[-1], stat, atol=1e-8)

    @pytest.mark.parametrize("grid", sorted(BAD_GRIDS))
    def test_bad_grid_rejected(self, grid):
        idx = enumerate_states(BIRTH, [0], 4)
        gen = build_generator(BIRTH, idx)
        with pytest.raises(ValueError, match="grid"):
            integrate_cme(gen, point_mass(idx, [0]), BAD_GRIDS[grid])

    def test_unreachable_tolerance_raises(self):
        # below ~1e-16 per Poisson series, 1 - tol rounds to 1: the series
        # stops on its term limit, short of tol, and must not return silently
        idx = enumerate_states(BIMOL, [0, 0], 30)
        gen = build_generator(BIMOL, idx)
        with pytest.raises(CmeError, match="tolerance"):
            integrate_cme(gen, point_mass(idx, [0, 0]), np.linspace(0.01, 2.0, 20), tol=1e-15)

    def test_bad_p0_rejected(self):
        idx = enumerate_states(BIRTH, [0], 4)
        gen = build_generator(BIRTH, idx)
        with pytest.raises(ValueError):
            integrate_cme(gen, np.ones(idx.n_states), np.array([1.0]))

    def test_p0_of_wrong_length_rejected(self):
        idx = enumerate_states(BIRTH, [0], 4)
        gen = build_generator(BIRTH, idx)
        for p0 in (np.array([1.0]), np.concatenate([point_mass(idx, [0]), [0.0]])):
            with pytest.raises(ValueError, match="p0 must have length 5"):
                integrate_cme(gen, p0, np.array([1.0]))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-3, 1.0, 2.0])
    def test_tolerance_outside_unit_interval_rejected(self, tol):
        # a series run to such a tol stops at once (nan, inf, 1, 2), losing the mass
        # while marked reliable, or runs to its term limit (tol <= 0)
        idx = enumerate_states(BIMOL, [0, 0], 5)
        gen = build_generator(BIMOL, idx)
        with pytest.raises(ValueError, match=r"tol must lie strictly between 0 and 1, got "):
            integrate_cme(gen, point_mass(idx, [0, 0]), [0.5, 1.0], tol=tol)

    def test_nan_in_p0_rejected(self):
        # the sum and sign checks both pass a NaN entry
        idx = enumerate_states(BIRTH, [0], 4)
        gen = build_generator(BIRTH, idx)
        p0 = point_mass(idx, [0])
        p0[1] = math.nan
        with pytest.raises(ValueError, match="finite"):
            integrate_cme(gen, p0, np.array([1.0]))


def _reference_step(p, p_op, a, tol):
    """The Poisson series without the sub-tiny flush: every term kept as computed."""
    result = p * np.exp(-a)
    term = p.copy()
    weight = np.exp(-a)
    acc = weight
    k = 0
    while acc < 1.0 - tol:
        k += 1
        term = p_op @ term
        weight *= a / k
        result += weight * term
        acc += weight
        if k > 10 * a + 1000:
            raise CmeError(f"uniformization cannot reach tolerance {tol:.3g}; loosen tol")
    return result


class TestSubnormalFlush:
    def test_matches_unflushed_series(self, monkeypatch):
        # bimol's far corners at caps 60 carry subnormal mass in the Poisson terms
        tiny = np.finfo(float).tiny
        grid = np.array([0.05, 0.1, 0.2])
        idx = enumerate_states(BIMOL, [0, 0], 60)
        gen = build_generator(BIMOL, idx)
        p0 = point_mass(idx, [0, 0])
        sol = integrate_cme(gen, p0, grid)
        with monkeypatch.context() as m:
            m.setattr(
                cme,
                "_uniformization_step",
                lambda p, p_op, reach, a, tol, matvec: (_reference_step(p, p_op, a, tol), 0, 0.0, 0),
            )
            ref = integrate_cme(gen, p0, grid)
        assert ((ref.probs > 0) & (ref.probs < tiny)).any()
        assert 0.0 < sol.flushed <= sol.matvecs * idx.n_states * tiny
        for g in range(len(grid)):
            got = cme_moments(sol.probs[g], idx, 3, defect=float(sol.defect[g]))
            want = cme_moments(ref.probs[g], idx, 3, defect=float(ref.defect[g]))
            assert got.moments.tolist() == want.moments.tolist()
            assert got.species_mean.tolist() == want.species_mean.tolist()
            assert got.species_var.tolist() == want.species_var.tolist()
        assert np.abs(sol.probs - ref.probs).max() <= idx.n_states * tiny
        assert (sol.defect >= ref.defect).all()
        assert np.abs(sol.total_mass() - 1.0).max() <= 1e-10


def _full_step(p, p_op, a, tol):
    """The Poisson series over the full matrix: every term multiplies every row."""
    result = p * np.exp(-a)
    term = p.copy()
    weight = np.exp(-a)
    acc = weight
    k = 0
    in_term = flushed = 0.0
    # the tail after k terms is 1 - acc; stop once it is below tol
    while acc < 1.0 - tol:
        k += 1
        term = p_op @ term
        kept = term[:-1]
        low = (kept > 0.0) & (kept < cme._TINY)  # exact zeros need no flush
        if low.any():
            moved = kept[low].sum()
            kept[low] = 0.0
            term[-1] += moved
            in_term += moved
        weight *= a / k
        result += weight * term
        flushed += weight * in_term  # the defect row keeps what earlier terms flushed
        acc += weight
        if k > 10 * a + 1000:
            raise CmeError(f"uniformization cannot reach tolerance {tol:.3g}; loosen tol")
    return result, k, flushed


def _random_cases(count=20, seed=16):
    rng = np.random.default_rng(seed)
    for i in range(count):
        text, x0 = _random_order2(rng)
        yield pytest.param(parse_model(text), x0, 12, np.linspace(0.0, 1.0, 5), id=f"random-{i}")


class TestSupportPrefix:
    """The prefix step keeps the bytes of the full-matrix series."""

    CASES = [
        pytest.param(BIMOL, [0, 0], 40, np.linspace(0.0, 1.0, 11), id="bimol-40"),
        pytest.param(BIMOL, [0, 0], 120, np.linspace(0.0, 0.2, 11), id="bimol-120"),
        pytest.param(
            get_preset("enzyme").network, get_preset("enzyme").x0, 60,
            np.linspace(0.0, 0.01, 6), id="enzyme-60",
        ),
        # the diagonal vanishes, so each term moves all mass one state up:
        # from the sixth term on the retained prefix is empty
        pytest.param(BIRTH, [0], 5, np.array([1.0, 10.0]), id="birth-escapes"),
        *_random_cases(),
    ]

    @pytest.mark.parametrize("net, x0, caps, grid", CASES)
    def test_bytes_match_the_full_matrix_step(self, monkeypatch, net, x0, caps, grid):
        idx = enumerate_states(net, x0, caps)
        gen = build_generator(net, idx)
        p0 = point_mass(idx, x0)
        sol = integrate_cme(gen, p0, grid)
        with monkeypatch.context() as m:
            m.setattr(
                cme,
                "_uniformization_step",
                lambda p, p_op, reach, a, tol, matvec: (*_full_step(p, p_op, a, tol), 0),
            )
            ref = integrate_cme(gen, p0, grid)
        assert sol.probs.tobytes() == ref.probs.tobytes()
        assert sol.defect.tobytes() == ref.defect.tobytes()
        assert (sol.flushed, sol.matvecs) == (ref.flushed, ref.matvecs)
        assert sol.matvecs <= sol.row_products <= sol.matvecs * (idx.n_states + 1)

    def test_prefix_share(self):
        # bimol from (0, 0): the support covers under half the index at caps 120
        idx = enumerate_states(BIMOL, [0, 0], 120)
        sol = integrate_cme(build_generator(BIMOL, idx), point_mass(idx, [0, 0]), [0.2])
        assert 0.3 < sol.row_products / (sol.matvecs * (idx.n_states + 1)) < 0.6


class TestMoments:
    def test_point_mass_exact(self):
        idx = enumerate_states(REVERSIBLE, [2, 2, 0], 10)
        mom = cme_moments(point_mass(idx, [1, 1, 1]), idx, 3)
        assert mom.moments[0] == pytest.approx(3.0)
        assert mom.moments[2] == pytest.approx(27.0)
        assert np.allclose(mom.species_mean, [1.0, 1.0, 1.0])
        assert np.allclose(mom.species_var, 0.0)

    @pytest.mark.parametrize("p_max", [0, -1])
    def test_order_below_one_rejected(self, p_max):
        idx = enumerate_states(BIRTH, [0], 3)
        with pytest.raises(ValueError, match="p_max"):
            cme_moments(point_mass(idx, [0]), idx, p_max)

    def test_defect_bracket(self):
        idx = enumerate_states(BIRTH, [0], 3)
        dist = np.array([0.5, 0.25, 0.15, 0.05])
        mom = cme_moments(dist, idx, 1, defect=0.05)
        assert mom.upper[0] == pytest.approx(mom.moments[0] + 0.05 * 3.0)
