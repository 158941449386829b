"""Core model: propensity evaluation, drift, reaction application, validation."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jkl import lockstep, model
from jkl.model import (
    Propensity,
    Reaction,
    ReactionNetwork,
    apply_reaction,
    drift_eval,
    propensity_eval,
    validate_network,
)
from jkl.parser import parse_model
from jkl.presets import PRESETS, get_preset

BIMOL = get_preset("bimol").network
REVERSIBLE = get_preset("reversible").network
OPEN = get_preset("reversible-open").network
CUBIC = get_preset("cubic").network


def _one_reaction(prop, dim):
    """A network of ``dim`` species whose only reaction has propensity ``prop``."""
    species = tuple(f"S{s}" for s in range(dim))
    return ReactionNetwork(species, (Reaction("R1", (0,) * dim, prop),), {})


class TestPropensityEval:
    def test_bimol_state(self):
        # w = [k1, k1, k2*a*b] at (a, b) = (2, 3)
        w = propensity_eval(BIMOL, [2, 3])
        assert np.allclose(w, [1.0, 1.0, 6.0])

    def test_cubic_falling_factorial(self):
        # 3X -> X at rate 1/2: w = x(x-1)(x-2)/2 = 12 at x = 4
        w = propensity_eval(CUBIC, [4])
        assert w[0] == pytest.approx(4 * 3 * 2 / 2)
        assert w[1] == pytest.approx(4 * 3 * 2)

    def test_dimer_vanishes_below_multiplicity(self):
        net = parse_model("species A\nR: 2 A -> 0 @ 1.0")
        assert propensity_eval(net, [1])[0] == 0.0
        assert propensity_eval(net, [0])[0] == 0.0

    def test_nonfinite_rate_evaluates(self):
        # an unvalidated network still evaluates; its literal is ``inf`` or ``nan``
        for rate in (float("inf"), float("-inf"), float("nan")):
            w = propensity_eval(_one_reaction(Propensity(rate, ((0, 1),)), 1), [2])
            assert np.array_equal(w, [rate * 2], equal_nan=True)

    @pytest.mark.parametrize("rates", [(0.0, -0.0), (-0.0, 0.0)], ids=["plus-first", "minus-first"])
    def test_signed_zero_rates_compile_apart(self, rates):
        # 0.0 == -0.0 as floats, but the propensities they give differ in sign,
        # so neither network may be served the other's compiled code
        model._rates.cache_clear()
        lockstep._stepper.cache_clear()
        for rate in rates:
            net = parse_model(f"species A\nR: A -> 0 @ {rate!r}")
            w = propensity_eval(net, [3])
            assert math.copysign(1.0, w[0]) == math.copysign(1.0, rate)
            lockstep._stepper(net.reactions, 1, "direct", "path")
        assert model._rates.cache_info().misses == 2
        assert lockstep._stepper.cache_info().misses == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            propensity_eval(BIMOL, [1, 2, 3])

    @given(st.lists(st.integers(min_value=0, max_value=40), min_size=2, max_size=2))
    def test_nonnegative_on_lattice(self, x):
        for net in (BIMOL, REVERSIBLE, OPEN):
            state = (x * 2)[: net.n_species]
            assert (propensity_eval(net, state) >= 0).all()


class TestDriftEval:
    def test_bimol_closed_form(self):
        # F = (k1 - k2 ab, k1 - k2 ab); (1, F) = 2 k1 - 2 k2 ab
        for a, b in [(0, 0), (2, 3), (7, 1)]:
            f = drift_eval(BIMOL, [a, b])
            assert np.allclose(f, [1.0 - a * b, 1.0 - a * b])
            assert f.sum() == pytest.approx(2.0 - 2.0 * a * b)

    def test_zero_at_fixed_point(self):
        # open reversible at unit rates: a=b=1, c=1 balances all flows
        f = drift_eval(OPEN, [1.0, 1.0, 1.0])
        assert np.allclose(f, 0.0)

    def test_cubic_zero_drift_everywhere(self):
        for x in [0, 1, 2, 3, 10, 0.5, 7.25]:
            assert drift_eval(CUBIC, [x]) == pytest.approx(0.0)

    def test_matches_minus_n_w(self):
        rng = np.random.default_rng(0)
        for net in (BIMOL, REVERSIBLE, OPEN, CUBIC):
            for _ in range(20):
                x = rng.integers(0, 30, size=net.n_species)
                expect = -(net.stoichiometry @ propensity_eval(net, x))
                assert np.array_equal(drift_eval(net, x), expect)

    def test_linear_in_rates(self):
        doubled = BIMOL.with_scaled_rates({0: 2.0, 1: 2.0, 2: 2.0})
        for x in [[0, 0], [3, 5], [10, 2]]:
            assert np.allclose(drift_eval(doubled, x), 2.0 * drift_eval(BIMOL, x))

    def test_network_without_reactions_has_zero_drift(self):
        f = drift_eval(ReactionNetwork(("A", "B"), (), {}), [3, 4])
        assert f.tolist() == [0.0, 0.0] and f.dtype == float


class TestApplyReaction:
    def test_reversible_forward(self):
        assert np.array_equal(apply_reaction([1, 1, 0], REVERSIBLE, 0), [0, 0, 1])

    def test_reversible_backward(self):
        assert np.array_equal(apply_reaction([0, 0, 1], REVERSIBLE, 1), [1, 1, 0])

    def test_open_birth_from_origin(self):
        assert np.array_equal(apply_reaction([0, 0, 0], OPEN, 3), [0, 0, 1])

    def test_lattice_violation_raises(self):
        with pytest.raises(ValueError, match="lattice"):
            apply_reaction([0, 0], BIMOL, 2)

    @given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
    def test_conservation_law(self, a, b, c):
        # l = (1, 1, 2) annihilates both columns of the closed network
        l = np.array([1, 1, 2])
        for r in range(2):
            x = np.array([a + 1, b + 1, c + 1])
            y = apply_reaction(x, REVERSIBLE, r)
            assert l @ y == l @ x


class TestValidateNetwork:
    def test_presets_valid(self):
        for name in ("bimol", "reversible", "reversible-open", "extended-bimol",
                     "cubic", "enzyme", "enzyme-linear"):
            assert validate_network(get_preset(name).network) == []

    def test_empty_network(self):
        assert validate_network(ReactionNetwork((), (), {})) == []

    def test_constant_consuming_reaction_flagged(self):
        # "A -> 0" with a constant propensity can fire at a = 0
        bad = ReactionNetwork(
            ("A",), (Reaction("R1", (1,), Propensity(1.0)),), {}
        )
        issues = validate_network(bad)
        assert len(issues) == 1
        assert issues[0].reaction == "R1"

    def test_negative_rate_flagged(self):
        bad = ReactionNetwork(("A",), (Reaction("R1", (1,), Propensity(-2.0, ((0, 1),))),), {})
        assert any("negative" in d.message for d in validate_network(bad))

    def test_nonfinite_rate_flagged(self):
        bad = ReactionNetwork(
            ("A",), (Reaction("R1", (1,), Propensity(float("inf"), ((0, 1),))),), {}
        )
        assert any("finite" in d.message for d in validate_network(bad))

    @pytest.mark.parametrize("entry,fits", [(-(2**63), True), (2**63 - 1, True),
                                            (-(2**63) - 1, False), (2**63, False)])
    def test_stoichiometric_entry_past_int64_flagged(self, entry, fits):
        net = ReactionNetwork(
            ("A", "B"), (Reaction("R1", (0, entry), Propensity(1.0, ((1, 3),))),), {}
        )
        issues = [d for d in validate_network(net) if "64-bit" in d.message]
        assert not issues if fits else [d.reaction for d in issues] == ["R1"]
        if fits:
            assert net.stoichiometry[1, 0] == entry

    def test_underconsuming_propensity_flagged(self):
        # consumes two copies but the propensity only vanishes below one
        bad = ReactionNetwork(("A",), (Reaction("R1", (2,), Propensity(1.0, ((0, 1),))),), {})
        assert validate_network(bad)


class TestDomainTypes:
    def test_mass_action_order_cap(self):
        with pytest.raises(ValueError):
            Propensity(1.0, ((0, 4),))
        with pytest.raises(ValueError):
            Propensity(1.0, ((0, 2), (1, 2)))

    def test_bilinear_needs_distinct_species(self):
        # duplicate species in ``reactants`` are rejected; "A + A" is the dimer (0, 2)
        with pytest.raises(ValueError):
            Propensity(1.0, ((1, 1), (1, 1)))

    def test_duplicate_species_rejected(self):
        with pytest.raises(ValueError):
            ReactionNetwork(("A", "A"), (), {})

    def test_duplicate_reaction_label_rejected(self):
        rxn = Reaction("R1", (-1,), Propensity(1.0))
        with pytest.raises(ValueError, match="duplicate reaction label"):
            ReactionNetwork(("A",), (rxn, rxn), {})

    @pytest.mark.parametrize("mult", [0, -1])
    def test_reactant_multiplicity_must_be_positive(self, mult):
        with pytest.raises(ValueError, match="^reactant multiplicities must be positive$"):
            Propensity(1.0, ((0, mult),))

    def test_stoichiometry_of_wrong_dimension_rejected(self):
        rxn = Reaction("R1", (-1, 0), Propensity(1.0))
        with pytest.raises(ValueError, match="^reaction R1: stoichiometry has wrong dimension$"):
            ReactionNetwork(("A",), (rxn,), {})

    @pytest.mark.parametrize("species", [1, -1])
    def test_reactant_species_outside_the_network_rejected(self, species):
        rxn = Reaction("R1", (1,), Propensity(1.0, ((species, 1),)))
        with pytest.raises(ValueError, match=f"^reaction R1: invalid species index {species}$"):
            ReactionNetwork(("A",), (rxn,), {})

    def test_unknown_preset_names_the_available_ones(self):
        with pytest.raises(KeyError) as info:
            get_preset("nope")
        known = ", ".join(sorted(PRESETS))
        assert info.value.args[0] == f"unknown preset 'nope' (available: {known})"

    def test_kind_and_order_derived_from_reactants(self):
        prop = Propensity(1.5, ((2, 1), (0, 1)))
        assert prop.reactants == ((0, 1), (2, 1))
        assert (prop.kind, prop.order) == ("bilinear", 2)
        assert propensity_eval(_one_reaction(prop, 3), [3, 9, 5])[0] == 1.5 * 3 * 5
        assert Propensity(1.0, ((0, 2), (1, 1))).kind == "mass-action"

    def test_pickle_round_trip_keeps_network(self):
        # the fork pool pickles networks; a propensity is plain data
        net = pickle.loads(pickle.dumps(CUBIC))
        assert net == CUBIC
        assert [r.propensity.kind for r in net.reactions] == ["mass-action"] * 2
        assert np.array_equal(propensity_eval(net, [4]), propensity_eval(CUBIC, [4]))

    def test_stoichiometry_matrix(self):
        n = BIMOL.stoichiometry
        assert n.shape == (2, 3)
        assert np.array_equal(n, [[-1, 0, 1], [0, -1, 1]])

    def test_dimer_eval(self):
        d = Propensity(2.0, ((0, 2),))
        assert d.kind == "dimer"
        assert propensity_eval(_one_reaction(d, 1), [5])[0] == 2.0 * 5 * 4
