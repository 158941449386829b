"""Parser: grammar, kind inference, diagnostics, round-trips, fuzz safety."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_golden import MIXED, WEIGHTED, _random_order2

from jkl.parser import ModelError, _parse_lines, _parse_tokens, parse_model, serialize_model
from jkl.presets import PRESETS


class TestGrammar:
    def test_bimol_document(self):
        net = parse_model(
            "species A B\nk1 = 1.0\nk2 = 1.0\n"
            "R1: 0 -> A @ k1\nR2: 0 -> B @ k1\nR3: A + B -> 0 @ k2"
        )
        assert net.species == ("A", "B")
        assert np.array_equal(net.stoichiometry, [[-1, 0, 1], [0, -1, 1]])

    def test_cubic_document(self):
        net = parse_model("species X\nR1: 3 X -> X @ 0.5\nR2: 3 X -> 4 X @ 1.0")
        assert np.array_equal(net.stoichiometry, [[2, -1]])
        assert net.reactions[0].propensity.kind == "mass-action"

    def test_empty_text(self):
        net = parse_model("")
        assert net.species == () and net.reactions == ()

    def test_comments_and_blank_lines(self):
        net = parse_model("# header\n\nspecies A  # trailing\nR: 0 -> A @ 2.0\n")
        assert net.n_reactions == 1

    def test_unlabelled_reactions_get_labels(self):
        net = parse_model("species A\n0 -> A @ 1.0\nA -> 0 @ 1.0")
        assert [r.label for r in net.reactions] == ["R1", "R2"]

    def test_adjacent_coefficient(self):
        net = parse_model("species A\nR: 2A -> 0 @ 1.0")
        assert net.reactions[0].propensity.kind == "dimer"

    def test_repeated_reactant_sums(self):
        net = parse_model("species A\nR: A + A -> 0 @ 1.0")
        assert net.reactions[0].propensity.kind == "dimer"

    def test_catalyst_keeps_full_multiset(self):
        net = parse_model("species C E\nR: C + E -> E @ 1.0")
        prop = net.reactions[0].propensity
        assert prop.kind == "bilinear"
        assert net.reactions[0].nu == (1, 0)

    def test_numeric_rate(self):
        net = parse_model("species A\nR: 0 -> A @ 2.5e-3")
        assert net.reactions[0].propensity.kind == "constant"
        assert net.reactions[0].rate == pytest.approx(2.5e-3)


class TestKindInference:
    @pytest.mark.parametrize(
        "line,kind",
        [
            ("R: 0 -> A @ 1.0", "constant"),
            ("R: A -> 0 @ 1.0", "linear"),
            ("R: A + B -> 0 @ 1.0", "bilinear"),
            ("R: 2 A -> 0 @ 1.0", "dimer"),
            ("R: 2 A + B -> 0 @ 1.0", "mass-action"),
            ("R: 3 A -> 0 @ 1.0", "mass-action"),
        ],
        # CamelCase kind ids keep the test names stable, e.g. "R: 2 A -> 0 @ 1.0-Dimer"
        ids=lambda v: v if v.startswith("R:") else v.title().replace("-", ""),
    )
    def test_kinds(self, line, kind):
        net = parse_model(f"species A B\n{line}")
        assert net.reactions[0].propensity.kind == kind

    def test_dimer_matches_elementary_form(self):
        # "2 A -> 0 @ k" evaluates as k a (a - 1)
        net = parse_model("species A\nR: 2 A -> 0 @ 3.0")
        from jkl.model import propensity_eval

        assert propensity_eval(net, [7])[0] == pytest.approx(3.0 * 7 * 6)


class TestDiagnostics:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("species A\nR: A -> B @ 1.0", "unknown species"),
            ("species A\nR: A -> 0 @ kk", "unknown parameter"),
            ("species A\nR: 4 A -> 0 @ 1.0", "order 4"),
            ("species A A", "duplicate species"),
            ("species A\nk = 1\nk = 2", "duplicate parameter"),
            ("species A\nR: A -> 0", "end of line"),
            ("species A\nR: -> 0 @ 1.0", "species name"),
            ("species A\nR: A -> 0 @ 1.0 junk", "trailing"),
            ("species A\nR: 1.5 A -> 0 @ 1.0", "positive integer"),
            ("species", "no names"),
            (b"\xff\xfe junk", "UTF-8"),
        ],
    )
    def test_messages(self, text, fragment):
        with pytest.raises(ModelError, match=fragment):
            parse_model(text)

    def test_line_and_column_reported(self):
        try:
            parse_model("species A\nR: A -> Bz @ 1.0")
        except ModelError as exc:
            assert exc.diagnostic.line == 2
            assert exc.diagnostic.column == 9
        else:
            pytest.fail("expected a diagnostic")

    @pytest.mark.parametrize(
        "text,line,column",
        [
            # the unlabelled reaction on line 3 is auto-labelled R2
            ("species A B\nR2: A -> B @ 1\n0 -> A @ 2\nB -> 0 @ 3", 3, 1),
            ("species A\n0 -> A @ 1\nR1: A -> 0 @ 1", 3, 1),
            ("species A\nR: 0 -> A @ 1\n  R: A -> 0 @ 1", 3, 3),
        ],
    )
    def test_duplicate_reaction_label(self, text, line, column):
        with pytest.raises(ModelError, match="duplicate reaction label") as info:
            parse_model(text)
        assert (info.value.diagnostic.line, info.value.diagnostic.column) == (line, column)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_round_trip(self, name):
        net = PRESETS[name].network
        assert parse_model(serialize_model(net)) == net

    def test_serialize_is_canonical_fixed_point(self):
        net = PRESETS["enzyme"].network
        text = serialize_model(net)
        assert serialize_model(parse_model(text)) == text

    def test_empty_network_serializes_to_header(self):
        from jkl.model import ReactionNetwork

        text = serialize_model(ReactionNetwork((), (), {}))
        assert text.startswith("#")
        assert parse_model(text).n_species == 0


@st.composite
def random_network_text(draw):
    names = draw(
        st.lists(
            st.text(alphabet="ABCXYZ", min_size=1, max_size=2).map(lambda s: "S" + s),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    lines = ["species " + " ".join(names)]
    n_rxn = draw(st.integers(1, 5))
    for i in range(n_rxn):
        order = draw(st.integers(0, 3))
        lhs_terms = [draw(st.sampled_from(names)) for _ in range(order)]
        rhs_terms = [
            draw(st.sampled_from(names))
            for _ in range(draw(st.integers(0, 3)))
        ]
        lhs = " + ".join(lhs_terms) if lhs_terms else "0"
        rhs = " + ".join(rhs_terms) if rhs_terms else "0"
        rate = draw(st.floats(min_value=0.001, max_value=100.0, allow_nan=False))
        lines.append(f"X{i}: {lhs} -> {rhs} @ {rate!r}")
    return "\n".join(lines)


class TestProperties:
    @given(random_network_text())
    @settings(max_examples=150, deadline=None)
    def test_generated_models_round_trip(self, text):
        net = parse_model(text)
        assert parse_model(serialize_model(net)) == net

    @given(st.binary(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_bytes_never_crash(self, blob):
        try:
            parse_model(blob)
        except ModelError:
            pass

    @given(st.text(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_text_never_crash(self, text):
        try:
            parse_model(text)
        except ModelError:
            pass


def _outcome(parse, text):
    """The network with its rate and parameter texts, or the diagnostic."""
    try:
        net = parse(text)
    except ModelError as exc:
        d = exc.diagnostic
        return d.message, d.line, d.column
    rates = [r.propensity.rate_text for r in net.reactions]
    return net, rates, [(k, repr(v)) for k, v in net.parameters.items()]


def _assert_same_as_tokens(text):
    assert _outcome(parse_model, text) == _outcome(_parse_tokens, text)


# a valid document with a line of every kind; the unlabelled reaction is R3
_LINES = [
    "species A B C",
    "k1 = 1.0",
    "k2 = -2.5e-3",
    "R1: 0 -> A @ k1",
    "R2: A + B -> 2 C @ 0.7",
    "2 A -> B @ k2  # dimer",
    "R5: C -> 0 @ 1e2",
    "R4: A+B->C@3",
]
_MUTATION_CHARS = " \t0123456789.eE+-:=@#>AB_s\u0662"


class TestDifferential:
    """parse_model gives the token parser's network or its exact diagnostic."""

    @given(random_network_text())
    @settings(max_examples=150, deadline=None)
    def test_generated_models(self, text):
        _assert_same_as_tokens(text)

    def test_seeded_edits_of_valid_lines(self):
        rng = random.Random(20121)
        for _ in range(3000):
            lines = list(_LINES)
            i = rng.randrange(len(lines))
            line = lines[i]
            for _ in range(rng.randint(1, 3)):
                pos = rng.randint(0, len(line))
                if line and rng.random() < 0.5:
                    line = line[:pos] + line[pos + 1 :]
                else:
                    line = line[:pos] + rng.choice(_MUTATION_CHARS) + line[pos:]
            lines[i] = line
            _assert_same_as_tokens("\n".join(lines))

    @pytest.mark.parametrize(
        "text",
        [
            "species species A\nspecies -> A @ 1",
            "species species A\nR1: species -> A @ 1",
            "species A B\nspecies: A -> B @ 1",
            "species A\nspecies = 1",
            "species A B\nR1: A -> " + "1" * 5000 + " B @ 1",
            "species A B\nR1: A -> 100000000000000000000 B @ 1",
            "species A B\nR1: A -> 02 B @ 1",
            "species A B e e5A\nR1: 2e5A -> B @ 1",
            "species A B e\nR1: B -> 2e+5A @ 1",
            "species A eA\nR1: 2eA -> A @ 1",
            "species A B\nR1: 2.A -> B @ 1",
            "species A B\nR1: 2A -> B @ 1",
            "species A B\nR1: 0 A -> B @ 1",
            "species A B\nR1: A + 0 -> B @ 1",
            "species A B\nR1: A -> B + 0 @ 1",
            "species A B\nR1: A -> B @ \u0662.\u0665",
            "species A B\nR1: \u0662 A -> B @ 1",
        ],
        ids=[
            "species-as-reactant-line",
            "species-as-species-name",
            "species-as-label",
            "species-as-parameter",
            "coefficient-5000-digits",
            "coefficient-21-digits",
            "leading-zero",
            "exponent-coefficient",
            "signed-exponent-coefficient",
            "e-species",
            "dot-coefficient",
            "adjacent-coefficient",
            "zero-term",
            "plus-zero",
            "product-plus-zero",
            "unicode-digit-rate",
            "unicode-digit-coefficient",
        ],
    )
    def test_traps(self, text):
        _assert_same_as_tokens(text)


class TestLinePathCoverage:
    """Every text the repository parses in bulk is read by one match per line."""

    def test_presets_and_golden_texts(self):
        texts = [p.text for p in PRESETS.values()] + [MIXED, *WEIGHTED.values()]
        for text in texts:
            assert _parse_lines(text) is not None, text

    def test_random_order2_texts(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            text = _random_order2(rng)[0]
            assert _parse_lines(text) is not None, text
