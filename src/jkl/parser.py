"""Line-oriented text format for reaction networks (``.rxn``).

Grammar (whitespace-insensitive within a line, ``#`` starts a comment)::

    model    := line*
    line     := "species" ident+ | ident "=" number | reaction
    reaction := [ident ":"] side "->" side "@" (ident | number)
    side     := "0" | term ("+" term)*
    term     := [integer] ident

Each reaction's propensity is a :class:`~jkl.model.Propensity` over
the reactant side's multiset (repeated terms add up, so ``A + A`` is
``2 A``); its kind follows from that multiset.  Total reactant order is
capped at 3.  A species appearing on both sides (a catalyst) is encoded
through the net stoichiometric column while the propensity keeps the
full reactant multiset.  Reaction labels are unique: an unlabelled
reaction is named ``R<n>`` after its position, and a name used twice is
an error at its second occurrence.

All failures raise :class:`ModelError` carrying a diagnostic with line
and column; arbitrary byte input never raises anything else.
"""

from __future__ import annotations

import re

from .model import MAX_ORDER, Diagnostic, Propensity, Reaction, ReactionNetwork

__all__ = ["ModelError", "parse_model", "serialize_model"]


class ModelError(Exception):
    """Raised on any malformed model text; carries a Diagnostic."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.diagnostic = Diagnostic(message, line=line, column=column)
        super().__init__(str(self.diagnostic))


_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<arrow>->)
  | (?P<sym>[:+=@])
    """,
    re.VERBOSE,
)


def _tokenize(line: str, lineno: int) -> list[tuple[str, str, int]]:
    """Split one source line into (kind, text, column) tokens."""
    code = line.split("#", 1)[0]
    tokens = []
    pos = 0
    while pos < len(code):
        m = _TOKEN.match(code, pos)
        if m is None:
            raise ModelError(f"unexpected character {code[pos]!r}", lineno, pos + 1)
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), m.start() + 1))
    return tokens


class _Cursor:
    """Token stream with one-token lookahead and positioned errors."""

    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.lineno = lineno
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self, expect: str | None = None, what: str = ""):
        tok = self.peek()
        if tok is None:
            raise ModelError(f"unexpected end of line, expected {what or expect}", self.lineno)
        if expect is not None and tok[0] != expect:
            raise ModelError(
                f"expected {what or expect}, got {tok[1]!r}", self.lineno, tok[2]
            )
        self.i += 1
        return tok

    def done(self):
        tok = self.peek()
        if tok is not None:
            raise ModelError(f"trailing input {tok[1]!r}", self.lineno, tok[2])


def _parse_side(cur: _Cursor, what: str) -> list[tuple[int, str, int]]:
    """Parse a reaction side into (coefficient, species name, column) terms."""
    tok = cur.peek()
    if tok is not None and tok[0] == "number" and tok[1] == "0":
        cur.next()
        return []
    terms = []
    while True:
        tok = cur.peek()
        if tok is None:
            raise ModelError(f"missing {what} side", cur.lineno)
        coeff = 1
        if tok[0] == "number":
            cur.next()
            try:
                coeff = int(tok[1])
            except ValueError:
                coeff = -1
            if coeff <= 0:
                raise ModelError(
                    f"stoichiometric coefficient must be a positive integer, got {tok[1]!r}",
                    cur.lineno,
                    tok[2],
                )
        name_tok = cur.next("ident", "species name")
        terms.append((coeff, name_tok[1], name_tok[2]))
        nxt = cur.peek()
        if nxt is not None and nxt[0] == "sym" and nxt[1] == "+":
            cur.next()
            continue
        return terms


# A well-formed line matches _LINE once, and its groups split it where
# _TOKEN does: a coefficient is a whole digit run that no exponent
# follows (in "2e5A" the tokenizer reads the number 2e5), of at most 18
# digits, below int()'s digit limit and 2**63.  A line that starts with
# the word "species" is a species list or nothing.
_IDENT = r"[A-Za-z_][A-Za-z_0-9]*"
_TERM = rf"(?:\d{{1,18}}(?![eE][+-]?\d)\s*)?{_IDENT}"
_SIDE = rf"0|{_TERM}(?:\s*\+\s*{_TERM})*"
_NUMBER = r"-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
_NOT_SPECIES = r"(?!species(?![A-Za-z_0-9]))"
_LINE = re.compile(
    rf"""\s*(?:
        {_NOT_SPECIES}(?:(?P<label>{_IDENT})\s*:\s*)?(?P<lhs>{_SIDE})\s*->\s*(?P<rhs>{_SIDE})
        \s*@\s*(?:(?P<rate>{_NUMBER})|(?P<rate_name>{_IDENT}))
      | species(?P<names>(?:\s+{_IDENT})+)
      | {_NOT_SPECIES}(?P<param>{_IDENT})\s*=\s*(?P<value>{_NUMBER})
      |
    )\s*(?:\#.*)?""",
    re.VERBOSE,
)
_TERMS = re.compile(rf"(\d*)\s*({_IDENT})")


def _parse_lines(text: str) -> ReactionNetwork | None:
    """The network of ``text`` when every line is well formed, else None.

    Never raises: any text that :func:`_parse_tokens` would reject, and any
    line outside :data:`_LINE`, returns None, so the token parser runs and
    writes the diagnostic.
    """
    species: list[str] = []
    parameters: dict[str, float] = {}
    pending = []
    for raw in text.splitlines():
        m = _LINE.fullmatch(raw)
        if m is None:
            return None
        label, lhs, rhs, rate, rate_name, names, param, value = m.groups()
        if lhs is not None:
            pending.append((label, lhs, rhs, rate, rate_name))
        elif names is not None:
            species += names.split()
        elif param is not None:
            if param in parameters:
                return None
            parameters[param] = float(value)
    index = {name: i for i, name in enumerate(species)}
    if len(index) != len(species):
        return None

    reactions: list[Reaction] = []
    labels: set[str] = set()
    for label, lhs, rhs, rate, rate_name in pending:
        if rate_name is None:
            rate = float(rate)
        elif rate_name in parameters:
            rate = parameters[rate_name]
        else:
            return None
        nu = [0] * len(species)
        react: dict[int, int] = {}
        for side, sign in ((lhs, 1), (rhs, -1)):
            for coeff, name in _TERMS.findall(side):
                s = index.get(name)
                c = int(coeff) if coeff else 1
                if s is None or c == 0:
                    return None
                nu[s] += sign * c
                if sign > 0:
                    react[s] = react.get(s, 0) + c
        if sum(react.values()) > MAX_ORDER:
            return None
        label = label or f"R{len(reactions) + 1}"
        if label in labels:
            return None
        labels.add(label)
        prop = Propensity(rate, tuple(react.items()))
        reactions.append(Reaction(label, tuple(nu), prop, rate_name))
    return ReactionNetwork(tuple(species), tuple(reactions), parameters)


def parse_model(text: str | bytes) -> ReactionNetwork:
    """Parse model text into a :class:`ReactionNetwork`.

    A text whose lines are all well formed is read by :func:`_parse_lines`;
    any other text goes through :func:`_parse_tokens`, which writes every
    diagnostic.

    Raises:
        ModelError: on any syntax or reference problem, with line/column.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelError(f"input is not valid UTF-8 ({exc.reason})") from None
    net = _parse_lines(text)
    return net if net is not None else _parse_tokens(text)


def _parse_tokens(text: str) -> ReactionNetwork:
    """Parse ``text`` token by token; the reference parser and the only one
    that raises :class:`ModelError`."""
    species: list[str] = []
    parameters: dict[str, float] = {}
    # reaction lines are resolved in a second pass, once all species are known
    pending: list[tuple[int, list]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, lineno)
        if not tokens:
            continue
        kind, word, col = tokens[0]
        if kind == "ident" and word == "species":
            if len(tokens) == 1:
                raise ModelError("species line declares no names", lineno, col)
            for tkind, name, tcol in tokens[1:]:
                if tkind != "ident":
                    raise ModelError(f"expected species name, got {name!r}", lineno, tcol)
                if name in species:
                    raise ModelError(f"duplicate species {name!r}", lineno, tcol)
                species.append(name)
        elif len(tokens) >= 2 and kind == "ident" and tokens[1][:2] == ("sym", "="):
            cur = _Cursor(tokens, lineno)
            cur.next()
            cur.next()
            val_tok = cur.next("number", "parameter value")
            cur.done()
            if word in parameters:
                raise ModelError(f"duplicate parameter {word!r}", lineno, col)
            parameters[word] = float(val_tok[1])
        else:
            pending.append((lineno, tokens))

    reactions: list[Reaction] = []
    labels: set[str] = set()
    index = {name: i for i, name in enumerate(species)}
    for lineno, tokens in pending:
        cur = _Cursor(tokens, lineno)
        label = None
        label_col = tokens[0][2]
        if (
            len(tokens) >= 2
            and tokens[0][0] == "ident"
            and tokens[1][:2] == ("sym", ":")
        ):
            label = cur.next()[1]
            cur.next()
        lhs = _parse_side(cur, "reactant")
        cur.next("arrow", "'->'")
        rhs = _parse_side(cur, "product")
        at = cur.next("sym", "'@'")
        if at[1] != "@":
            raise ModelError(f"expected '@', got {at[1]!r}", lineno, at[2])
        rate_tok = cur.next(what="rate constant or parameter name")
        cur.done()

        if rate_tok[0] == "number":
            rate, rate_name = float(rate_tok[1]), None
        elif rate_tok[0] == "ident":
            if rate_tok[1] not in parameters:
                raise ModelError(f"unknown parameter {rate_tok[1]!r}", lineno, rate_tok[2])
            rate, rate_name = parameters[rate_tok[1]], rate_tok[1]
        else:
            raise ModelError(
                f"expected rate constant or parameter name, got {rate_tok[1]!r}",
                lineno,
                rate_tok[2],
            )

        react: dict[int, int] = {}
        prod: dict[int, int] = {}
        for side, counts in ((lhs, react), (rhs, prod)):
            for coeff, name, col in side:
                if name not in index:
                    raise ModelError(f"unknown species {name!r}", lineno, col)
                counts[index[name]] = counts.get(index[name], 0) + coeff
        order = sum(react.values())
        if order > MAX_ORDER:
            raise ModelError(
                f"reactant order {order} exceeds {MAX_ORDER}", lineno
            )

        if label is None:
            label = f"R{len(reactions) + 1}"
        if label in labels:
            raise ModelError(f"duplicate reaction label {label!r}", lineno, label_col)
        labels.add(label)
        nu = tuple(react.get(s, 0) - prod.get(s, 0) for s in range(len(species)))
        reactions.append(Reaction(label, nu, Propensity(rate, tuple(react.items())), rate_name))

    return ReactionNetwork(tuple(species), tuple(reactions), parameters)


def _format_side(counts: dict[str, int]) -> str:
    if not counts:
        return "0"
    terms = []
    for name, m in counts.items():
        terms.append(name if m == 1 else f"{m} {name}")
    return " + ".join(terms)


def serialize_model(net: ReactionNetwork) -> str:
    """Render a network in canonical text form.

    The output reparses to a structurally identical network: species in
    declared order, parameters sorted by name, one labelled reaction per
    line, rates by name where the reaction was bound to a parameter.
    """
    lines = ["# reaction network (.rxn)"]
    if net.species:
        lines.append("species " + " ".join(net.species))
    for name in sorted(net.parameters):
        lines.append(f"{name} = {net.parameters[name]!r}")
    for rxn in net.reactions:
        multiset = dict(rxn.propensity.reactants)
        react = {net.species[s]: m for s, m in multiset.items()}
        prod: dict[str, int] = {}
        for s, change in enumerate(rxn.nu):
            p = multiset.get(s, 0) - change
            if p < 0:
                raise ValueError(
                    f"reaction {rxn.label} implies a negative product count; "
                    "serialize requires a lattice-conserving network"
                )
            if p:
                prod[net.species[s]] = p
        rate = rxn.rate_name if rxn.rate_name is not None else repr(rxn.propensity.rate)
        lines.append(f"{rxn.label}: {_format_side(react)} -> {_format_side(prod)} @ {rate}")
    return "\n".join(lines) + "\n"

