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

Every line is read by one match of a line pattern, and the rules on
what a line means (declared names, unique labels, the order cap) act on
that match.  A line holding a syntax error is walked token by token only
to write its diagnostic.  All failures raise :class:`ModelError`
carrying a diagnostic with line and column; arbitrary byte input never
raises anything else.
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


# Every line is read by one _LINE.fullmatch, whose groups split it where
# _TOKEN does: a coefficient is a whole digit run that no exponent follows
# (in "2e5A" the tokenizer reads the number 2e5), and a line that starts
# with the word "species" is a species list or nothing.  A line outside
# the pattern, or a reaction whose coefficient reads 0 or is too long for
# int(), holds a syntax error, and only the token walk locates it.
_IDENT = r"[A-Za-z_][A-Za-z_0-9]*"
_TERM = rf"(?:\d+(?![eE][+-]?\d)\s*)?{_IDENT}"
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
_IDENTS = re.compile(_IDENT)


def _declare(index: dict[str, int], names: list[str], raw: str, lineno: int) -> None:
    """Add a species line's names to ``index``; a name already there is an
    error at its column (the k-th name is the line's (k+1)-th identifier)."""
    for k, name in enumerate(names):
        if name in index:
            column = [m.start() for m in _IDENTS.finditer(raw)][k + 1] + 1
            raise ModelError(f"duplicate species {name!r}", lineno, column)
        index[name] = len(index)


def _reaction_syntax(tokens: list[tuple[str, str, int]], lineno: int) -> None:
    """Raise the syntax error of a reaction line, walking its tokens."""
    cur = _Cursor(tokens, lineno)
    if len(tokens) >= 2 and tokens[0][0] == "ident" and tokens[1][:2] == ("sym", ":"):
        cur.next()
        cur.next()
    _parse_side(cur, "reactant")
    cur.next("arrow", "'->'")
    _parse_side(cur, "product")
    at = cur.next("sym", "'@'")
    if at[1] != "@":
        raise ModelError(f"expected '@', got {at[1]!r}", lineno, at[2])
    rate_tok = cur.next(what="rate constant or parameter name")
    cur.done()
    if rate_tok[0] not in ("number", "ident"):
        raise ModelError(
            f"expected rate constant or parameter name, got {rate_tok[1]!r}",
            lineno,
            rate_tok[2],
        )


def parse_model(text: str | bytes) -> ReactionNetwork:
    """Parse model text into a :class:`ReactionNetwork`.

    Raises:
        ModelError: on any syntax or reference problem, with line/column.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelError(f"input is not valid UTF-8 ({exc.reason})") from None
    index: dict[str, int] = {}
    parameters: dict[str, float] = {}
    # Reaction lines are resolved in a second pass, once all species are
    # known.  A line the pattern rejects is tokenized in this pass, where its
    # characters are checked; the first such reaction line ends the second
    # pass with its syntax error, after the reaction lines before it.
    pending = []
    broken = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _LINE.fullmatch(raw)
        if m is not None:
            label, lhs, rhs, rate, rate_name, names, param, value = m.groups()
            if lhs is not None:
                if broken is None:
                    pending.append((lineno, m, label, lhs, rhs, rate, rate_name))
            elif names is not None:
                _declare(index, names.split(), raw, lineno)
            elif param is not None:
                if param in parameters:
                    raise ModelError(f"duplicate parameter {param!r}", lineno, m.start("param") + 1)
                parameters[param] = float(value)
            continue
        tokens = _tokenize(raw, lineno)
        kind, word, col = tokens[0]
        if kind == "ident" and word == "species":
            for k, (tkind, name, tcol) in enumerate(tokens[1:], start=1):
                if tkind != "ident":
                    _declare(index, [t[1] for t in tokens[1:k]], raw, lineno)
                    raise ModelError(f"expected species name, got {name!r}", lineno, tcol)
            raise ModelError("species line declares no names", lineno, col)
        if len(tokens) >= 2 and kind == "ident" and tokens[1][:2] == ("sym", "="):
            cur = _Cursor(tokens, lineno)
            cur.next()
            cur.next()
            cur.next("number", "parameter value")
            cur.done()
        if broken is None:
            broken = tokens, lineno

    reactions: list[Reaction] = []
    labels: set[str] = set()
    for lineno, m, label, lhs, rhs, rate, rate_name in pending:
        nu = [0] * len(index)
        react: dict[int, int] = {}
        unknown = None  # (side, name) of the first term naming an undeclared species
        try:
            for side, terms, sign in (("lhs", lhs, 1), ("rhs", rhs, -1)):
                for coeff, name in _TERMS.findall(terms):
                    c = int(coeff) if coeff else 1
                    if c == 0:
                        raise ValueError(coeff)
                    s = index.get(name)
                    if s is None:
                        unknown = unknown or (side, name)
                        continue
                    nu[s] += sign * c
                    if sign > 0:
                        react[s] = react.get(s, 0) + c
        except ValueError:  # a coefficient that reads 0 or is past int()'s digit limit
            _reaction_syntax(_tokenize(m.string, lineno), lineno)
        if rate_name is None:
            rate = float(rate)
        elif rate_name in parameters:
            rate = parameters[rate_name]
        else:
            raise ModelError(f"unknown parameter {rate_name!r}", lineno, m.start("rate_name") + 1)
        if unknown is not None:
            side, name = unknown
            found = _TERMS.finditer(m.string, m.start(side), m.end(side))
            column = next(t.start(2) for t in found if t[2] == name) + 1
            raise ModelError(f"unknown species {name!r}", lineno, column)
        order = sum(react.values())
        if order > MAX_ORDER:
            raise ModelError(f"reactant order {order} exceeds {MAX_ORDER}", lineno)
        if label is None:
            label = f"R{len(reactions) + 1}"
        if label in labels:
            column = m.start("label" if m["label"] else "lhs") + 1
            raise ModelError(f"duplicate reaction label {label!r}", lineno, column)
        labels.add(label)
        prop = Propensity(rate, tuple(react.items()))
        reactions.append(Reaction(label, tuple(nu), prop, rate_name))
    if broken is not None:
        _reaction_syntax(*broken)
    return ReactionNetwork(tuple(index), tuple(reactions), parameters)


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

