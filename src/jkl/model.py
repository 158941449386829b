"""In-memory representation of mass-action reaction networks.

A network is a list of species, a list of reactions and a map of named
rate constants.  Each reaction carries a stoichiometric column ``nu``
with the sign convention that firing the reaction moves the state from
``x`` to ``x - nu`` (so a pure birth has a negative entry).  Every
propensity is one :class:`Propensity`: a rate and a reactant multiset,
evaluated as the mass-action falling-factorial product.  Its ``kind`` is
derived from the multiplicities: ``"constant"`` (no reactant),
``"linear"`` (one copy of one species), ``"bilinear"`` (two distinct
species), ``"dimer"`` (two copies of one species) and ``"mass-action"``
for total order 3, which is representable for simulation but rejected
by the stability analysis.

A propensity's float expression is written once, as text, by
:func:`_expression`; every evaluator, the samplers' steppers included,
is compiled per network from that text.

All objects in this module are immutable and safe to share between
threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Propensity",
    "Reaction",
    "ReactionNetwork",
    "Diagnostic",
    "InvalidNetworkError",
    "validate_network",
    "propensity_eval",
    "drift_eval",
    "apply_reaction",
]

MAX_ORDER = 3

# reactant multiplicities -> kind; every other multiset has order 3
_KINDS = {(): "constant", (1,): "linear", (1, 1): "bilinear", (2,): "dimer"}


@dataclass(frozen=True)
class Propensity:
    """Mass-action propensity ``w(x) = k * prod_s x_s (x_s - 1) ... (x_s - m_s + 1)``.

    ``reactants`` holds the reactant multiset as ``(species, multiplicity)``
    pairs with distinct species, stored sorted by species; total order is
    capped at 3.  ``order``, ``kind`` and ``rate_text`` are derived;
    ``rate_text`` is the rate as compiled code writes it, and equality and
    hashing compare it, so rates ``0.0`` and ``-0.0`` compile apart.
    """

    rate: float = field(compare=False)
    reactants: tuple[tuple[int, int], ...] = ()
    kind: str = field(init=False, compare=False)
    rate_text: str = field(init=False, repr=False)

    def __post_init__(self):
        reactants = tuple(sorted(self.reactants))
        species, mults = zip(*reactants) if reactants else ((), ())
        if len(set(species)) != len(species):
            raise ValueError("reactant species must be distinct")
        if mults and min(mults) <= 0:
            raise ValueError("reactant multiplicities must be positive")
        order = sum(mults)
        if order > MAX_ORDER:
            raise ValueError(f"mass-action order {order} exceeds {MAX_ORDER}")
        object.__setattr__(self, "reactants", reactants)
        object.__setattr__(self, "kind", _KINDS.get(mults, "mass-action"))
        object.__setattr__(self, "rate_text", repr(float(self.rate)))

    @property
    def order(self) -> int:
        return sum(m for _, m in self.reactants)


def _expression(prop: Propensity, rate_last: bool) -> str:
    """``w(x)`` as Python text over the locals ``x0, x1, ...``.

    The rate and the falling factors multiply left to right: ``k * x0 *
    (x0 - 1)``.  With ``rate_last`` an order-2 product is formed first and
    then scaled, ``(x0 * (x0 - 1)) * k``: the lockstep batch sampler's
    association, kept because its output bytes are frozen.  Every other
    order reads the same either way.  Only ``repr(float(rate))`` and
    species indices enter the text.
    """
    rate = prop.rate_text
    factors = [
        f"x{s}" if i == 0 else f"(x{s} - {i})" for s, m in prop.reactants for i in range(m)
    ]
    if rate_last and prop.order == 2:
        return f"({' * '.join(factors)}) * {rate}"
    return " * ".join([rate, *factors])


def _compile(source: str, name: str, **namespace) -> Callable:
    """Run generated ``source`` and return its function ``name``.

    ``inf`` and ``nan`` are defined for the literals of non-finite rates.
    """
    namespace.update(inf=math.inf, nan=math.nan)
    exec(compile(source, f"<jkl {name}>", "exec"), namespace)
    return namespace[name]


def _rates_source(reactions: tuple, dim: int, rate_last: bool) -> str:
    """Python source of ``rates(out, x0, ..., x{D-1})``.

    It writes ``out[j] = w_j(x)`` for each reaction in index order; the
    ``x_s`` may be numbers or equal-length arrays.
    """
    head = f"def rates({', '.join(['out', *(f'x{s}' for s in range(dim))])}):"
    body = [
        f"    out[{j}] = {_expression(rxn.propensity, rate_last)}"
        for j, rxn in enumerate(reactions)
    ]
    return "\n".join([head, *(body or ["    pass"])]) + "\n"


@functools.lru_cache(maxsize=256)
def _rates(reactions: tuple, dim: int, rate_last: bool) -> Callable:
    """The compiled :func:`_rates_source`, built once per process.

    Keyed like the samplers' steppers by ``net.reactions`` and
    ``net.n_species``; the most recently used 256 evaluators are kept.
    """
    return _compile(_rates_source(reactions, dim, rate_last), "rates")


@dataclass(frozen=True)
class Reaction:
    """A reaction channel: firing moves the state from x to x - nu.

    ``rate_name`` records the named constant the rate was bound to (if
    any), which is what relative coefficient perturbations address.
    """

    label: str
    nu: tuple[int, ...]
    propensity: Propensity
    rate_name: str | None = None

    @property
    def rate(self) -> float:
        return self.propensity.rate

    def with_rate(self, rate: float) -> "Reaction":
        return dataclasses.replace(
            self, propensity=dataclasses.replace(self.propensity, rate=rate)
        )


@dataclass(frozen=True)
class ReactionNetwork:
    """An immutable mass-action reaction network.

    Attributes:
        species: ordered species names (D entries, unique).
        reactions: ordered reaction list (R entries, unique labels).
        parameters: named rate constants (values already include any
            volume scaling; the system size is fixed at 1).
    """

    species: tuple[str, ...]
    reactions: tuple[Reaction, ...]
    parameters: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "species", tuple(self.species))
        object.__setattr__(self, "reactions", tuple(self.reactions))
        if len(set(self.species)) != len(self.species):
            raise ValueError("species names must be unique")
        d = self.n_species
        labels: set[str] = set()
        for rxn in self.reactions:
            if rxn.label in labels:
                raise ValueError(f"duplicate reaction label {rxn.label!r}")
            labels.add(rxn.label)
            if len(rxn.nu) != d:
                raise ValueError(f"reaction {rxn.label}: stoichiometry has wrong dimension")
            for s, _ in rxn.propensity.reactants:
                if not 0 <= s < d:
                    raise ValueError(f"reaction {rxn.label}: invalid species index {s}")

    @property
    def n_species(self) -> int:
        return len(self.species)

    @property
    def n_reactions(self) -> int:
        return len(self.reactions)

    @property
    def stoichiometry(self) -> np.ndarray:
        """Stoichiometric matrix N (D x R); column r is reactions[r].nu."""
        d, r = self.n_species, self.n_reactions
        mat = np.zeros((d, r), dtype=np.int64)
        for j, rxn in enumerate(self.reactions):
            mat[:, j] = rxn.nu
        return mat

    def reactions_for_parameter(self, name: str) -> list[int]:
        return [j for j, rxn in enumerate(self.reactions) if rxn.rate_name == name]

    def with_scaled_rates(self, factors: dict[int, float]) -> "ReactionNetwork":
        """Return a copy with reaction ``j``'s rate multiplied by ``factors[j]``."""
        reactions = []
        for j, rxn in enumerate(self.reactions):
            if j in factors:
                rxn = rxn.with_rate(rxn.rate * factors[j])
            reactions.append(rxn)
        params = dict(self.parameters)
        for j, f in factors.items():
            name = self.reactions[j].rate_name
            if name is not None and name in params:
                params[name] = self.parameters[name] * f
        return ReactionNetwork(self.species, tuple(reactions), params)


@dataclass(frozen=True)
class Diagnostic:
    """A validation finding; the empty list means the network is valid."""

    message: str
    reaction: str | None = None
    line: int | None = None
    column: int | None = None

    def __str__(self) -> str:
        loc = ""
        if self.line is not None:
            loc = f"line {self.line}"
            if self.column is not None:
                loc += f", col {self.column}"
            loc += ": "
        rxn = f" [reaction {self.reaction}]" if self.reaction else ""
        return f"{loc}{self.message}{rxn}"


def validate_network(net: ReactionNetwork) -> list[Diagnostic]:
    """Check lattice conservation, rate sanity and that every stoichiometric
    entry fits int64; returns diagnostics.

    A reaction conserves the non-negative lattice iff every species it
    consumes (positive stoichiometric entry) appears in its reactant
    multiset with at least that multiplicity: the propensity then
    vanishes before the state could go negative.
    """
    issues: list[Diagnostic] = []
    for rxn in net.reactions:
        k = rxn.propensity.rate
        if not math.isfinite(k):
            issues.append(Diagnostic("rate constant is not finite", rxn.label))
        elif k < 0:
            issues.append(Diagnostic(f"rate constant is negative ({k})", rxn.label))
        required = dict(rxn.propensity.reactants)
        for s, change in enumerate(rxn.nu):
            if not -(2**63) <= change < 2**63:
                issues.append(
                    Diagnostic(
                        f"stoichiometric entry {change} of {net.species[s]} "
                        "does not fit a 64-bit integer",
                        rxn.label,
                    )
                )
            elif change > 0 and required.get(s, 0) < change:
                issues.append(
                    Diagnostic(
                        f"consumes {change} of {net.species[s]} but the propensity "
                        f"only vanishes below {required.get(s, 0)} copies; "
                        "a firing could leave the non-negative lattice",
                        rxn.label,
                    )
                )
    return issues


class InvalidNetworkError(ValueError):
    """A network that fails :func:`validate_network`, with its diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        msgs = "; ".join(str(d) for d in diagnostics)
        super().__init__(f"network fails validation: {msgs}")


def _check_network(net: ReactionNetwork) -> None:
    """Raise :class:`InvalidNetworkError` if ``net`` has any diagnostic."""
    issues = validate_network(net)
    if issues:
        raise InvalidNetworkError(issues)


def propensity_eval(net: ReactionNetwork, x: Sequence[float]) -> np.ndarray:
    """Evaluate the propensity vector w(x) (length R) at a state.

    Falling factorials are formed as integer/float products directly,
    which is exact for integer states.
    """
    if len(x) != net.n_species:
        raise ValueError(f"state has dimension {len(x)}, expected {net.n_species}")
    w = np.empty(net.n_reactions)
    _rates(net.reactions, net.n_species, False)(w, *x)
    return w


def drift_eval(net: ReactionNetwork, x: Sequence[float]) -> np.ndarray:
    """Drift F(x) = -N w(x) of the associated rate equations."""
    w = propensity_eval(net, x)
    if net.n_reactions == 0:
        return np.zeros(net.n_species)
    return -(net.stoichiometry @ w)


def apply_reaction(x: Sequence[int], net: ReactionNetwork, r: int) -> np.ndarray:
    """Apply reaction r to state x, returning x - nu_r.

    Raises ValueError if the result leaves the non-negative lattice,
    which indicates a validation gap in the network.
    """
    xv = np.asarray(x, dtype=np.int64)
    nu = np.array(net.reactions[r].nu, dtype=np.int64)
    out = xv - nu
    if (out < 0).any():
        raise ValueError(
            f"reaction {net.reactions[r].label} fired at {list(xv)} leaves "
            "the non-negative lattice (validation gap)"
        )
    return out
