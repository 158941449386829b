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

All objects in this module are immutable and safe to share between
threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Propensity",
    "Reaction",
    "ReactionNetwork",
    "Diagnostic",
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
    capped at 3.  ``order`` and ``kind`` are derived from it.
    ``evaluate(x)`` computes ``w(x)`` at one state and
    :meth:`evaluate_batch` at every row of a state matrix; both branch
    once per kind, so the elementary kinds keep their direct products.
    """

    rate: float
    reactants: tuple[tuple[int, int], ...] = ()
    kind: str = field(init=False, compare=False)
    evaluate: Callable[[Sequence[float]], float] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        reactants = tuple(sorted(self.reactants))
        object.__setattr__(self, "reactants", reactants)
        species = [s for s, _ in reactants]
        if len(set(species)) != len(species):
            raise ValueError("reactant species must be distinct")
        if any(m <= 0 for _, m in reactants):
            raise ValueError("reactant multiplicities must be positive")
        if self.order > MAX_ORDER:
            raise ValueError(f"mass-action order {self.order} exceeds {MAX_ORDER}")
        kind = _KINDS.get(tuple(m for _, m in reactants), "mass-action")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "evaluate", _scalar_evaluator(self))

    def __reduce__(self):
        # the evaluator is a closure; rebuild it instead of pickling it
        return Propensity, (self.rate, self.reactants)

    @property
    def order(self) -> int:
        return sum(m for _, m in self.reactants)

    def evaluate_batch(self, x: np.ndarray, out: np.ndarray) -> None:
        """Write ``w`` at each row of the (n, D) state matrix x into out (n,)."""
        kind, k = self.kind, self.rate
        if kind == "constant":
            out.fill(k)
        elif kind == "linear":
            np.multiply(x[:, self.reactants[0][0]], k, out=out)
        elif kind == "bilinear":
            (i, _), (j, _) = self.reactants
            np.multiply(x[:, i], x[:, j], out=out)
            out *= k
        elif kind == "dimer":
            i = self.reactants[0][0]
            np.subtract(x[:, i], 1.0, out=out)
            out *= x[:, i]
            out *= k
        else:
            out.fill(k)
            for s, m in self.reactants:
                for step in range(m):
                    out *= x[:, s] - step


def _scalar_evaluator(prop: Propensity) -> Callable[[Sequence[float]], float]:
    """A closure computing ``w(x)`` at one state, specialised to the kind."""
    kind, k, reactants = prop.kind, prop.rate, prop.reactants
    if kind == "constant":
        return lambda x: k
    if kind == "linear":
        i = reactants[0][0]
        return lambda x: k * x[i]
    if kind == "bilinear":
        (i, _), (j, _) = reactants
        return lambda x: k * x[i] * x[j]
    if kind == "dimer":
        i = reactants[0][0]

        def dimer(x):
            xi = x[i]
            return k * xi * (xi - 1)

        return dimer

    def mass_action(x):
        w = k
        for s, m in reactants:
            xs = x[s]
            for step in range(m):
                w *= xs - step
        return w

    return mass_action


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReactionNetwork):
            return NotImplemented
        return (
            self.species == other.species
            and self.reactions == other.reactions
            and self.parameters == other.parameters
        )

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

    def species_index(self, name: str) -> int:
        try:
            return self.species.index(name)
        except ValueError:
            raise KeyError(f"unknown species {name!r}") from None

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
    """Check lattice conservation and rate sanity; returns diagnostics.

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
            if change > 0 and required.get(s, 0) < change:
                issues.append(
                    Diagnostic(
                        f"consumes {change} of {net.species[s]} but the propensity "
                        f"only vanishes below {required.get(s, 0)} copies; "
                        "a firing could leave the non-negative lattice",
                        rxn.label,
                    )
                )
    return issues


def propensity_eval(net: ReactionNetwork, x: Sequence[float]) -> np.ndarray:
    """Evaluate the propensity vector w(x) (length R) at a state.

    Falling factorials are formed as integer/float products directly,
    which is exact for integer states.
    """
    if len(x) != net.n_species:
        raise ValueError(f"state has dimension {len(x)}, expected {net.n_species}")
    return np.array([rxn.propensity.evaluate(x) for rxn in net.reactions], dtype=float)


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
