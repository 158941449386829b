"""Built-in example networks used by the CLI, demos and tests.

Each preset bundles canonical model text, default parameters (already in
the text) and a default initial state.  The ``cubic`` preset carries an
order-3 propensity and is valid for simulation only; the stability
analysis rejects it with a dedicated error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .parser import parse_model
from .model import ReactionNetwork

__all__ = ["Preset", "PRESETS", "get_preset"]


@dataclass(frozen=True)
class Preset:
    text: str
    x0: tuple[int, ...]

    @property
    def network(self) -> ReactionNetwork:
        return parse_model(self.text)


_BIMOL = """\
# bi-molecular birth-death: two species fed at a constant rate, pair decay
species A B
k1 = 1.0
k2 = 1.0
R1: 0 -> A @ k1
R2: 0 -> B @ k1
R3: A + B -> 0 @ k2
"""

_REVERSIBLE = """\
# closed reversible association A + B <-> C (a + b + 2c is conserved)
species A B C
k1 = 1.0
k2 = 1.0
R1: A + B -> C @ k1
R2: C -> A + B @ k2
"""

_REVERSIBLE_OPEN = """\
# open reversible association with exchange of C against a reservoir
species A B C
k1 = 1.0
k2 = 1.0
k3 = 1.0
k4 = 1.0
R1: A + B -> C @ k1
R2: C -> A + B @ k2
R3: C -> 0 @ k3
R4: 0 -> C @ k4
"""

_EXTENDED_BIMOL = """\
# bi-molecular birth-death extended with first-order decays
species A B
k1 = 1.0
k2 = 1.0
k3 = 1.0
R1: 0 -> A @ k1
R2: 0 -> B @ k1
R3: A -> 0 @ k3
R4: B -> 0 @ k3
R5: A + B -> 0 @ k2
"""

_CUBIC = """\
# zero-drift cubic pair: third moment blows up in finite time from X0 >= 3
species X
R1: 3 X -> X @ 0.5
R2: 3 X -> 4 X @ 1.0
"""

# Enzyme-complex model: linear in/outflow of C and E plus the expansive
# degradation C + E -> E.  Time unit fixed by betaC = 1; the E level is 10;
# alphaC solves <C> = alphaC / (betaC + k <E>) = 10 at k = 100.
_ENZYME = """\
species C E
alphaC = 10010.0
betaC = 1.0
alphaE = 10.0
betaE = 1.0
k = 100.0
R1: 0 -> C @ alphaC
R2: C -> 0 @ betaC
R3: 0 -> E @ alphaE
R4: E -> 0 @ betaE
R5: C + E -> E @ k
"""

# One-dimensional linearization: degradation at the frozen mean enzyme level.
_ENZYME_LINEAR = """\
species C
alphaC = 10010.0
betaC = 1.0
kE = 1000.0
R1: 0 -> C @ alphaC
R2: C -> 0 @ betaC
R3: C -> 0 @ kE
"""

PRESETS: dict[str, Preset] = {
    "bimol": Preset(_BIMOL, (0, 0)),
    "reversible": Preset(_REVERSIBLE, (5, 5, 0)),
    "reversible-open": Preset(_REVERSIBLE_OPEN, (0, 0, 0)),
    "extended-bimol": Preset(_EXTENDED_BIMOL, (0, 0)),
    "cubic": Preset(_CUBIC, (3,)),
    "enzyme": Preset(_ENZYME, (10, 10)),
    "enzyme-linear": Preset(_ENZYME_LINEAR, (10,)),
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r} (available: {known})") from None
