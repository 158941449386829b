"""Extreme rates: every stage of a bound run is rejected or finite-or-inf.

A fixed corpus of seeded order-2 networks, shaped like the golden
screen's, draws each rate from zero, the float range's ends and values in
between.  ``analyze`` either accepts a network or raises an
``AnalyzerError`` (exit 3 on the command line); an accepted network's
moment and perturbation curves read values in [0, inf], never NaN, and no
stage warns.  The ODE-divergence bound on the presets over a long horizon,
where its exponent overflows, and the cubic bound at and around its
asymptote obey the same rule.
"""

import math
import re
import warnings

import numpy as np
import pytest
from test_golden import _random_order2

from jkl.analyzer import AnalyzerError, analyze
from jkl.bounds import (
    CUBIC_COMPARISON_GAMMA,
    coefficient_perturbation_curve,
    cubic_blowup_lowerbound,
    first_moment_curve,
    initial_perturbation_curve,
    ode_divergence_bound,
    pth_moment_curve,
    second_moment_curve,
)
from jkl.cli import main
from jkl.parser import parse_model
from jkl.presets import get_preset

RATES = (0.0, 1e-300, 1e-10, 1.0, 1e10, 1e150, 1e300, 1.7e308)
GRID = [0.0, 0.5, 1.0, 800.0]


def _corpus(n: int = 300, seed: int = 2026) -> list[str]:
    """``n`` texts of ``_random_order2`` with every rate drawn from RATES."""
    rng = np.random.default_rng(seed)
    texts = []
    for _ in range(n):
        text = _random_order2(rng)[0]
        texts.append(re.sub(r"@ \S+", lambda _: f"@ {RATES[rng.integers(len(RATES))]!r}", text))
    return texts


CORPUS = _corpus()


def _curves(report, n_species: int):
    x0 = np.ones(n_species)
    y0 = x0.copy()
    y0[0] += 1.0
    x0_norm = float(np.dot(report.l, x0))
    return {
        "first": first_moment_curve(report, x0_norm, GRID),
        "second": second_moment_curve(report, x0_norm, GRID),
        "third": pth_moment_curve(report, x0_norm, 3, GRID),
        "initial": initial_perturbation_curve(report, x0, y0, GRID),
        "coeff-small-time": coefficient_perturbation_curve(report, x0, 0.1, 0.1, GRID),
        "coeff-large-time": coefficient_perturbation_curve(
            report, x0, 0.1, 0.1, GRID, variant="large-time"
        ),
    }


def test_every_stage_is_rejected_or_finite_or_inf():
    outcomes = {"accepted": 0, "rejected": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in CORPUS:
            net = parse_model(text)
            try:
                report = analyze(net, weight="auto")
            except AnalyzerError:
                outcomes["rejected"] += 1
                continue
            outcomes["accepted"] += 1
            for name, curve in _curves(report, net.n_species).items():
                values = curve.values.tolist()
                assert all(0.0 <= v <= math.inf for v in values), (name, values, text)
    # both outcomes are common, so neither branch is checked vacuously
    assert min(outcomes.values()) >= 50, outcomes


@pytest.mark.parametrize("kind", ["first", "second", "pth", "initial"])
def test_cli_exits_0_with_values_or_3_with_one_error_line(capsys, tmp_path, kind):
    codes = set()
    for i, text in enumerate(CORPUS[:12]):
        path = tmp_path / f"m{i}.rxn"
        path.write_text(text)
        n = parse_model(text).n_species
        flags = {"pth": ("--p", "3"), "initial": ("--y0", ",".join(["2"] + ["1"] * (n - 1)))}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["bounds", "--model", str(path), "--kind", kind, "--x0",
                         ",".join(["1"] * n), "--t-end", "1", "--grid", "3",
                         *flags.get(kind, ())])
        out, err = capsys.readouterr()
        codes.add(code)
        if code == 0:
            assert err == ""
            values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
            assert len(values) == 4
            assert all(0.0 <= v <= math.inf for v in values), (values, text)
        else:
            assert code == 3 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err
    assert codes == {0, 3}


def _in_range(values) -> bool:
    return all(0.0 <= v <= math.inf for v in values)


# enzyme from x0 + e_0 spends seconds in RK45, so only its y0 = x0 case runs
ODE_CASES = [(name, shift) for name in ("bimol", "reversible", "reversible-open",
                                        "extended-bimol") for shift in (0, 1)]
ODE_CASES.append(("enzyme", 0))


@pytest.mark.parametrize("name, shift", ODE_CASES, ids=[f"{n}-{s}" for n, s in ODE_CASES])
def test_ode_divergence_is_finite_or_inf(name, shift):
    preset = get_preset(name)
    x0 = np.array(preset.x0, dtype=float)
    y0 = x0.copy()
    y0[0] += shift
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = ode_divergence_bound(preset.network, x0, y0, np.linspace(0, 300, 4)).values
    assert _in_range(values.tolist()), values
    if not shift:  # |x0 - y0| = 0 even beside an overflowing exponent
        assert values.tolist() == [0.0] * 4


@pytest.mark.parametrize("x0", [0, 2, 3, 10, 2**62])
def test_cubic_bound_is_finite_or_inf_around_its_asymptote(x0):
    # below 3 the bound is 0 with no asymptote; the grid of m0 = 1 stands in
    m0 = float(x0 * (x0 - 1) * (x0 - 2)) if x0 >= 3 else 1.0
    t_blow = 1.0 / (3.0 * CUBIC_COMPARISON_GAMMA * m0 ** (1.0 / 3.0))
    grid = [0.0, math.nextafter(t_blow, 0.0), t_blow, 2.0 * t_blow]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = cubic_blowup_lowerbound(x0, grid).values.tolist()
    assert _in_range(values), values
    if x0 >= 3:
        assert values[0] == m0 and values[2:] == [math.inf, math.inf]
    else:
        assert values == [0.0] * 4
