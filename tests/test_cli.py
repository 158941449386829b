"""Command-line surface: exit codes, formats, determinism."""

import argparse
import hashlib
import json
import warnings

import pytest

from jkl import demos
from jkl.cli import build_parser, main
from jkl.cme import enumerate_states
from jkl.demos import DEMO_NAMES
from jkl.presets import get_preset
from test_analyzer import LOG_NORM_SUM_OVERFLOWS, SUM_OVERFLOWS
from test_bounds import EXTREME_RATES
from test_golden import CLI_CSV_GOLDEN


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _choices(command, dest):
    """The argparse choices of ``command``'s option ``dest``."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest).choices


class TestValidate:
    def test_preset_ok(self, capsys):
        code, _, err = run(capsys, "validate", "--preset", "bimol")
        assert code == 0
        assert "ok" in err

    def test_cubic_valid_for_simulation(self, capsys):
        code, _, _ = run(capsys, "validate", "--preset", "cubic")
        assert code == 0

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.rxn"
        path.write_text("species A\nR: A -> @ 1.0\n")
        code, _, err = run(capsys, "validate", "--model", str(path))
        assert code == 2
        assert "line 2" in err
        assert err.startswith("error: line 2, col 9")

    def test_missing_model_arg(self, capsys):
        code, _, err = run(capsys, "validate")
        assert code == 2


# a command per entry point that validates the network, each from x0 = 1
VALIDATING = {
    "analyze": ["analyze"],
    "bounds": ["bounds", "--kind", "first", "--x0", "1", "--t-end", "1"],
    "simulate": ["simulate", "--x0", "1", "--t-end", "1"],
    "cme": ["cme", "--x0", "1", "--caps", "5", "--t-end", "1"],
    "validate": ["validate"],
}


@pytest.mark.parametrize("argv", list(VALIDATING.values()), ids=list(VALIDATING))
def test_invalid_network_exits_2_everywhere(capsys, tmp_path, argv):
    path = tmp_path / "neg.rxn"
    path.write_text("species A\nk = -1\nR1: 0 -> A @ k\nR2: A -> 0 @ 1\n")
    code, out, err = run(capsys, *argv, "--model", str(path))
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: network fails validation: rate constant is negative (-1.0) [reaction R1]"
    ]


# a product coefficient whose net entry 1 - 10**20 does not fit int64
BIG_COEFFICIENT = "species A\nR1: A -> 100000000000000000000 A @ 1\n"
SAMPLING = {
    "ensemble": ["ensemble", "--x0", "1", "--t-end", "1", "--samples", "2"],
    "couple": ["couple", "--x0", "1", "--t-end", "1", "--samples", "2"],
}


@pytest.mark.parametrize(
    "argv", [*VALIDATING.values(), *SAMPLING.values()], ids=[*VALIDATING, *SAMPLING]
)
def test_stoichiometry_past_int64_exits_2_everywhere(capsys, tmp_path, argv):
    path = tmp_path / "big.rxn"
    path.write_text(BIG_COEFFICIENT)
    code, out, err = run(capsys, *argv, "--model", str(path))
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: network fails validation: stoichiometric entry -99999999999999999999 of A "
        "does not fit a 64-bit integer [reaction R1]"
    ]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["simulate", "--x0", "100000000000000000000,0"], "--x0"),
        (["ensemble", "--x0", "0,-9223372036854775809", "--samples", "2"], "--x0"),
        (["bounds", "--kind", "initial", "--y0", "9223372036854775808,0"], "--y0"),
        (["cme", "--caps", "100000000000000000000"], "--caps"),
        (["cme", "--caps", "5,100000000000000000000"], "--caps"),
    ],
    ids=["simulate-x0", "ensemble-x0", "bounds-y0", "cme-caps", "cme-caps-vector"],
)
def test_counts_past_int64_exit_2_naming_the_flag(capsys, argv, flag):
    code, out, err = run(capsys, *argv, "--preset", "bimol", "--t-end", "1")
    assert code == 2 and out == ""
    value = argv[argv.index(flag) + 1]
    assert err == f"error: {flag} entries must fit a 64-bit integer, got '{value}'\n"


class TestAnalyze:
    def test_table_and_json_agree(self, capsys):
        code, out_json, _ = run(capsys, "analyze", "--preset", "enzyme", "--json")
        assert code == 0
        report = json.loads(out_json)
        assert report["mu"] == pytest.approx(25.0)
        code, out_tab, _ = run(capsys, "analyze", "--preset", "enzyme")
        assert code == 0
        assert repr(report["M"]) in out_tab
        assert repr(report["mu"]) in out_tab

    def test_cubic_rejected_exit_3(self, capsys):
        code, _, err = run(capsys, "analyze", "--preset", "cubic")
        assert code == 3
        assert "order-3" in err

    @pytest.mark.parametrize(
        "text", ["R1: A -> 3 A @ 1e308", "R1: A + B -> 5 A @ 1e308"], ids=["linear", "bilinear"]
    )
    def test_overflowing_rate_exit_3(self, capsys, tmp_path, text):
        path = tmp_path / "m.txt"
        path.write_text(f"species A B\n{text}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "analyze", "--model", str(path))
        assert code == 3 and out == ""
        assert err == "error: reaction R1 with rate 1e+308 overflows its stability constants: " \
            "a per-reaction term or the drift's linear part is not a finite float\n"

    @pytest.mark.parametrize(
        "name, reaction", [("A-and-Gamma", "R5"), ("alpha", "R2")], ids=["A", "alpha"]
    )
    def test_overflowing_sum_exit_3(self, capsys, tmp_path, name, reaction):
        path = tmp_path / "m.txt"
        path.write_text(SUM_OVERFLOWS[name])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "analyze", "--model", str(path))
        assert code == 3 and out == ""
        assert err == f"error: reaction {reaction} with rate 1e+308 overflows its stability " \
            "constants: the sum of the constants over the reactions up to it is not a finite " \
            "float\n"

    def test_linear_part_sum_past_dbl_max_is_finite(self, capsys, tmp_path):
        # two finite linear-part entries that sum past DBL_MAX: halved first,
        # the combined logarithmic norm is finite and nothing warns
        path = tmp_path / "m.txt"
        path.write_text(LOG_NORM_SUM_OVERFLOWS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "analyze", "--model", str(path), "--json")
        assert code == 0 and err == ""
        assert json.loads(out)["M_combined"] == 1e308

    def test_weight_file(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1 1 2\n")
        code, out, _ = run(capsys, "analyze", "--preset", "reversible",
                           "--weight", str(path), "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["l"] == [1.0, 1.0, 2.0]
        assert rep["alpha"] == 0.0  # the conserved weight kills the drift

    @pytest.mark.parametrize("text, field", [("1 x\n", "x"), ("1 2;3\n", "2;3"),
                                             ("1,1e400e\n", "1e400e")])
    def test_weight_file_that_is_not_numbers_names_the_flag(self, capsys, tmp_path, text, field):
        path = tmp_path / "w.txt"
        path.write_text(text)
        code, out, err = run(capsys, "analyze", "--preset", "bimol", "--weight", str(path))
        assert code == 2 and out == ""
        assert err == (
            f"error: --weight file {path}: could not convert string to float: '{field}'\n"
        )

    @pytest.mark.parametrize(
        "flags",
        [("--model", "{dir}"), ("--preset", "bimol", "--weight", "{dir}"),
         ("--preset", "bimol", "--out", "{dir}")],
        ids=["model", "weight", "out"],
    )
    def test_directory_path_is_usage_error(self, capsys, tmp_path, flags):
        code, out, err = run(capsys, "analyze", *(f.format(dir=tmp_path) for f in flags))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestSimulate:
    def test_deterministic_csv(self, capsys):
        code, out1, _ = run(capsys, "simulate", "--preset", "bimol",
                            "--t-end", "5", "--seed", "3")
        code2, out2, _ = run(capsys, "simulate", "--preset", "bimol",
                             "--t-end", "5", "--seed", "3")
        assert code == code2 == 0
        assert out1 == out2
        assert out1.splitlines()[0] == "time,A,B"

    def test_grid_resampling(self, capsys):
        code, out, _ = run(capsys, "simulate", "--preset", "bimol",
                           "--t-end", "2", "--seed", "1", "--grid", "4")
        assert code == 0
        assert len(out.splitlines()) == 6  # header + 5 grid points

    def test_rtc_method(self, capsys):
        code, out, _ = run(capsys, "simulate", "--preset", "bimol",
                           "--t-end", "2", "--seed", "1", "--method", "rtc")
        assert code == 0

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "traj.csv"
        code, out, _ = run(capsys, "simulate", "--preset", "bimol",
                           "--t-end", "1", "--seed", "2", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().startswith("time,A,B")

    def test_capped_run_notes_early_stop(self, capsys):
        code, out, err = run(capsys, "simulate", "--preset", "bimol", "--t-end", "5",
                             "--state-cap", "2", "--seed", "3")
        assert code == 0 and out.startswith("time,A,B\n")
        assert err == "note: run stopped early (state_cap)\n"

    @pytest.mark.parametrize("method", ["direct", "rtc"])
    def test_start_above_the_cap_stops_at_time_zero(self, capsys, tmp_path, method):
        # the start fits int64 but its first event would not
        path = tmp_path / "b.rxn"
        path.write_text("species A\nR1: 0 -> A @ 5\n")
        code, out, err = run(capsys, "simulate", "--model", str(path), "--x0",
                             "9223372036854775807", "--t-end", "1", "--method", method)
        assert code == 0 and out == "time,A\n0.0,9223372036854775807\n"
        assert err == "note: run stopped early (state_cap)\n"

    def test_propensity_overflow_exits_4(self, capsys, tmp_path):
        path = tmp_path / "overflow.rxn"  # propensities overflow from A = 10
        path.write_text("species A\nR1: 0 -> A @ 1e305\nR2: 3 A -> 4 A @ 1e305\n")
        code, out, err = run(capsys, "simulate", "--model", str(path), "--x0", "10",
                             "--t-end", "1")
        assert code == 4 and out == ""
        assert err.startswith("error: propensity overflow")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--t-end", "1", "--seed", "3", "--grid", "0.0,0.5,50.0"), "past"),
            (("--t-end", "1", "--grid", "0,nan"), "grid"),
            ((), "--t-end"),
        ],
        ids=["grid-past-t-end", "nan-grid", "no-t-end"],
    )
    def test_bad_horizon_rejected(self, capsys, argv, message):
        code, out, err = run(capsys, "simulate", "--preset", "bimol", *argv)
        assert code == 2 and out == ""
        assert message in err


class TestEnsembleCouple:
    def test_ensemble_csv(self, capsys):
        code, out, _ = run(capsys, "ensemble", "--preset", "bimol", "--t-end", "2",
                           "--grid", "4", "--samples", "50", "--seed", "5", "--p", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "time,p,estimate,stderr,n"
        assert len(lines) == 1 + 5 * 2

    def test_couple_rms_zero_for_identity(self, capsys):
        code, out, _ = run(capsys, "couple", "--preset", "bimol", "--t-end", "1",
                           "--grid", "2", "--samples", "20", "--seed", "5")
        assert code == 0
        for line in out.splitlines()[1:]:
            assert float(line.split(",")[1]) == 0.0

    def test_couple_single_pair(self, capsys):
        code, out, _ = run(capsys, "couple", "--preset", "bimol", "--t-end", "1",
                           "--grid", "2", "--samples", "1", "--seed", "5",
                           "--x0", "5,5", "--perturb", "k2=-0.5")
        assert code == 0
        assert out.splitlines()[0] == "time,A,B,A_pert,B_pert"

    def test_couple_single_pair_notes_a_capped_leg(self, capsys):
        code, out, err = run(capsys, "couple", "--preset", "bimol", "--t-end", "1",
                             "--seed", "3", "--samples", "1", "--grid", "0.0,0.5,50.0",
                             "--state-cap", "3")
        assert code == 0
        assert out == "time,A,B,A_pert,B_pert\n0.0,0,0,0,0\n0.5,0,0,0,0\n50.0,4,0,4,0\n"
        assert err.splitlines() == [
            "note: nominal run stopped early (state_cap)",
            "note: perturbed run stopped early (state_cap)",
        ]

    @pytest.mark.parametrize("command", ["ensemble", "couple"])
    def test_grid_times_without_a_valid_sample_are_noted(self, capsys, command, monkeypatch):
        # every sample starts above the cap: the CSV keeps its 0.0 cells
        # beside n 0, and stderr says that they are no estimate
        monkeypatch.setenv("JKL_THREADS", "1")
        argv = [command, "--preset", "bimol", "--x0", "50,50", "--t-end", "1", "--grid", "2",
                "--samples", "8"]
        code, out, err = run(capsys, *argv, "--state-cap", "10")
        header, *rows = (line.split(",") for line in out.splitlines())
        n = header.index("n")
        assert code == 0 and {row[n] for row in rows} == {"0"}
        assert {cell for row in rows for cell in row[n - 2 : n]} == {"0.0"}  # value, stderr
        assert err == (
            "note: 3 of 3 grid times have no valid sample (n 0); "
            "their rows print 0.0, which is no estimate\n"
        )
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == ""

    def test_bad_perturb_flag(self, capsys):
        code, _, err = run(capsys, "couple", "--preset", "bimol", "--t-end", "1",
                           "--samples", "4", "--perturb", "k2")
        assert code == 2

    def test_unknown_parameter_perturb(self, capsys):
        code, _, err = run(capsys, "couple", "--preset", "bimol", "--t-end", "1",
                           "--samples", "4", "--perturb", "zz=0.1")
        assert code == 2
        assert err == "error: no reaction rate is bound to parameter 'zz'\n"


class TestBounds:
    def test_first_moment_values(self, capsys):
        code, out, _ = run(capsys, "bounds", "--preset", "bimol", "--kind", "first",
                           "--t-end", "1", "--grid", "2")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert float(rows[-1][1]) == pytest.approx(2.0)

    def test_coeff_zero_delta_zero_curve(self, capsys):
        code, out, _ = run(capsys, "bounds", "--preset", "bimol", "--kind", "coeff",
                           "--t-end", "0.1", "--grid", "3", "--x0", "10,10",
                           "--variant", "small-time")
        assert code == 0
        assert all(float(l.split(",")[1]) == 0.0 for l in out.splitlines()[1:])

    def test_cubic_kind(self, capsys):
        code, out, _ = run(capsys, "bounds", "--preset", "cubic", "--kind", "cubic",
                           "--x0", "3", "--t-end", "0.05", "--grid", "2")
        assert code == 0
        assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(6.0)

    def test_asymptotic_json(self, capsys):
        code, out, _ = run(capsys, "bounds", "--preset", "extended-bimol",
                           "--kind", "asymptotic", "--p", "1")
        assert code == 0
        assert json.loads(out)["kappa"] == pytest.approx(2.0)

    def test_asymptotic_unsatisfied_json(self, capsys):
        code, out, _ = run(capsys, "bounds", "--preset", "bimol", "--kind", "asymptotic")
        assert code == 0
        assert json.loads(out) == {"p": 1, "satisfied": False}

    # the options each kind reads beyond the grid; every other kind reads none
    KIND_FLAGS = {"pth": ("--p", "3"), "ode-divergence": ("--y0", "1,0"), "initial": ("--y0", "1,0")}

    @pytest.mark.parametrize("kind", _choices("bounds", "kind"))
    def test_every_kind_runs(self, capsys, kind):
        # the cubic bound holds for the cubic pair only; every other kind
        # runs on bimol
        preset = "cubic" if kind == "cubic" else "bimol"
        code, out, err = run(capsys, "bounds", "--preset", preset, "--kind", kind,
                             "--t-end", "1", "--grid", "2", *self.KIND_FLAGS.get(kind, ()))
        assert code == 0 and err == ""
        assert out

    @pytest.mark.parametrize("grid", ["1e3", "abc"])
    def test_grid_that_is_not_a_count_names_the_flag(self, capsys, grid):
        code, out, err = run(capsys, "bounds", "--preset", "bimol", "--kind", "first",
                             "--t-end", "1", "--grid", grid)
        assert code == 2 and out == ""
        assert err == f"error: --grid must be a count or comma-separated times, got '{grid}'\n"

    def test_cubic_kind_rejects_another_network(self, capsys):
        code, out, err = run(capsys, "bounds", "--preset", "bimol", "--kind", "cubic",
                             "--t-end", "0.1", "--grid", "2")
        assert code == 2 and out == ""
        assert err == (
            "error: --kind cubic bounds only the zero-drift cubic pair of preset cubic\n"
        )

    @pytest.mark.parametrize(
        "text",
        [
            get_preset("cubic").text,
            # the same reactions under other labels and another species name
            "species Y\nloss: 3 Y -> Y @ 0.5\ngain: 3 Y -> 4 Y @ 1.0\n",
        ],
        ids=["preset", "relabelled"],
    )
    def test_cubic_kind_reads_the_cubic_pair(self, capsys, tmp_path, text):
        path = tmp_path / "cubic.rxn"
        path.write_text(text)
        argv = ("bounds", "--kind", "cubic", "--x0", "3", "--t-end", "0.4", "--grid", "4")
        code, out, err = run(capsys, *argv, "--model", str(path))
        assert code == 0 and err == ""
        assert run(capsys, *argv, "--preset", "cubic") == (0, out, "")
        assert hashlib.sha256(out.encode()).hexdigest() == CLI_CSV_GOLDEN["bounds-cubic"]

    def test_weight_vector_network(self, capsys, tmp_path):
        # R2 raises |x|_1, so only a searched weight l tames it; the moment
        # bounds then start from l . x0
        path = tmp_path / "w.rxn"
        path.write_text("species A B\nR1: 0 -> A @ 1\nR2: 2 A -> 3 B @ 1\nR3: B -> 0 @ 1\n")
        code, out, _ = run(capsys, "analyze", "--model", str(path), "--json")
        assert code == 0
        l = json.loads(out)["l"]
        assert l != [1.0, 1.0]
        x0_norm = 2 * l[0] + 5 * l[1]
        for kind, p in (("first", 1), ("second", 2), ("pth", 3)):
            code, out, _ = run(capsys, "bounds", "--model", str(path), "--x0", "2,5",
                               "--kind", kind, "--p", "3", "--t-end", "1", "--grid", "3")
            assert code == 0
            assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(x0_norm**p)

    @pytest.mark.parametrize(
        "name, argv, values",
        [
            ("A-squared", ("--kind", "second", "--x0", "1,1,1"), ["9.0", "inf", "inf", "inf"]),
            ("beta-inf", ("--kind", "pth", "--p", "3", "--x0", "1"), ["1.0", "inf", "inf", "inf"]),
        ],
        ids=["A-squared", "beta-inf"],
    )
    def test_extreme_rates_give_inf_not_nan(self, capsys, tmp_path, name, argv, values):
        path = tmp_path / "m.txt"
        path.write_text(EXTREME_RATES[name])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "bounds", "--model", str(path), *argv,
                                 "--t-end", "1", "--grid", "3")
        assert code == 0 and err == ""
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == values

    @pytest.mark.parametrize(
        "argv,values",
        [
            (("--kind", "coeff", "--perturb", "k=0.1"), ["0.0", "inf", "inf"]),
            (("--kind", "coeff", "--perturb", "k=0.1", "--variant", "large-time"),
             ["0.0", "inf", "inf"]),
            (("--kind", "initial", "--y0", "2,1"), ["1.0", "inf", "inf"]),
            (("--kind", "initial"), ["0.0", "0.0", "0.0"]),
        ],
        ids=["coeff-small-time", "coeff-large-time", "initial", "initial-same-state"],
    )
    def test_perturbation_curves_of_a_rate_at_dbl_max(self, capsys, tmp_path, argv, values):
        # W0 = Gamma + gamma |x0|^2 is inf: the curves read their t = 0 value at
        # t = 0 and inf or 0 after, where inf * 0 used to print nan
        path = tmp_path / "m.txt"
        path.write_text("species S0 S1\nk = 1.7e+308\nR1: S1 -> 0 @ k\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "bounds", "--model", str(path), *argv,
                                 "--x0", "1,1", "--t-end", "1", "--grid", "2")
        assert code == 0 and err == ""
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == values

    def test_extreme_rate_a_rejected(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(EXTREME_RATES["A-inf"])
        code, out, err = run(capsys, "bounds", "--model", str(path), "--kind", "second",
                             "--x0", "1,1,1", "--t-end", "1", "--grid", "3")
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: reaction R1 ")

    @pytest.mark.parametrize("p", ["0", "-1"])
    def test_asymptotic_order_below_one_rejected(self, capsys, p):
        code, out, err = run(capsys, "bounds", "--preset", "extended-bimol",
                             "--kind", "asymptotic", "--p", p)
        assert code == 2 and out == ""
        assert "--p must be >= 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--preset", "bimol", "--kind", "initial", "--x0=-3,0", "--y0=0,0"),
            ("--preset", "bimol", "--kind", "coeff", "--x0=-3,0", "--perturb", "k1=0.1"),
            ("--preset", "cubic", "--kind", "cubic", "--x0=-4"),
        ],
        ids=["initial", "coeff", "cubic"],
    )
    def test_negative_x0_rejected(self, capsys, argv):
        code, out, err = run(capsys, "bounds", *argv, "--t-end", "1", "--grid", "2")
        assert code == 2 and out == ""
        assert err == "error: initial state must be non-negative\n"

    def test_cubic_x0_parsed_as_a_count(self, capsys):
        code, out, err = run(capsys, "bounds", "--preset", "cubic", "--kind", "cubic",
                             "--x0", "3.5", "--t-end", "1")
        assert code == 2 and out == ""
        assert "--x0 must be comma-separated integers, got '3.5'" in err

    def test_analyzer_rejection_propagates(self, capsys):
        code, _, err = run(capsys, "bounds", "--preset", "cubic", "--kind", "first",
                           "--t-end", "1")
        assert code == 3


class TestCme:
    def test_moments_csv(self, capsys):
        code, out, _ = run(capsys, "cme", "--preset", "reversible", "--x0", "2,2,0",
                           "--caps", "10", "--t-end", "1", "--grid", "2", "--p", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "time,p,estimate,upper,defect"
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(4.0)  # |x|_1 at t=0

    def test_index_dump(self, capsys, tmp_path):
        path = tmp_path / "index.txt"
        code, _, _ = run(capsys, "cme", "--preset", "reversible", "--x0", "2,2,0",
                         "--caps", "10", "--t-end", "1", "--grid", "1",
                         "--dump-index", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        idx = enumerate_states(get_preset("reversible").network, [2, 2, 0], 10)
        assert len(lines) == idx.n_states
        assert lines[0] == "0\t(2, 2, 0)"

    @pytest.mark.parametrize("p", ["0", "-1"])
    def test_order_below_one_rejected(self, capsys, p):
        code, out, err = run(capsys, "cme", "--preset", "reversible", "--x0", "2,2,0",
                             "--caps", "10", "--t-end", "1", "--grid", "2", "--p", p)
        assert code == 2 and out == ""
        assert "--p must be >= 1" in err

    def test_state_budget_exceeded_exits_4(self, capsys):
        code, out, err = run(capsys, "cme", "--preset", "bimol", "--t-end", "0.1",
                             "--max-states", "5")
        assert code == 4 and out == ""
        assert err == "error: state set exceeds 5 states; tighten the caps\n"

    @pytest.mark.parametrize("caps", ["abc", "1.5", "5,x", "5,"])
    def test_caps_that_are_not_integers_name_the_flag(self, capsys, caps):
        code, out, err = run(capsys, "cme", "--preset", "bimol", "--t-end", "1",
                             "--caps", caps)
        assert code == 2 and out == ""
        assert err == f"error: --caps must be comma-separated integers, got '{caps}'\n"

    def test_infinite_grid_time_rejected(self, capsys):
        code, _, err = run(capsys, "cme", "--preset", "bimol", "--caps", "5",
                           "--grid", "1.0,inf")
        assert code == 2
        assert "grid" in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--preset", "bimol", "--x0", "1", "--t-end", "1"],
             "--x0 has 1 entries, expected 2"),
            (["simulate", "--model", "{model}", "--t-end", "1"],
             "--x0 is required for file models"),
            (["ensemble", "--preset", "bimol", "--grid", "4"], "--t-end is required"),
            (["ensemble", "--preset", "bimol", "--t-end", "1", "--grid", "0"],
             "--grid count must be positive"),
            (["couple", "--preset", "bimol", "--t-end", "1", "--perturb", "k2=abc"],
             "--perturb delta must be a number, got 'abc'"),
            (["bounds", "--preset", "bimol", "--kind", "pth", "--t-end", "1"],
             "--p must be an integer > 2 for --kind pth"),
        ],
        ids=["x0-length", "file-model-x0", "count-grid-t-end", "grid-zero", "perturb-delta",
             "pth-without-p"],
    )
    def test_rejected_with_its_message(self, capsys, tmp_path, argv, message):
        model = tmp_path / "birth.rxn"
        model.write_text("species A\nR1: 0 -> A @ 1\n")
        code, out, err = run(capsys, *(a.format(model=model) for a in argv))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_unreliable_oracle_warns(self, capsys):
        # caps of 3 leak more than the defect threshold by t = 2
        code, out, err = run(capsys, "cme", "--preset", "bimol", "--caps", "3", "--t-end", "2",
                             "--grid", "2")
        assert code == 0 and out.startswith("time,p,estimate,upper,defect\n")
        assert float(out.splitlines()[-1].split(",")[-1]) > 0.05
        assert err == "warning: mass defect exceeded threshold; result unreliable\n"


class TestSamplerFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("cme", "--preset", "reversible", "--x0", "2,2,0", "--caps", "10",
             "--t-end", "1", "--seed", "3"),
            ("bounds", "--preset", "bimol", "--kind", "first", "--t-end", "1",
             "--state-cap", "5"),
        ],
        ids=["cme-seed", "bounds-state-cap"],
    )
    def test_rejected_where_nothing_samples(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDemo:
    def test_bimol_walk_writes_bundle(self, capsys, tmp_path):
        code, out, _ = run(capsys, "demo", "bimol-walk", "--samples", "300",
                           "--seed", "2", "--out-dir", str(tmp_path))
        assert code == 0
        summary = json.loads(out)
        assert abs(summary["difference_variance"] - 20.0) < 5.0
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "difference_histogram.csv").exists()
        assert json.loads((tmp_path / "summary.json").read_text()) == summary

    def test_too_few_samples_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "demo", "cubic-blowup", "--samples", "0",
                             "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert err == "error: samples must be >= 2, got 0\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("name", sorted(DEMO_NAMES))
    def test_out_dir_file_fails_before_work(self, capsys, tmp_path, monkeypatch, name):
        # every demo fetches its preset first; none may be fetched
        fetched = []
        monkeypatch.setattr(demos, "get_preset", fetched.append)
        path = tmp_path / "taken"
        path.write_text("")
        code, out, err = run(capsys, "demo", name, "--samples", "10", "--out-dir", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and fetched == []
        assert path.read_text() == ""

    def test_unknown_demo(self, capsys):
        with pytest.raises(SystemExit):
            main(["demo", "nope"])
