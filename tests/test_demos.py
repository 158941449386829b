"""Demo pipelines at reduced sample counts: outputs, determinism, files."""

import json

import numpy as np
import pytest

from jkl.demos import (
    demo_bimol_walk,
    demo_cubic_blowup,
    demo_enzyme_sensitivity,
    demo_reversible_oracle,
    run_demo,
)


class TestBimolWalk:
    def test_summary_and_files(self, tmp_path):
        s = demo_bimol_walk(out_dir=str(tmp_path), samples=800, seed=4)
        assert abs(s["difference_variance"] - 20.0) < 4.0
        assert (tmp_path / "difference_histogram.csv").exists()
        assert (tmp_path / "sample_path.csv").exists()
        hist = (tmp_path / "difference_histogram.csv").read_text().splitlines()
        counts = sum(int(line.split(",")[1]) for line in hist[1:])
        assert counts == 800

    def test_deterministic(self):
        a = demo_bimol_walk(samples=300, seed=9)
        b = demo_bimol_walk(samples=300, seed=9)
        assert a == b


class TestCubicBlowup:
    def test_summary(self, tmp_path):
        s = demo_cubic_blowup(out_dir=str(tmp_path), samples=1500, seed=2,
                              moment_samples=50_000)
        assert abs(s["decay_first_fraction"] - 1 / 3) < 0.05
        # long-run absorption at 1 exceeds the first-step odds: returns to 3
        assert s["absorbed_at_1_fraction_at_t_end"] > s["decay_first_fraction"]
        assert s["third_moment_lower_bound"] < s["third_moment_empirical"] + 3.0
        assert (tmp_path / "third_moment.csv").exists()


class TestReversibleOracle:
    def test_z_scores_small(self, tmp_path):
        s = demo_reversible_oracle(out_dir=str(tmp_path), samples=3000, seed=5)
        assert s["max_z"] < 4.5  # reduced n, generous bar
        assert s["states_reversible"] == 6
        assert (tmp_path / "oracle_reversible.csv").exists()
        assert (tmp_path / "oracle_bimol.csv").exists()


class TestEnzymeSensitivity:
    def test_small_run_structure(self, tmp_path):
        # tiny ensemble: structural checks only (ratios need n ~ 1e4)
        s = demo_enzyme_sensitivity(
            out_dir=str(tmp_path), samples=200, seed=3, t_stoch=0.5, t_rms=0.02
        )
        assert abs(s["ode_response_ratio"] - 2.0) < 0.05
        assert s["mean_C_perturbed"] > 0
        assert (tmp_path / "ode_response.csv").exists()
        assert (tmp_path / "stochastic_response.csv").exists()
        assert (tmp_path / "rms_difference.csv").exists()
        header = (tmp_path / "rms_difference.csv").read_text().splitlines()[0]
        assert header == "time,rms,stderr,n,rms_C,rms_E"


@pytest.mark.parametrize(
    "name, kwargs, message",
    [
        ("bimol-walk", {"samples": 0}, "samples must be >= 2, got 0"),
        ("bimol-walk", {"samples": 1}, "samples must be >= 2, got 1"),
        ("cubic-blowup", {"samples": 0}, "samples must be >= 2, got 0"),
        ("cubic-blowup", {"samples": 2, "moment_samples": 1}, "moment_samples must be >= 2"),
        ("reversible-oracle", {"samples": 1}, "samples must be >= 2, got 1"),
        ("enzyme-sensitivity", {"samples": 1}, "samples must be >= 2, got 1"),
    ],
    ids=["bimol-walk-0", "bimol-walk-1", "cubic-blowup-0", "cubic-blowup-moments-1",
         "reversible-oracle-1", "enzyme-sensitivity-1"],
)
def test_fewer_than_two_samples_rejected(tmp_path, name, kwargs, message):
    with pytest.raises(ValueError, match=message):
        run_demo(name, out_dir=str(tmp_path), **kwargs)
    assert not any(tmp_path.iterdir())  # rejected before anything ran


class TestRunDemo:
    def test_dispatch(self):
        s = run_demo("bimol-walk", samples=200, seed=1)
        assert s["n"] == 200

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown demo"):
            run_demo("nope")
