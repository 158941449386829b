"""Cold start: which heavy modules a fresh interpreter loads, and when.

``import jkl`` loads numpy only.  ``scipy.sparse`` loads on the first
oracle call, ``scipy.optimize`` on the first weight-vector search that
reaches SLSQP or the LP, ``scipy.integrate`` on the first rate-equation
solve, and ``multiprocessing`` on the first pooled ensemble.  These
tests run fresh interpreters, because the test process has long since
loaded every module.  They make no timing assertion.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import _slsqplib

from jkl import analyzer
from jkl.analyzer import find_weight_vector
from jkl.parser import parse_model

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("scipy.optimize", "scipy.integrate", "scipy.sparse", "multiprocessing")

# one network per solver path of the weight-vector search: the column of
# A + B -> 3 C is two-signed with a null space, so SLSQP runs; the column of
# A + B -> 0 is one-signed and positive, so the HiGHS LP runs
WEIGHT_NETWORKS = {
    "minimize": "species A B C\nR: A + B -> 3 C @ 1.0",
    "highs": "species A B C\nR1: A + B -> 0 @ 1\nR2: 2 B -> 3 C @ 1\nR3: C -> A @ 0.5",
}
# the entry each path calls: SLSQP's core, once per step of its loop, and
# the accessor of this thread's HiGHS solver, once per LP
SOLVERS = {"minimize": (_slsqplib, "slsqp"), "highs": (analyzer, "_highs_solver")}

COMMANDS = {
    "simulate": ["simulate", "--preset", "bimol", "--t-end", "10", "--seed", "3"],
    "analyze": ["analyze", "--preset", "enzyme", "--json"],
    "bounds": ["bounds", "--preset", "bimol", "--kind", "second", "--t-end", "1"],
    "cme": ["cme", "--preset", "reversible", "--x0", "5,5,0", "--caps", "12", "--t-end", "2"],
}

CHILD = """
import contextlib, io, json, sys

def loaded():
    return [m for m in DEFERRED if m in sys.modules]

report = {}
import jkl, jkl.cli
report["import"] = loaded()
for name, argv in COMMANDS.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = jkl.cli.main(argv)
    report[name] = [code, loaded()]

from jkl.analyzer import find_weight_vector
from jkl.parser import parse_model
for name, text in WEIGHT_NETWORKS.items():
    report[name] = find_weight_vector(parse_model(text)).tobytes().hex()
print(json.dumps(report))
"""


def _python(*args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def _warm_weight_vector(monkeypatch, solver: str, text: str) -> str:
    """``find_weight_vector`` bits in this process, asserting ``solver`` ran."""
    calls = []
    module, name = SOLVERS[solver]
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(solver)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    bits = find_weight_vector(parse_model(text)).tobytes().hex()
    assert calls and calls == [solver] * len(calls)
    return bits


def test_cold_start_loads_each_module_on_its_first_use(monkeypatch, tmp_path):
    source = (
        f"DEFERRED = {DEFERRED!r}\nCOMMANDS = {COMMANDS!r}\n"
        f"WEIGHT_NETWORKS = {WEIGHT_NETWORKS!r}\n{CHILD}"
    )
    res = _python("-c", source, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout.splitlines()[-1])

    assert report.pop("import") == []
    for name in ("simulate", "analyze", "bounds"):
        assert report.pop(name) == [0, []], name
    assert report.pop("cme") == [0, ["scipy.sparse"]]
    # the first search in the child imports scipy.optimize inside the call
    for solver, text in WEIGHT_NETWORKS.items():
        assert report.pop(solver) == _warm_weight_vector(monkeypatch, solver, text), solver
    assert report == {}


def test_python_m_jkl(tmp_path):
    res = _python("-m", "jkl", "validate", "--preset", "bimol", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert "ok" in res.stderr
