"""Run the benchmark in alternating parent/change pairs and write ``BENCH_<pr>.json``.

    python3 tools/bench_pairs.py --parent REV --pr N [--pairs 10]
        [--workload W ...] [--scratch DIR]

The parent side is ``git archive REV`` unpacked under the scratch
directory; the change side is a copy of the working tree's files (tracked
and untracked, less what ``.gitignore`` names), so uncommitted edits are
measured and the repository's ``.git`` is left as it is.  Both copies are
removed afterwards.  For each workload (default: every workload of
``BENCHMARK.json``) it runs ``python3 bench/run.py --workload W --seed 1
--seconds T --trace 0``, T the benchmark's ``run_seconds``, on each side, k
pairs, the parent first in even pairs and the change first in odd ones,
with ``PYTHONDONTWRITEBYTECODE=1``.  Seed 1 is the seed whose full-size
reference digests ``run.py`` checks.

The output follows the ``BENCH_31.json`` layout: ``rounds`` holds, per
workload and metric, every run's value, both medians, both quartile pairs
(numpy's linear percentiles), the pairs the change won (ties count for
neither side) and the change over the parent; ``runs`` records each run's
exit status and correctness; ``machine`` is the fingerprint ``run.py``
prints; ``src_jkl_lines`` counts both sides' ``src/jkl`` lines by kind.
A run that exits non-zero or fails its checks is listed, by pair, under
its workload's ``failed`` and printed, a metric some run did not report
is named under ``missing``, and the tool then exits 1.  The file is
rewritten after every workload, so a cut run keeps what it measured.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _parent_tree(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=_git("archive", rev), check=True)


def _change_tree(dest: Path) -> None:
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, (n.decode() for n in names)):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def _line_kinds(tree: Path) -> dict:
    """Docstring, comment, blank and other (code) lines of ``src/jkl/*.py``."""
    kinds = dict(code=0, doc=0, comment=0, blank=0)
    for path in sorted((tree / "src" / "jkl").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        doc = set()
        for node in ast.walk(ast.parse(source)):
            body = getattr(node, "body", None)
            if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
                value = body[0].value
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    doc.update(range(body[0].lineno, body[0].end_lineno + 1))
        for number, line in enumerate(source.splitlines(), 1):
            kind = "doc" if number in doc else "blank" if not line.strip() else (
                "comment" if line.strip().startswith("#") else "code"
            )
            kinds[kind] += 1
    return kinds


def _run(tree: Path, workload: str, seconds: float) -> dict:
    """One benchmark run: its metrics, exit status and whether its checks passed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    run = {"status": proc.returncode, "metrics": {}, "machine": None, "correct": False}
    for line in proc.stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, _unit = line.split(" ", 3)
            run["metrics"][name] = float(value)
        elif line.startswith("machine "):
            run["machine"] = json.loads(line[len("machine "):])
        elif line.startswith("{"):
            last = json.loads(line)
            run.update(correct=last["correct"], attempted=last["attempted"], failed=last["failed"])
    if proc.returncode:
        run["stderr"] = proc.stderr[-2000:]
    return run


def _quartiles(values: list[float]) -> list[float]:
    return [round(float(q), 4) for q in np.percentile(values, [25, 75])]


def _summary(parent: list[float], change: list[float], lower_is_better: bool) -> dict:
    sign = 1.0 if lower_is_better else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "parent_median": round(p_med, 4),
        "change_median": round(c_med, 4),
        "parent_quartiles": _quartiles(parent),
        "change_quartiles": _quartiles(change),
        "change_better_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "change_over_parent": round(c_med / p_med - 1.0, 4) if p_med else None,
        "parent": [round(v, 4) for v in parent],
        "change": [round(v, 4) for v in change],
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the parent revision")
    ap.add_argument("--pr", required=True, help="the N of BENCH_<N>.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", help="repeatable; default: all")
    ap.add_argument("--scratch", help="directory for the two trees (default: a new temp dir)")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    failures = 0
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.scratch))
    out_path = ROOT / f"BENCH_{args.pr}.json"
    trees = {"parent": scratch / "parent", "change": scratch / "change"}
    try:
        _parent_tree(args.parent, trees["parent"])
        _change_tree(trees["change"])
        lines = {side: _line_kinds(tree) for side, tree in trees.items()}
        result = {
            "pr": int(args.pr) if args.pr.isdigit() else args.pr,
            "claim": None,
            "note": (
                f"Alternating parent/change runs of python3 bench/run.py --workload W --seed "
                f"{SEED} --seconds {seconds:g} --trace 0, {args.pairs} pairs per "
                f"workload, written by tools/bench_pairs.py; parent: git archive of "
                f"{args.parent}; change: a copy of the working tree; the parent runs first "
                f"in even pairs. PYTHONDONTWRITEBYTECODE=1."
            ),
            "parent_rev": _git("rev-parse", args.parent).decode().strip(),
            "machine": None,
            "src_jkl_lines": {
                "parent": sum(lines["parent"].values()),
                "change": sum(lines["change"].values()),
                "by_kind": lines,
            },
            "rounds": {},
            "runs": {},
        }
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    run = _run(trees[side], workload, seconds)
                    runs[side].append(run)
                    result["machine"] = result["machine"] or run["machine"]
                    print(f"{workload} pair {pair} {side}: status {run['status']} "
                          f"correct {run['correct']} wall_s {run['metrics'].get('wall_s')}",
                          file=sys.stderr, flush=True)
            key = f"{workload} seed {SEED}"
            result["runs"][key] = {
                side: [{k: v for k, v in r.items() if k not in ("metrics", "machine")}
                       for r in side_runs]
                for side, side_runs in runs.items()
            }
            reported = [set(r["metrics"]) for rs in runs.values() for r in rs]
            names = set.intersection(*reported)
            failed = {
                side: [i for i, r in enumerate(rs) if r["status"] or not r["correct"]]
                for side, rs in runs.items()
            }
            missing = sorted(set.union(*reported) - names)
            if failed["parent"] or failed["change"] or missing:
                failures += 1
                print(f"{workload}: failed runs {failed}, metrics missing from some run "
                      f"{missing}", file=sys.stderr, flush=True)
            result["rounds"][key] = {"pairs": args.pairs, "failed": failed, "missing": missing} | {
                name: _summary(
                    [r["metrics"][name] for r in runs["parent"]],
                    [r["metrics"][name] for r in runs["change"]],
                    better.get(name, "lower") == "lower",
                )
                for name in sorted(names, key=lambda n: (n not in better, n))
            }
            out_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"wrote {out_path}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
