"""Benchmark for jkl: four workloads over the samplers, oracle and analyzer.

Run from the repository root:

    python3 bench/run.py --workload enzyme-long --seed 7 --seconds 16 --trace 0

The package is imported from ``src/`` next to this directory (nothing is
installed or built).  One run:

1. builds the workload's inputs from ``--seed``;
2. runs the small default-seed probe of the workload and compares its
   outputs with ``reference.json`` (sha256 of sampler bytes, recorded
   values of the deterministic layers), so every run enforces the frozen
   reproducibility contract;
3. with ``--trace 0``: measures set-up time in seven fresh interpreters,
   repeats the timed pass for ``--seconds`` (at least three passes) and
   reports the end-to-end metrics of ``BENCHMARK.json`` as medians; pass
   and set-up times are rescaled to a fixed machine speed (see
   ``SpeedScale``), and the raw medians are printed beside them;
   with ``--trace 1``: repeats the pass untraced, then traced, for half of
   ``--seconds`` each, replays the ensembles serially, and reports the
   per-layer metrics; the spans are written to ``.bench_out/``;
4. checks the outputs (law checks at every seed, recorded digests and
   values at the default seed, or at every seed where the outputs do not
   depend on it) and prints one JSON line last; ``attempted`` and
   ``failed`` count each distinct operation of the run once.

Pooled calls use one worker per available core, and the benchmark never
runs more processes than that at a time.  ``record.py`` rewrites
``reference.json``; run it only at a commit whose outputs are the
reference.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_PASSES = 3
SETUP_SAMPLES = 7
# fastest speed_probe() seen on the machine the baseline was recorded on
# (2 vCPUs, Intel Xeon, KVM); timings are reported at this machine speed
SPEED_REF_S = 0.0044
PROBE_EVERY_S = 0.2

PER_LAYER_UNITS = {
    "engine.simulate_direct.events": "count",
    "engine.simulate_direct.events_per_call": "count",
    "engine.simulate_direct.busy_s": "s",
    "engine.simulate_direct.events_per_s": "1/s",
    "engine.simulate_coupled.events": "count",
    "engine.simulate_coupled.busy_s": "s",
    "engine.simulate_coupled.events_per_s": "1/s",
    "engine.ensemble_moments.traj_per_s": "1/s",
    "engine.ensemble_moments.parallel_eff": "ratio",
    "engine.coupled_rms.pairs_per_s": "1/s",
    "engine.coupled_rms.parallel_eff": "ratio",
    "engine.batch_states.traj_per_s": "1/s",
    "engine.batch_states.busy_s": "s",
    "engine.batch_states.traj_grid_per_s": "1/s",
    "engine.batch_states.computed_bytes": "B",
    "engine.batch_states.capped": "count",
    "cme.enumerate_states.busy_s": "s",
    "cme.enumerate_states.states": "count",
    "cme.build_generator.busy_s": "s",
    "cme.build_generator.nnz": "count",
    "cme.integrate_cme.busy_s": "s",
    "cme.integrate_cme.lam_t": "count",
    "cme.integrate_cme.computed_flops": "flop",
    "cme.integrate_cme.defect": "ratio",
    "cme.cme_moments.busy_s": "s",
    "parser.parse_model.busy_s": "s",
    "parser.parse_model.bytes_per_s": "B/s",
    "analyzer.analyze.busy_s": "s",
    "analyzer.analyze.weight_search": "count",
    "analyzer.analyze.rejected": "count",
    "bounds.first_moment_curve.busy_s": "s",
    "bounds.second_moment_curve.busy_s": "s",
    "bounds.pth_moment_curve.busy_s": "s",
    "bounds.nan_values": "count",
    "screen.latency_p50_ms": "ms",
    "screen.latency_p99_ms": "ms",
    "bench.error_rate": "ratio",
    "bench.trace_overhead_s": "s",
}


def _probe_task() -> float:
    """Median duration of three runs of a fixed interpreted task without jkl."""
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        rng = random.Random(12345)
        acc, weights = 0.0, (0.5, 1.5, 2.5)
        for i in range(40000):
            u = rng.random()
            acc += weights[i % 3] * u
            if u < 0.5:
                acc -= 1.0
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def speed_probe(cores=None) -> float:
    """Probe duration on the current core, or the mean over ``cores``.

    On a shared machine the speed each core gets switches between a fast
    and a slow state every second or so, independently of the other cores,
    and drifts over minutes.  Every workload spends most of its time in the
    interpreter, and the duration of interpreted arithmetic and random
    draws follows their speed closely, better than a numpy scan does.
    """
    if cores is None:
        return _probe_task()
    own = os.sched_getaffinity(0)
    try:
        runs = []
        for core in sorted(cores):
            os.sched_setaffinity(0, {core})
            runs.append(_probe_task())
    finally:
        os.sched_setaffinity(0, own)
    return statistics.mean(runs)


class SpeedScale:
    """Rescales a timing to machine speed SPEED_REF_S.

    The probe runs before and after each timing and, through ``tick``,
    between the calls inside it, at most every PROBE_EVERY_S; a timing is
    multiplied by SPEED_REF_S / (mean probe duration over it).  The drift
    cancels, while a change to jkl moves the timing and not the probe.  The
    time spent probing inside a timing is taken out of it.  ``cores`` are
    the cores the timed work runs on when it is spread over a pool; None
    probes the core this process runs on.
    """

    def __init__(self, cores=None):
        self.cores = cores
        self.samples = [speed_probe(cores)]
        self.last = _clock()
        self.probing = 0.0

    def _probe(self):
        t0 = _clock()
        self.samples.append(speed_probe(self.cores))
        self.last = _clock()
        return self.last - t0

    def tick(self):
        if _clock() - self.last >= PROBE_EVERY_S:
            self.probing += self._probe()

    def rescale(self, seconds: float) -> tuple[float, float]:
        """(rescaled, raw) timing; both exclude the probing inside it."""
        self._probe()
        raw = seconds - self.probing
        scaled = raw * SPEED_REF_S / statistics.mean(self.samples)
        self.samples, self.probing = self.samples[-1:], 0.0
        return scaled, raw


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _import_package():
    """Import jkl from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import jkl

    origin = Path(jkl.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"jkl was imported from {origin}, not from {src}")
    return jkl


def machine() -> dict:
    info = {"nproc": _nproc(), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), ""
            )
    except OSError:
        info["cpu"] = platform.processor()
    caches = []
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (d / f).read_text().strip() for f in ("level", "type", "size")
            )
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    info["caches"] = caches
    import numpy
    import scipy

    info["numpy"] = numpy.__version__
    info["scipy"] = scipy.__version__
    return info


def _close(got, want) -> bool:
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_close(g, w) for g, w in zip(got, want))
        )
    g, w = float(got), float(want)
    if math.isnan(w):
        # recorded NaN: the known NaN-for-inf bound defect; +inf is its fix
        return math.isnan(g) or g == math.inf
    return g == w or math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-12)


def compare(fp: dict, ref: dict, where: str) -> list[str]:
    bad = []
    for key, want in ref.items():
        got = fp.get(key)
        ok = got == want if isinstance(want, str) else got is not None and _close(got, want)
        if not ok:
            bad.append(f"{where}: {key} differs from the recorded reference")
    return bad


def run_passes(wl, inp, workers, seconds, min_passes, depth):
    """Repeat the timed pass.

    Returns (last outputs, raw walls, rescaled walls, tracers, fingerprint
    of the first pass).
    """
    from tracing import Tracer

    walls, scaled, tracers, first_fp = [], [], [], None
    speed = SpeedScale(os.sched_getaffinity(0) if wl.pooled else None)
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        tr = Tracer(depth, on_top_exit=speed.tick)
        t0 = time.perf_counter()
        out = wl.run_pass(inp, tr, workers)
        rescaled, wall = speed.rescale(time.perf_counter() - t0)
        scaled.append(rescaled)
        walls.append(wall)
        tracers.append(tr)
        if first_fp is None:
            first_fp = wl.fingerprint(inp, out)
    return out, walls, scaled, tracers, first_fp


def setup_samples(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and rescaled set-up times of fresh interpreters.

    Set-up is interpreter start, imports, preset parsing and input
    generation, up to where the first timed call would start.
    """
    raw, scaled = [], []
    # the probe and the child it rescales run on the same core: the cores
    # of this machine change speed independently of each other
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        speed = SpeedScale()
        for _ in range(SETUP_SAMPLES):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--setup-probe", repr(_clock())]
            res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
            rescaled, seconds = speed.rescale(float(res.stdout.split()[-1]))
            raw.append(seconds)
            scaled.append(rescaled)
    finally:
        os.sched_setaffinity(0, cores)
    return raw, scaled


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def call_rates(wl, inp, tracers) -> dict:
    """Throughput of the top-level calls, from the median pass."""
    out = {}
    if wl.replay is not None:
        ens_n, rms_n = inp.ens[4], inp.rms[5]
        batch_n = sum(b[3] for b in inp.batches)
        for key, span, n in (
            ("engine.ensemble_moments.traj_per_s", "engine.ensemble_moments", ens_n),
            ("engine.coupled_rms.pairs_per_s", "engine.coupled_rms", rms_n),
            ("engine.batch_states.traj_per_s", "engine.batch_states", batch_n),
        ):
            out[key] = n / _median([sum(t.durations(span)) for t in tracers])
    lat = sorted(d for t in tracers for d in t.durations("screen.network"))
    if lat:
        q = statistics.quantiles(lat, n=100, method="inclusive")
        out["screen.latency_p50_ms"] = 1e3 * q[49]
        out["screen.latency_p99_ms"] = 1e3 * q[98]
        out["screen.samples"] = len(lat)
    return out


def layer_metrics(wl, inp, out, tracers, replay_tracer, replay_counts, workers) -> dict:
    per_pass = [t.self_times() for t in tracers]
    names = {n for st in per_pass for n in st}
    busy = {n: _median([st.get(n, 0.0) for st in per_pass]) for n in names}
    m = {k: 0.0 for k in PER_LAYER_UNITS}
    for name, v in busy.items():
        if f"{name}.busy_s" in m:
            m[f"{name}.busy_s"] = v
    counts = wl.counts(inp, out)
    m.update({k: v for k, v in counts.items() if k in m})
    if replay_tracer is not None:
        rb = replay_tracer.self_times()
        for leg in ("simulate_direct", "simulate_coupled"):
            key = f"engine.{leg}"
            ev, b = replay_counts[f"{key}.events"], rb.get(key, 0.0)
            m[f"{key}.events"] = ev
            m[f"{key}.busy_s"] = b
            m[f"{key}.events_per_s"] = ev / b if b > 0 else 0.0
        m["engine.simulate_direct.events_per_call"] = (
            replay_counts["engine.simulate_direct.events"]
            / replay_counts["engine.simulate_direct.calls"]
        )
        for call, leg in (("ensemble_moments", "simulate_direct"),
                          ("coupled_rms", "simulate_coupled")):
            wall = busy.get(f"engine.{call}", 0.0)
            m[f"engine.{call}.parallel_eff"] = (
                rb.get(f"engine.{leg}", 0.0) / (workers * wall) if wall > 0 else 0.0
            )
        b = busy.get("engine.batch_states", 0.0)
        m["engine.batch_states.traj_grid_per_s"] = (
            counts["engine.batch_states.traj_grid"] / b if b > 0 else 0.0
        )
    b = busy.get("parser.parse_model", 0.0)
    if b > 0:
        m["parser.parse_model.bytes_per_s"] = counts["parser.parse_model.bytes"] / b
    m.update({k: v for k, v in call_rates(wl, inp, tracers).items() if k in m})
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_package()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r} (known: {', '.join(workloads.WORKLOADS)})")
    wl = workloads.WORKLOADS[args.workload]
    inp = wl.make_inputs(args.seed)
    if args.setup_probe is not None:
        print(repr(_clock() - args.setup_probe))
        return 0

    workers = _nproc()
    with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)[wl.name]
    problems: list[str] = []

    # default-seed probe: recorded digests and values, every run
    probe_inp = wl.make_inputs(workloads.DEFAULT_SEED, probe=True)
    probe_out = wl.run_pass(probe_inp, Tracer(0), workers)
    problems += compare(wl.fingerprint(probe_inp, probe_out), ref["probe"], "probe")
    problems += wl.check(probe_inp, probe_out)[0]
    del probe_out

    replay_tracer = replay_counts = None
    if args.trace:
        _, _, scaled_u, _, _ = run_passes(wl, inp, workers, args.seconds / 2, 2, 1)
        out, walls, scaled, tracers, first_fp = run_passes(
            wl, inp, workers, args.seconds / 2, 2, None
        )
        if wl.replay is not None:
            replay_tracer = Tracer()
            replay_counts = wl.replay(inp, replay_tracer)
    else:
        setup_raw, setup = setup_samples(wl.name, args.seed)
        out, walls, scaled, tracers, first_fp = run_passes(
            wl, inp, workers, args.seconds, MIN_PASSES, 1
        )

    fp = wl.fingerprint(inp, out)
    if json.dumps(fp, sort_keys=True) != json.dumps(first_fp, sort_keys=True):
        problems.append("outputs differ between passes over the same inputs")
    if not wl.seeded or args.seed == workloads.DEFAULT_SEED:
        problems += compare(fp, ref["full"], "full size")
    law_problems, known_failed = wl.check(inp, out)
    problems += law_problems

    # every pass repeats the same operations on the same inputs and must give
    # the same outputs, so a run counts each operation once, however many
    # passes fit in --seconds
    n_passes = len(walls)
    attempted = wl.ops_per_pass(inp)
    failed = min(attempted, known_failed + len(problems))
    printed = {"error_rate": (failed / attempted, "ratio")}

    if args.trace:
        metrics = layer_metrics(wl, inp, out, tracers, replay_tracer, replay_counts, workers)
        metrics["bench.error_rate"] = failed / attempted
        metrics["bench.trace_overhead_s"] = _median(scaled) - _median(scaled_u)
        result = {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace = {
            "workload": wl.name, "why": wl.why, "seed": args.seed, "machine": machine(),
            "span_fields": ["name", "start", "end", "parent"],
            "passes": [t.spans for t in tracers],
            "replay": replay_tracer.spans if replay_tracer else [],
        }
        with open(out_dir / f"trace-{wl.name}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
    else:
        usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        result = {
            "setup_s": {"value": _median(setup), "unit": "s"},
            "wall_s": {"value": _median(scaled), "unit": "s"},
            "peak_rss_mb": {"value": usage / 1024.0, "unit": "MiB"},
        }
        rates = call_rates(wl, inp, tracers)
        units = {"screen.samples": "count"}
        printed.update({k: (v, units.get(k, PER_LAYER_UNITS.get(k))) for k, v in rates.items()})
        printed["setup_raw_s"] = (_median(setup_raw), "s")
    printed["wall_raw_s"] = (_median(walls), "s")

    print(f"workload {wl.name}: {wl.why}")
    print("machine " + json.dumps(machine(), sort_keys=True))
    print(f"passes {n_passes} wall_s {[round(w, 4) for w in walls]}")
    for name, m in result.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    for name, (value, unit) in printed.items():
        print(f"metric {name} {value!r} {unit}")
    for p in problems:
        print(f"CHECK FAILED {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
