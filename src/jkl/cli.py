"""Command-line interface.

Exit codes: 0 success, 2 usage or model error, 3 stability-analysis
rejection, 4 numerical failure.  All commands are deterministic given
identical flags (including --seed); rerunning writes byte-identical
output.  CSV goes to --out or standard output; diagnostics go to
standard error.  JKL_THREADS caps ensemble parallelism.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bounds as bnd
from . import cme
from . import engine as eng
from .analyzer import AnalyzerError, analyze
from .demos import DEMO_NAMES, run_demo
from .model import ReactionNetwork, _check_network
from .parser import ModelError, parse_model
from .presets import PRESETS, get_preset

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ANALYZER = 3
EXIT_NUMERIC = 4


class CliError(Exception):
    """A usage error found after argument parsing (exit 2)."""


def _load_network(args) -> tuple[ReactionNetwork, tuple[int, ...] | None]:
    """Network plus its preset default initial state (None for files)."""
    if args.preset:
        preset = get_preset(args.preset)
        return preset.network, preset.x0
    if args.model:
        with open(args.model, "r", encoding="utf-8") as fh:
            return parse_model(fh.read()), None
    raise CliError("one of --preset or --model is required")


def _parse_vector(text: str, dim: int, what: str) -> np.ndarray:
    try:
        vec = np.array([int(v) for v in text.split(",")], dtype=np.int64)
    except ValueError:
        raise CliError(f"{what} must be comma-separated integers, got {text!r}") from None
    except OverflowError:
        raise CliError(f"{what} entries must fit a 64-bit integer, got {text!r}") from None
    if len(vec) != dim:
        raise CliError(f"{what} has {len(vec)} entries, expected {dim}")
    return vec


def _initial_state(args, net, default):
    if args.x0:
        return _parse_vector(args.x0, net.n_species, "--x0")
    if default is None:
        raise CliError("--x0 is required for file models")
    return default


def _perturbed_state(args, net, x0):
    """--y0, or x0 when it is not given."""
    return _parse_vector(args.y0, net.n_species, "--y0") if args.y0 else x0


def _grid(args) -> np.ndarray:
    """Time grid from --t-end and --grid (point count or explicit times)."""
    spec = args.grid
    times = None
    try:
        if spec and ("," in spec or "." in spec):
            times = np.array([float(v) for v in spec.split(",")], dtype=float)
        else:
            count = int(spec) if spec else 50
    except ValueError:
        raise CliError(f"--grid must be a count or comma-separated times, got {spec!r}") from None
    if times is not None:
        return eng._check_grid(times)
    if args.t_end is None:
        raise CliError("--t-end is required")
    if count < 1:
        raise CliError("--grid count must be positive")
    return np.linspace(0.0, args.t_end, count + 1)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _perturbation(args) -> eng.PerturbationSpec:
    deltas = {}
    for item in args.perturb:
        if "=" not in item:
            raise CliError(f"--perturb expects NAME=DELTA, got {item!r}")
        name, _, val = item.partition("=")
        try:
            deltas[name.strip()] = float(val)
        except ValueError:
            raise CliError(f"--perturb delta must be a number, got {val!r}") from None
    return eng.PerturbationSpec(deltas)


def _note_empty(n_valid: np.ndarray) -> None:
    """Say how many grid times have no valid sample: their rows print 0.0 beside n 0."""
    empty = int(np.count_nonzero(n_valid == 0))
    if empty:
        print(f"note: {empty} of {len(n_valid)} grid times have no valid sample (n 0); "
              "their rows print 0.0, which is no estimate", file=sys.stderr)


def _sim_config(args, t_end: float) -> eng.SimConfig:
    return eng.SimConfig(
        t_end=t_end,
        seed=args.seed,
        max_events=args.max_events,
        state_cap=args.state_cap,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> int:
    net, _ = _load_network(args)
    _check_network(net)
    print(f"ok: {net.n_species} species, {net.n_reactions} reactions", file=sys.stderr)
    return EXIT_OK


def cmd_analyze(args) -> int:
    net, _ = _load_network(args)
    weight = args.weight
    if weight not in ("auto", "ones"):
        with open(weight, "r", encoding="utf-8") as fh:
            fields = fh.read().replace(",", " ").split()
        try:
            weight = np.array([float(v) for v in fields])
        except ValueError as exc:
            raise CliError(f"--weight file {weight}: {exc}") from None
    report = analyze(net, weight=weight)
    if args.json:
        _emit(args, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        return EXIT_OK
    fields = report.to_dict()
    rows = fields.pop("per_reaction")
    lines = ["constant        value", "-" * 30]
    lines += [f"{key:<15s} {value!r}" for key, value in fields.items()]
    lines += ["", "reaction breakdown (label kind M mu L lambda Gamma gamma)"]
    for label, kind, *values in (row.values() for row in rows):
        lines.append(f"  {label:<8s} {kind:<9s} " + " ".join(f"{v:.12g}" for v in values))
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    net, default_x0 = _load_network(args)
    x0 = _initial_state(args, net, default_x0)
    if args.t_end is None:
        raise CliError("--t-end is required")
    cfg = _sim_config(args, args.t_end)
    sim = eng.simulate_rtc if args.method == "rtc" else eng.simulate_direct
    traj = sim(net, x0, cfg)
    grid = None
    if args.grid:
        grid = _grid(args)
    _emit(args, traj.to_csv(net.species, grid))
    if traj.status != "t_end":
        print(f"note: run stopped early ({traj.status})", file=sys.stderr)
    return EXIT_OK


def cmd_ensemble(args) -> int:
    net, default_x0 = _load_network(args)
    x0 = _initial_state(args, net, default_x0)
    grid = _grid(args)
    table = eng.ensemble_moments(
        net, x0, grid, args.p, args.samples, args.seed,
        max_events=args.max_events, state_cap=args.state_cap,
    )
    _emit(args, table.to_csv())
    _note_empty(table.n_valid)
    return EXIT_OK


def cmd_couple(args) -> int:
    net, default_x0 = _load_network(args)
    x0 = _initial_state(args, net, default_x0)
    y0 = _perturbed_state(args, net, x0)
    pert = _perturbation(args)
    grid = _grid(args)
    if args.samples == 1:
        lx, ly = eng.simulate_coupled(net, x0, y0, pert, _sim_config(args, float(grid[-1])))
        header = ["time", *net.species, *(f"{s}_pert" for s in net.species)]
        rows = (
            [t, *x, *y]
            for t, x, y in zip(grid.tolist(), lx.sample(grid).tolist(), ly.sample(grid).tolist())
        )
        _emit(args, eng._csv(header, rows))
        for leg, traj in (("nominal", lx), ("perturbed", ly)):
            if traj.status != "t_end":
                print(f"note: {leg} run stopped early ({traj.status})", file=sys.stderr)
        return EXIT_OK
    curve = eng.coupled_rms(
        net, x0, y0, pert, grid, args.samples, args.seed,
        max_events=args.max_events, state_cap=args.state_cap,
    )
    _emit(args, curve.to_csv(species=net.species))
    _note_empty(curve.n_valid)
    return EXIT_OK


def cmd_bounds(args) -> int:
    net, default_x0 = _load_network(args)
    kind = args.kind
    if kind == "cubic":
        pair = [(r.nu, r.propensity) for r in get_preset("cubic").network.reactions]
        if [(r.nu, r.propensity) for r in net.reactions] != pair:
            raise CliError("--kind cubic bounds only the zero-drift cubic pair of preset cubic")
        x0 = _parse_vector(args.x0, 1, "--x0")[0] if args.x0 else 3
        curve = bnd.cubic_blowup_lowerbound(x0, _grid(args))
        _emit(args, curve.to_csv())
        return EXIT_OK
    report = analyze(net, weight="auto")
    if kind == "asymptotic":
        p = 1 if args.p is None else args.p
        if p < 1:
            raise CliError(f"--p must be >= 1, got {p}")
        kappa = bnd.asymptotic_check(report, p)
        if kappa is None:
            _emit(args, json.dumps({"p": p, "satisfied": False}) + "\n")
        else:
            _emit(args, json.dumps({"p": p, "satisfied": True, "kappa": kappa}) + "\n")
        return EXIT_OK
    x0 = _initial_state(args, net, default_x0)
    grid = _grid(args)
    x0_norm = float(np.dot(report.l, x0))  # the moment bounds are in l . x
    if kind == "first":
        curve = bnd.first_moment_curve(report, x0_norm, grid)
    elif kind == "second":
        curve = bnd.second_moment_curve(report, x0_norm, grid)
    elif kind == "pth":
        if not args.p or args.p <= 2:
            raise CliError("--p must be an integer > 2 for --kind pth")
        curve = bnd.pth_moment_curve(report, x0_norm, args.p, grid)
    elif kind == "ode-divergence":
        curve = bnd.ode_divergence_bound(net, x0, _perturbed_state(args, net, x0), grid)
    elif kind == "initial":
        curve = bnd.initial_perturbation_curve(report, x0, _perturbed_state(args, net, x0), grid)
    else:  # coeff
        delta, delta_f = _perturbation(args).totals(net)
        curve = bnd.coefficient_perturbation_curve(
            report, x0, delta, delta_f, grid, variant=args.variant
        )
    _emit(args, curve.to_csv())
    return EXIT_OK


def cmd_cme(args) -> int:
    if args.p < 1:
        raise CliError(f"--p must be >= 1, got {args.p}")
    net, default_x0 = _load_network(args)
    x0 = _initial_state(args, net, default_x0)
    caps = args.caps or "200"
    per_species = "," in caps  # else one cap for every species
    caps_vec = _parse_vector(caps, net.n_species if per_species else 1, "--caps")
    grid = _grid(args)
    caps_arg = caps_vec if per_species else caps_vec[0]
    idx = cme.enumerate_states(net, x0, caps_arg, max_states=args.max_states)
    gen = cme.build_generator(net, idx)
    sol = cme.integrate_cme(gen, cme.point_mass(idx, x0), grid)
    rows = []
    for probs, t, defect in zip(sol.probs, grid.tolist(), sol.defect.tolist()):
        mom = cme.cme_moments(probs, idx, args.p, defect=defect)
        rows += [
            (t, p, m, up, defect)
            for p, m, up in zip(range(1, args.p + 1), mom.moments.tolist(), mom.upper.tolist())
        ]
    _emit(args, eng._csv(["time", "p", "estimate", "upper", "defect"], rows))
    if args.dump_index:
        with open(args.dump_index, "w", encoding="utf-8") as fh:
            fh.write(idx.to_text())
    if sol.unreliable:
        print("warning: mass defect exceeded threshold; result unreliable", file=sys.stderr)
    return EXIT_OK


def cmd_demo(args) -> int:
    kwargs = {"samples": args.samples, "seed": args.seed}
    summary = run_demo(args.name, out_dir=args.out_dir, **kwargs)
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_model_args(p):
    p.add_argument("--preset", choices=sorted(PRESETS), help="built-in model")
    p.add_argument("--model", help="path to a .rxn model file")


def _add_grid_args(p):
    p.add_argument("--t-end", type=float, default=None, help="time horizon")
    p.add_argument("--grid", default=None, help="output grid: point count or comma-separated times")
    p.add_argument("--x0", default=None, help="initial state, comma-separated counts")
    p.add_argument("--out", default=None, help="output file (default: stdout)")


def _add_sim_args(p, seed_default=0):
    _add_grid_args(p)
    p.add_argument("--seed", type=int, default=seed_default)
    p.add_argument("--max-events", type=int, default=eng.SimConfig.max_events)
    p.add_argument("--state-cap", type=float, default=eng.SimConfig.state_cap)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jkl",
        description="Stochastic jump kinetics: simulation, stability constants, bounds, oracle",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file or preset")
    _add_model_args(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("analyze", help="stability constants")
    _add_model_args(p)
    p.add_argument("--weight", default="auto", help="auto | ones | FILE with a positive vector")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("simulate", help="one exact trajectory (CSV)")
    _add_model_args(p)
    _add_sim_args(p)
    p.add_argument("--method", choices=["direct", "rtc"], default="direct")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("ensemble", help="ensemble moment table (CSV)")
    _add_model_args(p)
    _add_sim_args(p, seed_default=7)
    p.add_argument("--p", type=int, default=2, help="highest moment order")
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(fn=cmd_ensemble)

    p = sub.add_parser("couple", help="coupled pair RMS curve (CSV)")
    _add_model_args(p)
    _add_sim_args(p, seed_default=1)
    p.add_argument("--y0", default=None, help="perturbed-leg initial state")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument(
        "--perturb", action="append", default=[],
        help="NAME=DELTA relative rate perturbation (repeatable); -0.5 halves the rate",
    )
    p.set_defaults(fn=cmd_couple)

    p = sub.add_parser("bounds", help="theoretical bound curves (CSV)")
    _add_model_args(p)
    _add_grid_args(p)
    p.add_argument(
        "--kind",
        required=True,
        choices=["first", "second", "pth", "asymptotic", "ode-divergence", "initial", "coeff", "cubic"],
    )
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--variant", choices=["small-time", "large-time"], default="small-time")
    p.add_argument("--y0", default=None)
    p.add_argument("--perturb", action="append", default=[])
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("cme", help="truncated master-equation moments (CSV)")
    _add_model_args(p)
    _add_grid_args(p)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--caps", default=None, help="per-species caps (scalar or comma list)")
    p.add_argument("--max-states", type=int, default=cme.DEFAULT_MAX_STATES)
    p.add_argument("--dump-index", default=None, help="write the state index map to a file")
    p.set_defaults(fn=cmd_cme)

    p = sub.add_parser("demo", help="run a named end-to-end experiment")
    p.add_argument("name", choices=sorted(DEMO_NAMES))
    p.add_argument("--out-dir", default=None)
    p.add_argument("--samples", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_demo)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyError as exc:  # str() of a KeyError is the repr of its message
        err, code = exc.args[0], EXIT_USAGE
    except (CliError, ModelError, ValueError, OSError) as exc:
        err, code = exc, EXIT_USAGE
    except AnalyzerError as exc:
        err, code = exc, EXIT_ANALYZER
    except (eng.SimulationError, cme.CmeError) as exc:
        err, code = exc, EXIT_NUMERIC
    print(f"error: {err}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
