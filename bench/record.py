"""Record the reference digests and values that run.py checks against.

    python3 bench/record.py

Runs every workload at the default seed, at probe size and at full size,
and rewrites ``reference.json`` next to this file.  The sampler entries
are sha256 digests of the README's frozen reproducibility contract, so
record only at a commit whose outputs are the reference; a change that
makes a digest differ has changed the sampled streams.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run._import_package()
    sys.path.insert(0, str(run.BENCH_DIR))
    import workloads
    from tracing import Tracer

    ref = {}
    for wl in workloads.WORKLOADS.values():
        entry = {}
        for kind, probe in (("probe", True), ("full", False)):
            inp = wl.make_inputs(workloads.DEFAULT_SEED, probe=probe)
            out = wl.run_pass(inp, Tracer(0), run._nproc())
            problems, _ = wl.check(inp, out)
            if problems:
                raise SystemExit(f"{wl.name} {kind}: " + "; ".join(problems))
            entry[kind] = wl.fingerprint(inp, out)
        # the full screen keeps only the outcome classes; the probe (the
        # head of the same screen) keeps every number
        entry["full"].pop("values", None)
        ref[wl.name] = entry
        print(f"recorded {wl.name}", file=sys.stderr)
    with open(run.BENCH_DIR / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
