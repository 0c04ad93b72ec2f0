"""One workload in a fresh interpreter, so its memory and set-up are its own.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|run|trace --workdir DIR

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  Prints
one JSON object.  ``setup_s`` is the time to import durakit (with the durakit
modules the workload uses) plus the time of one warm-up operation, so tables
or caches built at import or on first use show in it.  The interpreter's own
start, the benchmark's modules and the warm-up's inputs are left out; the
parent scales it by ``setup_factor``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: durakit modules a workload uses beyond the package itself, imported in set-up
PROGRAM_MODULES = {"planning": ("durakit.cli",)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    start = perf_counter()
    import durakit

    for name in PROGRAM_MODULES.get(args.workload, ()):
        importlib.import_module(name)
    import_s = perf_counter() - start

    # the program under test is the checkout's source, never an installed copy
    if Path(durakit.__file__).resolve().parent != ROOT / "src" / "durakit":
        print(f"durakit imported from {durakit.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    from calibration import Calibration
    from tracer import MODULES, Tracer, instrument
    from workloads import WORKLOADS, OpLog

    tracer = Tracer()
    workload = WORKLOADS[args.workload](args.seed, args.workdir, tracer)
    out: dict = {"setup_s": import_s + workload.warmup()}
    # machine speed just after set-up, to scale the set-up time like the others
    setup_speed = Calibration(workload.CALIBRATION)
    setup_speed.sample_for(0.1)
    out["setup_factor"] = setup_speed.factor()
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.mode == "run":
        log = OpLog(workload.CALIBRATION)
        workload.run(args.seconds, log)
        out.update(pass_record(workload, log))
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(out))
        return 0

    # trace: an untraced pass, then the same stream traced, then direct calls
    from probes import probe_all

    untraced = OpLog(workload.CALIBRATION)
    workload.run(args.seconds / 2, untraced)
    out["untraced"] = pass_record(workload, untraced)
    traced = OpLog(workload.CALIBRATION)
    undo = instrument(tracer)
    try:
        workload.run(args.seconds / 2, traced)
    finally:
        undo()
    out["traced"] = pass_record(workload, traced)
    spans_path = args.workdir.parent / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(spans_path)
    per_layer = {}
    totals = tracer.module_totals()
    for label in MODULES:
        per_layer[f"{label}.calls"] = {"value": totals[label]["calls"], "unit": "count"}
        per_layer[f"{label}.self_s"] = {"value": totals[label]["self_s"], "unit": "s"}
    per_layer["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
    per_layer["trace.overhead_share"] = {
        "value": (untraced.end_to_end()["ops_per_s"]["value"]
                  / traced.end_to_end()["ops_per_s"]["value"]) - 1.0,
        "unit": "fraction",
    }
    try:
        per_layer.update(probe_all(args.seed, args.workdir))
    except Exception as exc:  # a failed probe check is reported as a failed run
        out["probe_error"] = f"{type(exc).__name__}: {exc}"
    out["per_layer"] = per_layer
    out["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(out))
    return 0


def pass_record(workload, log) -> dict:
    return {
        "attempted": len(log.durations),
        "failed": log.failed,
        "errors": log.errors,
        "end_to_end": log.end_to_end(),
        **workload.summary(log),
    }


if __name__ == "__main__":
    sys.exit(main())
