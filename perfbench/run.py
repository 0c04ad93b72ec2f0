"""durakit benchmark: one workload per invocation, checked and reported.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: bulk-objects, small-objects, monte-carlo, planning (see
perfbench/README.md).  Each runs closed loop with one client in its own
fresh interpreter (worker.py), built from the checkout's ``src`` tree.

--trace 0 reports the end-to-end metrics; set-up time is the median of five
fresh interpreters.  Times are scaled to a reference machine speed (see
calibration.py).  --trace 1 runs the workload untraced and then traced,
and reports per-module metrics and the tracing overhead.  Every metric is
printed by name with its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full run record
is written to perfbench/out/.  The exit code is non-zero when any
correctness check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("bulk-objects", "small-objects", "monte-carlo", "planning")
SETUP_SAMPLES = 5
#: time a worker may take beyond --seconds: set-up, and the probes of a traced run
CHILD_MARGIN_S = 120


class RunError(Exception):
    pass


def spawn(mode: str, args, workdir: Path) -> dict:
    """Run worker.py in a fresh interpreter; return its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--mode", mode, "--workdir", str(workdir)]
    timeout = args.seconds + CHILD_MARGIN_S
    try:
        # run() kills the child on timeout and waits for it to end
        done = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{mode} worker exceeded {timeout:g} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunError(f"{mode} worker exited {done.returncode}")
    return json.loads(lines[-1])


def source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src" / "durakit").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def read_text(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine() -> dict:
    cpu = None
    for line in (read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read_text(str(index / "level"))
        kind = read_text(str(index / "type"))
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = read_text(str(index / "size"))
    commit = None  # an exported checkout has no history; source_sha256 still names the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
    }


def check_identity(record: dict, workload: str, seed: int, digests: list[str]) -> str | None:
    """Fragment digests must agree within the run and with earlier runs of this source."""
    if len(set(digests)) > 1:
        return f"fragment SHA-256 differs between passes of one run: {digests}"
    store_path = OUT / "identity.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    key = f"{record['source_sha256']}/{workload}/{seed}"
    previous = store.setdefault(key, digests[0])
    if previous != digests[0]:
        return f"fragment SHA-256 {digests[0]} differs from an earlier run's {previous}"
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(store_path)
    return None


def expected_names(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def measure(args, workdir: Path) -> tuple[dict, dict, list[dict]]:
    """Returns (reported metrics, other named metrics, pass records)."""
    if args.trace:
        record = spawn("trace", args, workdir)
        passes = [record["untraced"], record["traced"]]
        if "probe_error" in record:
            passes.append({"attempted": 1, "failed": 1, "errors": [record["probe_error"]]})
        overhead = {
            f"{name}/traced": m for name, m in record["traced"]["end_to_end"].items()
        }
        other = {**record["untraced"]["end_to_end"], **record["untraced"].get("metrics", {}),
                 **overhead}
        return record["per_layer"], other, passes

    children = [spawn("setup", args, workdir) for _ in range(SETUP_SAMPLES - 1)]
    children.append(spawn("run", args, workdir))
    record = children[-1]
    setups = [child["setup_s"] for child in children]
    metrics = {
        "setup_s": {"value": statistics.median(child["setup_s"] / child["setup_factor"]
                                               for child in children),
                    "unit": "s", "samples": len(children)},
        "peak_rss_mib": {"value": record["peak_rss_mib"], "unit": "MiB"},
        **{k: record["end_to_end"][k] for k in ("ops_per_s", "op_p50_us")},
    }
    other = {
        "error_rate": {"value": record["failed"] / record["attempted"], "unit": "fraction"},
        "setup_s_unscaled": {"value": statistics.median(setups), "unit": "s",
                             "samples": len(setups)},
        **{k: v for k, v in record["end_to_end"].items() if k not in metrics},
        **record.get("metrics", {}),
        **record.get("detail", {}),
    }
    return metrics, other, [record]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "durakit" / "__init__.py").is_file():
        print(f"no durakit source under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        metrics, other, passes = measure(args, workdir)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **machine()}
    errors = [e for p in passes for e in p.get("errors", [])]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = [p["identity"]["fragment_sha256"] for p in passes if "identity" in p]
    if digests:
        attempted += 1
        problem = check_identity(record, args.workload, args.seed, digests)
        if problem:
            failed += 1
            errors.append(problem)
    names = expected_names(args.trace)
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, "
              f"extra {extra}", *errors, sep="\n", file=sys.stderr)
        return 3

    record.update({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "other_metrics": other,
        "passes": passes,
    })
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))

    print(f"durakit benchmark: {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for key in ("commit", "source_sha256", "cpu_model", "nproc", "l2", "l3",
                "python", "numpy", "click"):
        print(f"  {key}: {record[key]}")
    for title, table in (("reported", metrics), ("also measured", other)):
        print(f"{title}:")
        for name, m in sorted(table.items()):
            samples = f"  (n={m['samples']})" if "samples" in m else ""
            print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}{samples}")
    for p in passes:
        if "properties" in p:
            print("input properties: " + json.dumps(p["properties"], sort_keys=True))
        if "identity" in p:
            print("fragment identity: " + json.dumps(p["identity"], sort_keys=True))
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
