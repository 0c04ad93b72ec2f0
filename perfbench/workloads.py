"""The four closed-loop workloads: one client, no think time, inputs from the seed.

Each workload exposes ``warmup()`` (one operation before the timed loop,
returning its own seconds for set-up time) and
``run(seconds, log)``, which replays its seeded operation stream from the
start until ``seconds`` have passed, timing each operation and checking its
output outside the timed region.  ``summary(log)`` turns the log into the
workload's named metrics and input-property counts.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter, deque
from pathlib import Path
from time import perf_counter

import numpy as np

import durakit as dk
import durakit.codec as dkc
from calibration import Calibration
from durakit.codec import lrc as dk_lrc

MIB = 1 << 20
#: |z| limit of the simulator cross-check, the CLI's ``--check`` limit.
Z_CHECK_LIMIT = 4.0


def stream_rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def metric(value, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def seconds_of(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def percentile_us(durations, q: float) -> float:
    return float(np.percentile(np.asarray(durations), q)) * 1e6


class OpLog:
    """Timed operations of one pass: kind, duration, and failures."""

    def __init__(self, calibration: str) -> None:
        self.kinds: list[str] = []
        self.durations: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.calibration = Calibration(calibration)

    def op(self, tracer, kind: str, action, check):
        """Time ``action()``; then, untimed and untraced, ``check(result)``
        returns an error or None."""
        self.calibration.maybe_sample()
        tracer.begin(len(self.durations))
        start = perf_counter()
        try:
            result, error = action(), None
        except Exception as exc:  # an op that raises is a failed op; keep going
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        tracer.end()
        if error is None:
            try:
                error = check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        self.kinds.append(kind)
        self.durations.append(elapsed)
        if error is not None:
            self.fail(f"{kind}: {error}")
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def of_kind(self, prefix: str) -> list[float]:
        return [d for k, d in zip(self.kinds, self.durations) if k.startswith(prefix)]

    def end_to_end(self) -> dict:
        """Throughput and median, scaled to the calibration kernel's nominal speed."""
        ops_per_s = len(self.durations) / math.fsum(self.durations)
        p50_us = percentile_us(self.durations, 50)
        factor = self.calibration.factor()
        return {
            "ops_per_s": metric(ops_per_s * factor, "1/s"),
            "op_p50_us": metric(p50_us / factor, "us", samples=len(self.durations)),
            "ops_per_s_unscaled": metric(ops_per_s, "1/s"),
            "op_p50_us_unscaled": metric(p50_us, "us", samples=len(self.durations)),
            "calibration_factor": metric(factor, "ratio", kernel=self.calibration.kind,
                                         samples=len(self.calibration.samples)),
        }


# ---------------------------------------------------------------------------
# codec helpers shared by the two codec workloads


#: scheme label -> (m, n) of its Reed-Solomon code; any other label is the
#: 6+2+2 LRC.  rep:3 is RS 1+2, as `codec encode` encodes it.
RS_PARAMS = {"rs:8+3": (8, 3), "rs:10+4": (10, 4), "rep:3": (1, 2)}
LRC = "lrc-6-2-2"


def encode(scheme: str, data: bytes):
    if scheme in RS_PARAMS:
        return dk.rs_encode(data, *RS_PARAMS[scheme])
    return dk.lrc_encode(data)


def decode(scheme: str, fragments):
    if scheme in RS_PARAMS:
        return dk.rs_decode(fragments)
    return dk.lrc_decode(fragments)


def data_count(scheme: str) -> int:
    return RS_PARAMS[scheme][0] if scheme in RS_PARAMS else dk_lrc.DATA_COUNT


def fragment_count(scheme: str) -> int:
    return sum(RS_PARAMS[scheme]) if scheme in RS_PARAMS else dk_lrc.TOTAL_FRAGMENTS


def check_round_trip(data: bytes, expected, out, parsed) -> str | None:
    if out != data:
        return "decoded bytes differ from the original object"
    for frag in parsed:
        if frag != expected[frag.index]:
            return f"fragment {frag.index} did not survive to_bytes/from_bytes"
    return None


class IdentityDigest:
    """SHA-256 over every fragment byte of the first ``limit`` puts, in order."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.objects = 0
        self.user_bytes = 0
        self.stored_bytes = 0
        self._sha = hashlib.sha256()

    def add(self, data: bytes, blobs) -> None:
        if self.objects >= self.limit:
            return
        self.objects += 1
        self.user_bytes += len(data)
        for blob in blobs:
            self._sha.update(blob)
            self.stored_bytes += len(blob)

    @property
    def done(self) -> bool:
        return self.objects >= self.limit

    def record(self) -> dict:
        return {
            "fragment_sha256": self._sha.hexdigest(),
            "objects": self.objects,
            "stored_bytes_per_user_byte": self.stored_bytes / self.user_bytes,
        }


# ---------------------------------------------------------------------------


class BulkObjects:
    """64 MiB objects: put, healthy get and degraded get, per scheme in turn.

    64 MiB is far above the per-core L2 and below the L3, so the payload kernel
    streams from L3/DRAM and the one 8x8 inversion per object is negligible.
    Runs always end on a whole cycle over the three schemes, so every run
    times the same mix.
    """

    name = "bulk-objects"
    CALIBRATION = "gather"
    SCHEMES = ("rs:8+3", LRC, "rep:3")
    OBJECT_BYTES = 64 * MIB

    def __init__(self, seed: int, workdir: Path, tracer) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.identity = IdentityDigest(len(self.SCHEMES))

    def _paths(self, count: int) -> list[Path]:
        return [self.workdir / f"obj.f{i:03d}.ecfr" for i in range(count)]

    def _drop_set(self, scheme: str, rng) -> set[int]:
        """The most fragments the scheme tolerates, data fragments included."""
        if scheme == LRC:
            return {int(rng.choice(dk_lrc.LOCAL_GROUPS[0])),
                    int(rng.choice(dk_lrc.LOCAL_GROUPS[1])),
                    int(rng.choice(dk_lrc.GLOBAL_PARITY_INDICES))}
        if scheme == "rep:3":
            return {0, int(rng.integers(1, 3))}
        m, n = RS_PARAMS[scheme]
        return {int(i) for i in rng.choice(m, size=n, replace=False)}

    def _put(self, scheme: str, data: bytes):
        fragments = encode(scheme, data)
        blobs = [dkc.fragment_to_bytes(f) for f in fragments]
        for path, blob in zip(self._paths(len(blobs)), blobs):
            with open(path, "wb") as out:
                out.write(blob)
        return fragments, blobs

    def _get(self, scheme: str, indices):
        paths = self._paths(fragment_count(scheme))
        parsed = [dkc.fragment_from_bytes(paths[i].read_bytes()) for i in indices]
        return decode(scheme, parsed), parsed

    def warmup(self) -> float:
        """One put; returns its seconds, input generation left out."""
        data = stream_rng(self.seed, 1).bytes(self.OBJECT_BYTES)
        elapsed = seconds_of(lambda: self._put(self.SCHEMES[0], data))
        self._clean()
        return elapsed

    def _clean(self) -> None:
        for path in self.workdir.glob("obj.f*.ecfr"):
            path.unlink()

    def run(self, seconds: float, log: OpLog) -> None:
        self.identity = IdentityDigest(len(self.SCHEMES))
        rng = stream_rng(self.seed, 0)
        start = perf_counter()
        while True:
            for scheme in self.SCHEMES:
                self._object(scheme, rng, log)
            if perf_counter() - start >= seconds:
                return

    def _object(self, scheme: str, rng, log: OpLog) -> None:
        data = rng.bytes(self.OBJECT_BYTES)
        drop = self._drop_set(scheme, rng)
        total = fragment_count(scheme)
        put = log.op(self.tracer, f"put/{scheme}", lambda: self._put(scheme, data),
                     lambda r: None)
        if put is None:
            self._clean()
            return
        fragments, blobs = put
        self.identity.add(data, blobs)
        del blobs, put
        log.op(self.tracer, f"get_healthy/{scheme}",
               lambda: self._get(scheme, range(total)),
               lambda r: check_round_trip(data, fragments, *r))
        survivors = [i for i in range(total) if i not in drop]
        log.op(self.tracer, f"get_degraded/{scheme}",
               lambda: self._get(scheme, survivors),
               lambda r: check_round_trip(data, fragments, *r))
        self._clean()

    def summary(self, log: OpLog) -> dict:
        metrics = {}
        per_scheme = {}
        for kind in ("put", "get_healthy", "get_degraded"):
            medians = [float(np.median(log.of_kind(f"{kind}/{s}"))) for s in self.SCHEMES]
            # one object of each scheme, so every run weighs the schemes alike
            metrics[f"{kind}_MiBps"] = metric(
                len(self.SCHEMES) * self.OBJECT_BYTES / MIB / sum(medians), "MiB/s",
                samples=len(log.of_kind(kind)))
            for scheme, med in zip(self.SCHEMES, medians):
                per_scheme[f"{kind}_MiBps/{scheme}"] = metric(
                    self.OBJECT_BYTES / MIB / med, "MiB/s")
        identity = self.identity.record()
        metrics["stored_bytes_per_user_byte"] = metric(
            identity["stored_bytes_per_user_byte"], "ratio")
        gets = len(log.of_kind("get_"))
        properties = {
            "object_bytes": self.OBJECT_BYTES,
            "objects_per_scheme": {s: len(log.of_kind(f"put/{s}")) for s in self.SCHEMES},
            # healthy gets have every data fragment, so a systematic copy is
            # possible; degraded gets always lose a data fragment
            "all_data_present_share": len(log.of_kind("get_healthy")) / gets,
        }
        return {"metrics": metrics, "detail": per_scheme, "identity": identity,
                "properties": properties}


class SmallObjects:
    """4 KiB objects, puts and gets 1:2, over rs:8+3, rs:10+4 and lrc-6-2-2.

    Per-call Python work dominates: matrix construction and inversion, LRC
    elimination and header parsing.  Objects live in memory as fragment
    bytes; a get parses every surviving fragment and decodes, as the CLI does.
    """

    name = "small-objects"
    CALIBRATION = "interpreter"
    SCHEMES = ("rs:8+3", "rs:10+4", LRC)
    OBJECT_BYTES = 4096
    STORE_LIMIT = 256
    IDENTITY_PUTS = 64

    def __init__(self, seed: int, workdir: Path, tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.identity = IdentityDigest(self.IDENTITY_PUTS)
        self.survivor_sets: set = set()
        self.reused = 0
        self.all_data = Counter()
        self.gets = Counter()

    def warmup(self) -> float:
        """One put; returns its seconds."""
        data = stream_rng(self.seed, 1).bytes(self.OBJECT_BYTES)
        return seconds_of(lambda: [dkc.fragment_to_bytes(f)
                                   for f in encode(self.SCHEMES[0], data)])

    def _erasures(self, scheme: str, rng) -> frozenset:
        total = fragment_count(scheme)
        if scheme == LRC:
            lost = int(rng.integers(0, 4))  # every pattern of <= 3 losses recovers
        else:
            lost = int(rng.integers(0, total - data_count(scheme) + 1))
        return frozenset(int(i) for i in rng.choice(total, size=lost, replace=False))

    def run(self, seconds: float, log: OpLog) -> None:
        self.identity = IdentityDigest(self.IDENTITY_PUTS)
        self.survivor_sets = set()
        self.reused = 0
        self.all_data = Counter()
        self.gets = Counter()
        rng = stream_rng(self.seed, 0)
        store: deque = deque(maxlen=self.STORE_LIMIT)
        start = perf_counter()
        while perf_counter() - start < seconds or not self.identity.done:
            if not store or rng.random() < 1 / 3:
                self._put(rng, store, log)
            else:
                self._get(rng, store, log)

    def _put(self, rng, store, log: OpLog) -> None:
        scheme = self.SCHEMES[int(rng.integers(len(self.SCHEMES)))]
        data = rng.bytes(self.OBJECT_BYTES)

        def action():
            fragments = encode(scheme, data)
            return fragments, [dkc.fragment_to_bytes(f) for f in fragments]

        put = log.op(self.tracer, f"put/{scheme}", action, lambda r: None)
        if put is not None:
            self.identity.add(data, put[1])
            store.append((scheme, data, *put))

    def _get(self, rng, store, log: OpLog) -> None:
        scheme, data, fragments, blobs = store[int(rng.integers(len(store)))]
        lost = self._erasures(scheme, rng)
        survivors = [i for i in range(len(blobs)) if i not in lost]
        key = (scheme, lost)
        self.reused += key in self.survivor_sets
        self.survivor_sets.add(key)
        self.gets[scheme] += 1
        self.all_data[scheme] += all(i not in lost for i in range(data_count(scheme)))

        def action():
            parsed = [dkc.fragment_from_bytes(blobs[i]) for i in survivors]
            return decode(scheme, parsed), parsed

        log.op(self.tracer, f"get/{scheme}", action,
               lambda r: check_round_trip(data, fragments, *r))

    def summary(self, log: OpLog) -> dict:
        puts, gets = log.of_kind("put/"), log.of_kind("get/")
        metrics = {
            "put_p50_us": metric(percentile_us(puts, 50), "us", samples=len(puts)),
            "put_p99_us": metric(percentile_us(puts, 99), "us", samples=len(puts)),
            "get_p50_us": metric(percentile_us(gets, 50), "us", samples=len(gets)),
            "get_p99_us": metric(percentile_us(gets, 99), "us", samples=len(gets)),
        }
        identity = self.identity.record()
        metrics["stored_bytes_per_user_byte"] = metric(
            identity["stored_bytes_per_user_byte"], "ratio")
        total_gets = sum(self.gets.values())
        properties = {
            "object_bytes": self.OBJECT_BYTES,
            "puts": len(puts),
            "gets": len(gets),
            "distinct_survivor_sets": len(self.survivor_sets),
            "survivor_set_reuse_share": self.reused / total_gets,
            # a get whose survivors include every data fragment can be a plain copy
            "all_data_present_share": sum(self.all_data.values()) / total_gets,
            "all_data_present_share_by_scheme": {
                s: self.all_data[s] / self.gets[s] for s in self.SCHEMES if self.gets[s]},
        }
        return {"metrics": metrics, "identity": identity, "properties": properties}


class MonteCarlo:
    """The four simulator scenarios, each at threads=1 then threads=2, same seed."""

    name = "monte-carlo"
    CALIBRATION = "sampling"
    TRIALS = 1 << 20
    SCENARIOS = ("loss", "availability", "latency_rep", "latency_ec")

    def __init__(self, seed: int, workdir: Path, tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        # never more worker threads than cores
        self.threads = (1, min(2, os.cpu_count() or 1))
        topology = dk.Topology(3, 0.01)
        self._availability = (
            dk.DiskFailureModel(p_dead=0.0, p_unavail=0.02),
            topology,
            dk.balanced_placement(dk.ErasureScheme(8, 3), topology),
        )
        self.results: dict[str, list] = {}

    def scenario(self, name: str, trials: int, seed: int, threads: int):
        if name == "loss":
            return dk.simulate_loss(0.05, 8, 3, trials, seed=seed, threads=threads)
        if name == "availability":
            return dk.simulate_availability(*self._availability, trials, seed=seed,
                                            threads=threads)
        if name == "latency_rep":
            return dk.simulate_latency(dk.LatencyProfile((1, 20, 100)), 0.05, trials,
                                       seed=seed, threads=threads)
        return dk.simulate_latency(dk.LatencyProfile((1, 100)), 0.05, trials, seed=seed,
                                   threads=threads, ec=dk.ErasureScheme(8, 3))

    def warmup(self) -> float:
        """One loss scenario; returns its seconds."""
        return seconds_of(lambda: self.scenario("loss", self.TRIALS, self.seed, 1))

    def run(self, seconds: float, log: OpLog) -> None:
        self.results = {name: [] for name in self.SCENARIOS}
        start = perf_counter()
        cycle = 0
        while True:
            for name in self.SCENARIOS:
                seed = int(np.random.SeedSequence([self.seed, cycle]).generate_state(
                    1, np.uint64)[0])
                first = log.op(self.tracer, f"{name}/t1",
                               lambda: self.scenario(name, self.TRIALS, seed, 1),
                               lambda r: None)
                log.op(self.tracer, f"{name}/t2",
                       lambda: self.scenario(name, self.TRIALS, seed, self.threads[1]),
                       lambda r: None if r == first else
                       "threads=2 result differs from threads=1 (determinism contract)")
                if first is not None:
                    self.results[name].append(first)
            cycle += 1
            if perf_counter() - start >= seconds:
                break
        for name in self.SCENARIOS:
            z = pooled_z(self.results[name])
            if not abs(z) <= Z_CHECK_LIMIT:
                log.fail(f"{name}: pooled |z| = {abs(z):.2f} exceeds {Z_CHECK_LIMIT}")

    def summary(self, log: OpLog) -> dict:
        metrics = {}
        for tag, threads in zip(("t1", "t2"), self.threads):
            durations = [d for n in self.SCENARIOS for d in log.of_kind(f"{n}/{tag}")]
            metrics[f"sim_Mtrials_s_{tag}"] = metric(
                len(durations) * self.TRIALS / math.fsum(durations) / 1e6, "Mtrials/s",
                threads=threads)
        properties = {"trials_per_run": self.TRIALS, "threads": list(self.threads)}
        for name in self.SCENARIOS:
            results = self.results[name]
            events = sum(counted_events(r) for r in results)
            expected = event_rate(name, results[0]) * self.TRIALS * len(results)
            properties[name] = {
                "runs": len(results),
                "events": events,
                "expected_events": expected,
                "events_ratio": events / expected,
                "pooled_z": pooled_z(results),
                "max_abs_z": max(abs(r.z_score) for r in results),
            }
        return {"metrics": metrics, "properties": properties}


def counted_events(result) -> int:
    """Loss or unavailability events; unserved reads for the latency scenarios."""
    return result.events if result.events is not None else result.unserved_trials


def event_rate(name: str, result) -> float:
    """Expected per-trial rate of counted_events for a scenario."""
    if name == "latency_rep":
        return 0.05 ** 3  # every one of the three sites unavailable
    if name == "latency_ec":
        return upper_tail(0.05, 8, 3)  # more than n of the m local fragments
    return result.analytic


def upper_tail(p: float, total: int, threshold: int) -> float:
    """P[Binomial(total, p) > threshold], summed directly."""
    return math.fsum(math.comb(total, i) * p ** i * (1 - p) ** (total - i)
                     for i in range(threshold + 1, total + 1))


def pooled_z(results) -> float:
    """z of the mean of equal-size runs against their shared analytic value."""
    mean = sum(r.point_estimate for r in results) / len(results)
    se = math.sqrt(sum(r.standard_error ** 2 for r in results)) / len(results)
    analytic = results[0].analytic
    if se == 0.0:
        return 0.0 if mean == analytic else math.inf
    return (mean - analytic) / se


class Planning:
    """A seeded stream of the requests a capacity planner makes.

    Five request kinds, one fifth each: the `plan`, `compare`, `curve` and
    `codec report` commands, invoked in process through click, and a direct
    `repair_plan` query with 0-2 extra unavailable fragments, which no
    command takes.  The library calls inside a request are whatever the
    command issues, so the mix of probability, placement, latency and repair
    work follows from the commands.  No record of real planning traffic
    exists, so the five kinds get equal shares; the shares are an
    assumption, not a measurement.  Every answer is checked against its
    definition, not against recorded values.
    """

    name = "planning"
    CALIBRATION = "interpreter"
    #: exact counts cover this many requests from the start of the stream
    PREFIX = 500
    KINDS = ("plan", "compare", "curve", "report", "repair")
    RS_SCHEMES = ((8, 3), (6, 3), (10, 4), (4, 2), (12, 4))
    REPAIR_RS = ((8, 3), (10, 4), (6, 3))
    #: swept axis -> candidate values; four distinct ones are drawn per curve
    CURVE_POINTS = {"m": range(2, 17), "n": range(1, 7), "scale": range(1, 4)}

    def __init__(self, seed: int, workdir: Path, tracer) -> None:
        from click.testing import CliRunner

        from durakit import cli

        self.seed = seed
        self.tracer = tracer
        self.cli = cli
        self.runner = CliRunner()
        self.lrc_placement = dk.Placement(dk.LRC_6_2_2, dk_lrc.DEFAULT_DC_ASSIGNMENT)
        self.counts = Counter()
        self.prefix_counts = None
        self.m_values: list[int] = []
        self.d_values: list[int] = []

    def warmup(self) -> float:
        """One `plan` request; returns its seconds."""
        rng = stream_rng(self.seed, 1)
        log = OpLog(self.CALIBRATION)
        self._plan(rng, log)
        return log.durations[0]

    def run(self, seconds: float, log: OpLog) -> None:
        """Request until ``seconds`` pass, and at least PREFIX requests."""
        self.counts = Counter()
        self.prefix_counts = None
        self.m_values, self.d_values = [], []
        rng = stream_rng(self.seed, 0)
        start = perf_counter()
        done = 0
        while done < self.PREFIX or perf_counter() - start < seconds:
            kind = self.KINDS[int(rng.integers(len(self.KINDS)))]
            getattr(self, "_" + kind)(rng, log)
            done += 1
            if done == self.PREFIX:
                self.prefix_counts = dict(self.counts)

    def replay_prefix(self, log: OpLog) -> dict:
        """Run exactly the first PREFIX requests; return their exact counts."""
        self.run(0.0, log)
        return self.prefix_counts

    # Each request draws its inputs, is timed as one operation, then has its
    # answer checked (untimed) and adds to the stream's exact counts.

    @staticmethod
    def _log_uniform(rng, low_exp: float, high_exp: float) -> float:
        return float(10.0 ** rng.uniform(low_exp, high_exp))

    def _invoke(self, log: OpLog, kind: str, args: list[str], check) -> None:
        """Run one durakit command in process; check its JSON output."""

        def action():
            return self.tracer.span(f"cli.{kind}", self.runner.invoke, self.cli.main,
                                    ["--format", "json", *args])

        def check_result(result):
            if result.exit_code != 0:
                return f"exit {result.exit_code}: {result.output.strip()[:200]}"
            return check(json.loads(result.output))

        log.op(self.tracer, kind, action, check_result)

    def _plan(self, rng, log: OpLog) -> None:
        p = self._log_uniform(rng, -6, -2)
        eps = self._log_uniform(rng, -15, -3)
        if rng.random() < 0.5:
            self._plan_replication(p, eps, log)
            return
        m = int(rng.integers(2, 201))
        self.m_values.append(m)

        def check(out):
            n = out["n"]
            if out["loss"] != dk.prob_loss_ec(p, m, n) or not out["loss"] < eps:
                return f"n={n} misses the target for m={m}, p={p}, eps={eps}"
            if n > 1 and not dk.prob_loss_ec(p, m, n - 1) >= eps:
                return f"n={n} is not the smallest for m={m}, p={p}, eps={eps}"
            return None

        self._invoke(log, "plan", ["plan", "--mode", "ec", "--epsilon", repr(eps),
                                   "--p", repr(p), "--m", str(m)], check)

    def _plan_replication(self, p: float, eps: float, log: OpLog) -> None:
        def check(out):
            k = out["k"]
            if p ** k > eps or (k > 1 and p ** (k - 1) <= eps):
                return f"k={k} is not the smallest count with p**k <= {eps} at p={p}"
            return None

        self._invoke(log, "plan", ["plan", "--mode", "replication", "--epsilon", repr(eps),
                                   "--p", repr(p)], check)

    def _comparison(self, rng):
        """Inputs shared by compare and curve: replication and RS on d DCs."""
        d = int(rng.integers(2, 7))
        self.d_values.append(d)
        m, n = self.RS_SCHEMES[int(rng.integers(len(self.RS_SCHEMES)))]
        schemes = (dk.ReplicationScheme(int(rng.integers(2, 4))), dk.ErasureScheme(m, n))
        q = self._log_uniform(rng, -3, -2)
        p_unavail = self._log_uniform(rng, -4, -2)
        near, far = float(rng.uniform(1, 5)), float(rng.uniform(20, 150))
        args = ["--scheme", schemes[0].label, "--scheme", schemes[1].label,
                "--dcs", str(d), "--p-unavail", repr(p_unavail),
                "--latencies", f"{near!r},{far!r}"]
        return schemes, args, d, q, p_unavail

    def _check_rows(self, rows, expected, d: int, p_unavail: float) -> str | None:
        """Rows against the library; ``expected`` holds (p, q, scheme) per row."""
        if len(rows) != len(expected):
            return f"{len(rows)} rows, expected {len(expected)}"
        for row, (p, q_row, scheme) in zip(rows, expected):
            if row["scheme"] != scheme.label:
                return f"row for {row['scheme']}, expected {scheme.label}"
            if isinstance(scheme, dk.ReplicationScheme):
                loss = dk.prob_loss_replication(p, scheme.k)
            else:
                loss = dk.prob_loss_ec(p, scheme.m, scheme.n)
            if row["loss"] != loss:
                return f"{scheme.label} loss {row['loss']} disagrees with the library's {loss}"
            u = row["unavailability"]
            if not 0.0 <= u <= 1.0:
                return f"{scheme.label} unavailability {u} outside [0, 1]"
            model = dk.DiskFailureModel(p_dead=min(p, p_unavail), p_unavail=p_unavail)
            topology = dk.Topology(d, q_row)
            if isinstance(scheme, dk.ReplicationScheme):
                if scheme.k <= d:
                    # one replica per DC: the closed-form product must agree
                    ref = dk.replication_unavailability(model, topology, scheme.k)
                    if abs(u - ref) > 1e-9 * ref:
                        return f"{scheme.label}: {u} disagrees with the one-per-DC product {ref}"
            elif u < upper_tail(p_unavail, scheme.m + scheme.n, scheme.n) * (1 - 1e-9):
                return f"{scheme.label}: {u} is below the uncorrelated tail"
            if not 0 <= row["repair_remote"] < scheme.fragment_count:
                return f"{scheme.label}: {row['repair_remote']} remote repair transfers"
            self.counts["remote_transfers"] += row["repair_remote"]
            self.counts["outage_states"] += 1 << d
        return None

    def _compare(self, rng, log: OpLog) -> None:
        p = self._log_uniform(rng, -4, -2)
        schemes, args, d, q, p_unavail = self._comparison(rng)
        expected = [(p, q, scheme) for scheme in schemes]
        self._invoke(log, "compare", ["compare", "--p", repr(p), "--q", repr(q), *args],
                     lambda out: self._check_rows(out["rows"], expected, d, p_unavail))

    def _curve(self, rng, log: OpLog) -> None:
        axis = ("p", "q", "m", "n", "scale")[int(rng.integers(5))]
        p = self._log_uniform(rng, -4, -2)
        schemes, args, d, q, p_unavail = self._comparison(rng)
        if axis == "p":
            points = sorted(self._log_uniform(rng, -4, -2) for _ in range(4))
        elif axis == "q":
            points = sorted(self._log_uniform(rng, -3, -1.5) for _ in range(4))
        else:
            choices = self.CURVE_POINTS[axis]
            points = sorted(int(v) for v in rng.choice(choices, size=min(4, len(choices)),
                                                       replace=False))
        expected = []
        for x in points:
            for scheme in schemes:
                if isinstance(scheme, dk.ErasureScheme) and axis in ("m", "n", "scale"):
                    m, n = {"m": (x, scheme.n), "n": (scheme.m, x),
                            "scale": (x * scheme.m, x * scheme.n)}[axis]
                    scheme = dk.ErasureScheme(m, n)
                expected.append((x if axis == "p" else p, x if axis == "q" else q, scheme))
        values = ",".join(repr(x) for x in points)
        self._invoke(log, "curve", ["curve", "--x", axis, "--values", values, "--p", repr(p),
                                    "--q", repr(q), *args],
                     lambda out: self._check_curve(out["rows"], points, expected, d,
                                                   p_unavail))

    def _check_curve(self, rows, points, expected, d: int, p_unavail: float) -> str | None:
        if [row["x"] for row in rows] != [x for x in points for _ in range(2)]:
            return "curve rows are not one per point and scheme, in order"
        return self._check_rows(rows, expected, d, p_unavail)

    def _report(self, rng, log: OpLog) -> None:
        def check(out):
            got = [(r["recoverable"], r["total_patterns"]) for r in out["rows"][3:5]]
            if got != [(120, 120), (180, 210)]:
                return f"LRC report shows {got}, expected 120/120 and 180/210"
            return None

        self._invoke(log, "report", ["codec", "report", "--scheme", "lrc", "--max-t", "4"],
                     check)

    def _repair(self, rng, log: OpLog) -> None:
        if rng.random() < 0.5:
            placement = self.lrc_placement
        else:
            m, n = self.REPAIR_RS[int(rng.integers(len(self.REPAIR_RS)))]
            d = int(rng.integers(2, 7))
            self.d_values.append(d)
            placement = dk.balanced_placement(dk.ErasureScheme(m, n), d)
        count = placement.scheme.fragment_count
        # at most three fragments gone: every such LRC pattern and every RS
        # pattern here (n >= 3) still rebuilds
        gone = [int(i) for i in rng.choice(count, size=1 + int(rng.integers(0, 3)),
                                           replace=False)]
        failed, unavailable = gone[0], tuple(gone[1:])

        def check(plan):
            if any(s in gone for s in plan.sources):
                return f"plan for {failed} reads an unavailable fragment: {plan.sources}"
            if plan.local_transfers + plan.remote_transfers != len(plan.sources):
                return "transfer counts do not add up to the source count"
            self.counts["remote_transfers"] += plan.remote_transfers
            return None

        log.op(self.tracer, "repair/" + ("degraded" if unavailable else "local"),
               lambda: dk.repair_plan(placement, failed, unavailable), check)

    def summary(self, log: OpLog) -> dict:
        durations = log.durations
        metrics = {
            "plan_queries_per_s": metric(len(durations) / math.fsum(durations), "1/s"),
            "plan_p99_us": metric(percentile_us(durations, 99), "us",
                                  samples=len(durations)),
        }
        m_bins = Counter(
            "2-10" if m <= 10 else "11-50" if m <= 50 else "51-100" if m <= 100 else "101-200"
            for m in self.m_values)
        mix = Counter(k.split("/")[0] for k in log.kinds)
        properties = {
            "requests": len(durations),
            "exact_counts_first_requests": self.PREFIX,
            **{f"{name}_first_requests": value
               for name, value in sorted(self.prefix_counts.items())},
            "request_mix": dict(mix),
            "time_share": {kind: math.fsum(log.of_kind(kind)) / math.fsum(durations)
                           for kind in mix},
            "m_distribution": dict(sorted(m_bins.items())),
            "d_distribution": {str(d): c for d, c in sorted(Counter(self.d_values).items())},
        }
        return {"metrics": metrics, "properties": properties}


WORKLOADS = {cls.name: cls for cls in (BulkObjects, SmallObjects, MonteCarlo, Planning)}
