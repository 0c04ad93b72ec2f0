"""Command line front end: plan, compare, simulate, codec, curve.

Every number printed here comes from calling a library operation with the
same arguments; the CLI only parses, dispatches, and serializes.

Exit codes: 0 success, 2 usage or file system error, 3 solver/guard/check failure,
4 unusable fragment set (insufficient, inconsistent, or unrecoverable),
5 checksum mismatch, 6 malformed fragment file.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import re
import sys
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import click

from .codec import (
    LRC_6_2_2,
    read_fragment,
    recoverability_report,
    repair_plan,
    write_fragment,
)
from .codec.linear import code_of, encode, solve
from .errors import ChecksumError, CodecError, DurakitError, MalformedFragmentError
from .latency import LatencyProfile, approx_latency_ec
from .placement import (
    Topology,
    balanced_placement,
    placement_unavailability,
)
from .probability import (
    DEFAULT_PARITY_CAP,
    DiskFailureModel,
    ErasureScheme,
    ReplicationScheme,
    meets_target,
    parity_needed,
    prob_any_failure,
    prob_loss_ec,
    redundancy_factor,
    replicas_needed,
)
from .simulate import (
    MAX_TABLE_COUNT,
    simulate_availability,
    simulate_latency,
    simulate_loss,
)

EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_FRAGMENT_SET = 4
EXIT_CHECKSUM = 5
EXIT_MALFORMED = 6

#: The most specific class in an error's MRO picks its exit code: solver
#: bounds and rare-event guards are plain DurakitErrors, and the other codec
#: errors (insufficient, inconsistent, unrecoverable) mean an unusable set.
_EXIT_CODES = {
    MalformedFragmentError: EXIT_MALFORMED,
    ChecksumError: EXIT_CHECKSUM,
    CodecError: EXIT_FRAGMENT_SET,
    DurakitError: EXIT_SOLVER,
}

Z_CHECK_LIMIT = 4.0

#: Fragment and data center counts: larger ones end in a usage error before
#: any table over them is built.
_COUNT = click.IntRange(max=MAX_TABLE_COUNT)


@dataclass
class Settings:
    fmt: str | None
    precision: int
    seed: int
    threads: int
    check: bool


def _echo(message: str, *, err: bool = False, nl: bool = True) -> None:
    # An explicit file keeps click from caching a wrapper for every stream
    # it meets, which in-process runners swap on each invocation.
    click.echo(message, file=sys.stderr if err else sys.stdout, nl=nl)


def _translate_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                return fn(*args, **kwargs)
        except DurakitError as exc:
            _echo(f"error: {exc}", err=True)
            sys.exit(next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES))
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
        except OSError as exc:
            _echo(f"error: {exc}", err=True)
            sys.exit(EXIT_USAGE)
        finally:
            # one plain line per distinct library warning, not Python's source echo
            for message in dict.fromkeys(str(w.message) for w in caught):
                _echo(f"warning: {message}", err=True)

    return wrapper


# ---------------------------------------------------------------------------
# scheme grammar: rep:3, ec:8+3, rs-6-3, lrc, lrc-6-2-2


def parse_scheme(text: str):
    raw = text.strip().lower()
    match = re.fullmatch(r"([a-z]+)[:\-]?(.*)", raw)
    if not match:
        raise click.BadParameter(f"unparseable scheme {text!r}")
    kind, rest = match.groups()
    # counts joined by + or -; anything else has no counts, which no kind takes
    counts = re.fullmatch(r"\d+(?:[+\-]\d+)*", rest)
    numbers = [int(v) for v in re.split(r"[+\-]", rest)] if counts else []
    if kind in ("rep", "replication"):
        if len(numbers) != 1:
            raise click.BadParameter(f"replication takes one count, got {text!r}")
        return _bounded(ReplicationScheme(numbers[0]))
    if kind in ("ec", "rs"):
        if len(numbers) != 2:
            raise click.BadParameter(f"erasure schemes look like ec:8+3, got {text!r}")
        return _bounded(ErasureScheme(numbers[0], numbers[1]))
    if kind == "lrc":
        if rest and f"lrc:{'+'.join(map(str, numbers))}" != LRC_6_2_2.label:
            raise click.BadParameter(f"only the 6+2+2 LRC is supported, got {text!r}")
        return LRC_6_2_2
    raise click.BadParameter(f"unknown scheme kind {kind!r} in {text!r}")


def _bounded(scheme):
    # placement, loss and simulation tables range over every fragment
    if scheme.fragment_count > MAX_TABLE_COUNT:
        raise click.BadParameter(
            f"{scheme.label} has {scheme.fragment_count} fragments, more than "
            f"MAX_TABLE_COUNT = {MAX_TABLE_COUNT}"
        )
    return scheme


def _parse_latencies(text: str) -> LatencyProfile:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise click.BadParameter(f"latencies must be numbers: {text!r}") from exc
    return LatencyProfile(values)


# ---------------------------------------------------------------------------
# output rendering


def _table_cell(value, precision: int) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(settings: Settings, payload: dict, default_fmt: str = "table") -> None:
    fmt = settings.fmt or default_fmt
    if fmt == "json":
        _echo(json.dumps(payload, indent=2))
        return

    rows = payload.get("rows") if isinstance(payload.get("rows"), list) else None
    columns = list(rows[0]) if rows else []
    scalars = {k: v for k, v in payload.items() if not isinstance(v, (list, dict))}
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        if rows is not None:
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_csv_cell(row.get(c)) for c in columns])
        else:
            writer.writerow(scalars.keys())
            writer.writerow([_csv_cell(v) for v in scalars.values()])
        _echo(buffer.getvalue(), nl=False)
        return

    precision = settings.precision
    if rows is not None:
        rendered = [[_table_cell(row.get(c), precision) for c in columns] for row in rows]
        # columns come from the first row, so there is a row to measure
        widths = [max(len(col), *(len(r[i]) for r in rendered))
                  for i, col in enumerate(columns)]
        _echo("  ".join(col.ljust(w) for col, w in zip(columns, widths)))
        for r in rendered:
            _echo("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    else:
        width = max((len(k) for k in scalars), default=0)
        for key, value in scalars.items():
            _echo(f"{key.ljust(width)}  {_table_cell(value, precision)}")
    note = payload.get("note")
    if note:
        _echo(note)


# ---------------------------------------------------------------------------


@click.group()
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["table", "json", "csv"]),
    default=None,
    help="Output serialization [default: table; curve defaults to csv].",
)
@click.option("--precision", type=click.IntRange(min=0), default=3, show_default=True,
              help="Significant figures in table output.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Simulation seed; never wall clock.")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Worker threads for simulation trials.")
@click.option("--check", is_flag=True,
              help="Exit nonzero when a simulation z-score exceeds 4.")
@click.pass_context
def main(ctx, fmt, precision, seed, threads, check):
    """Plan and verify replication vs erasure coding trade-offs."""
    ctx.obj = Settings(fmt=fmt, precision=precision, seed=seed, threads=threads, check=check)


@main.command()
@click.option("--mode", type=click.Choice(["replication", "ec"]), required=True)
@click.option("--epsilon", type=float, required=True,
              help="Tolerable probability of data loss.")
@click.option("--p", type=float, required=True, help="Per-disk dead probability.")
@click.option("--m", type=_COUNT, default=None, help="Data fragment count (ec mode).")
@click.option("--max-n", type=_COUNT, default=DEFAULT_PARITY_CAP, show_default=True,
              help="Parity search bound for the ec solver.")
@click.pass_obj
@_translate_errors
def plan(settings: Settings, mode, epsilon, p, m, max_n):
    """Size a scheme to meet a loss target."""
    if mode == "ec":
        if m is None:
            raise click.UsageError("--m is required for ec mode")
        scheme = ErasureScheme(m, parity_needed(epsilon, p, m, cap=max_n))
    else:
        scheme = ReplicationScheme(replicas_needed(epsilon, p))
    _emit(settings, {  # the scheme's fields name its shape: m and n, or k
        "mode": mode, "epsilon": epsilon, "p": p, **asdict(scheme),
        "loss": _loss(scheme, p), "redundancy_factor": redundancy_factor(scheme),
    })


def _loss(scheme, p: float) -> float:
    # replication is the RS 1+(k-1) code with k = 1, so one formula serves both
    k = scheme.data_fragments
    return prob_loss_ec(p, k, scheme.fragment_count - k)


def _comparison_row(
    scheme,
    p: float,
    epsilon: float | None,
    topology: Topology | None,
    p_unavail: float | None,
    profile: LatencyProfile | None,
) -> dict:
    if not scheme.mds:
        raise click.UsageError(
            f"only replication and m+n schemes can be compared, got {scheme.label}"
        )
    p_u = p_unavail if p_unavail is not None else p
    loss = _loss(scheme, p)

    unavailability = None
    repair_remote = None
    if topology is not None:
        model = DiskFailureModel(p_dead=min(p, p_u), p_unavail=p_u)
        placement = balanced_placement(scheme, topology)
        unavailability = placement_unavailability(model, topology, placement)
        if scheme.fragment_count > 1:
            repair_remote = repair_plan(placement, 0).remote_transfers
    latency = None
    if profile is not None:
        if profile.site_count < 2:
            raise click.UsageError("latency profiles need at least two sites")
        l1, l2 = profile.latencies[0], profile.latencies[1]
        latency = approx_latency_ec(l1, l2, p_u, scheme.data_fragments)

    row = {
        "scheme": scheme.label,
        "redundancy_factor": redundancy_factor(scheme),
        "loss": loss,
        "unavailability": unavailability,
        "recoverable_failure": prob_any_failure(p, scheme.fragment_count),
        "expected_latency": latency,
        "repair_remote": repair_remote,
    }
    if epsilon is not None:
        row["meets_target"] = meets_target(loss, epsilon)
    return row


def _comparison_options(fn):
    """The options compare and curve share, declared once for both."""
    for option in reversed((
        click.option("--epsilon", type=float, default=None,
                     help="Loss target to annotate each scheme against."),
        click.option("--scheme", "schemes", multiple=True, required=True,
                     help="Repeatable; e.g. --scheme rep:3 --scheme ec:8+3."),
        click.option("--dcs", type=_COUNT, default=None, help="Data center count."),
        click.option("--q", type=float, default=0.0, show_default=True,
                     help="Per-DC outage probability."),
        click.option("--p-unavail", type=float, default=None,
                     help="Per-disk unavailability [default: same as --p]."),
        click.option("--latencies", default=None,
                     help="Per-site latencies nearest first, e.g. 1,100."),
    )):
        fn = option(fn)
    return fn


@main.command()
@click.option("--p", type=float, required=True, help="Per-disk dead probability.")
@_comparison_options
@click.pass_obj
@_translate_errors
def compare(settings: Settings, p, epsilon, schemes, dcs, q, p_unavail, latencies):
    """Tabulate storage, loss, availability, latency, and repair cost side by side."""
    if len(schemes) < 2:
        raise click.UsageError("need at least two --scheme options to compare")
    parsed = [parse_scheme(s) for s in schemes]
    topology = Topology(dcs, q) if dcs is not None else None
    profile = _parse_latencies(latencies) if latencies else None

    rows = [
        _comparison_row(s, p, epsilon, topology, p_unavail, profile) for s in parsed
    ]
    max_kc = max(row["redundancy_factor"] for row in rows)
    for row in rows:
        row["space_ratio"] = row["redundancy_factor"] / max_kc

    note = None
    if len(rows) == 2 and rows[0]["redundancy_factor"] != rows[1]["redundancy_factor"]:
        small, large = sorted(rows, key=lambda r: r["redundancy_factor"])
        note = (
            f"{small['scheme']} uses {small['space_ratio']:.0%} of the space of "
            f"{large['scheme']} ({small['redundancy_factor']:g} vs "
            f"{large['redundancy_factor']:g})"
        )
    payload = {"rows": rows, "note": note}
    _emit(settings, payload)


@main.command()
@click.option("--scenario", type=click.Choice(["loss", "availability", "latency"]),
              required=True)
@click.option("--trials", type=int, default=100_000, show_default=True)
@click.option("--p", type=float, default=None,
              help="Disk dead probability (loss) or unavailability (latency).")
@click.option("--m", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--replicas", type=int, default=None,
              help="Replication placement for the availability scenario.")
@click.option("--dcs", type=_COUNT, default=None)
@click.option("--q", type=float, default=0.0, show_default=True)
@click.option("--p-unavail", type=float, default=0.0, show_default=True)
@click.option("--latencies", default=None)
@click.pass_obj
@_translate_errors
def simulate(settings: Settings, scenario, trials, p, m, n, replicas, dcs, q,
             p_unavail, latencies):
    """Run a Monte Carlo scenario and report estimate, analytic value, and z-score."""
    payload: dict = {
        "scenario": scenario,
        "trials": trials,
        "seed": settings.seed,
    }
    if scenario == "loss":
        if p is None or m is None or n is None:
            raise click.UsageError("loss scenario needs --p, --m, and --n")
        result = simulate_loss(p, m, n, trials, seed=settings.seed,
                               threads=settings.threads)
        payload.update({"p": p, "m": m, "n": n})
    elif scenario == "availability":
        if dcs is None:
            raise click.UsageError("availability scenario needs --dcs")
        if replicas is not None and (m is not None or n is not None):
            raise click.UsageError("--replicas conflicts with --m and --n")
        if replicas is not None:
            scheme = _bounded(ReplicationScheme(replicas))
        elif m is not None and n is not None:
            scheme = _bounded(ErasureScheme(m, n))
        else:
            raise click.UsageError(
                "availability scenario needs --replicas or both --m and --n"
            )
        topology = Topology(dcs, q)
        placement = balanced_placement(scheme, topology)
        model = DiskFailureModel(p_dead=0.0, p_unavail=p_unavail)
        result = simulate_availability(model, topology, placement, trials,
                                       seed=settings.seed, threads=settings.threads)
        payload.update({"scheme": scheme.label, "dcs": dcs, "q": q,
                        "p_unavail": p_unavail})
    else:
        if latencies is None or p is None:
            raise click.UsageError("latency scenario needs --latencies and --p")
        profile = _parse_latencies(latencies)
        if (m is None) != (n is None):
            raise click.UsageError("EC latency needs both --m and --n")
        ec = None if m is None else ErasureScheme(m, n)
        result = simulate_latency(profile, p, trials, seed=settings.seed,
                                  threads=settings.threads, ec=ec)
        payload.update({"p": p, "latencies": list(profile.latencies),
                        "mode": ec.label if ec else "replication"})

    payload.update({
        "events": result.events,
        "expected_events": result.expected_events,
        "estimate": result.point_estimate,
        "standard_error": result.standard_error,
        "relative_standard_error": result.relative_standard_error,
        "analytic": result.analytic,
        "z_score": result.z_score,
        "unserved_trials": result.unserved_trials,
    })
    _emit(settings, payload)
    if settings.check and abs(result.z_score) > Z_CHECK_LIMIT:
        _echo(
            f"check failed: |z| = {abs(result.z_score):.2f} exceeds {Z_CHECK_LIMIT}",
            err=True,
        )
        sys.exit(EXIT_SOLVER)


@main.group()
def codec():
    """Encode, decode, and analyze fragment files."""


@codec.command("encode")
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--scheme", "scheme_text", required=True,
              help="rs:8+3, rep:3, or lrc-6-2-2.")
@click.option("--out-dir", type=click.Path(file_okay=False, path_type=Path),
              default=Path("."), show_default=True)
@click.pass_obj
@_translate_errors
def codec_encode(settings: Settings, input_file: Path, scheme_text, out_dir: Path):
    """Encode a file into one fragment file per index."""
    code = code_of(parse_scheme(scheme_text))
    fragments = encode(code, input_file.read_bytes(), None)

    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for frag in fragments:
        path = out_dir / f"{input_file.name}.f{frag.index:03d}.ecfr"
        write_fragment(frag, path)
        rows.append({
            "index": frag.index,
            "role": frag.role.value,
            "payload_bytes": frag.payload_len,
            "file": str(path),
        })
    _emit(settings, {"rows": rows})


@codec.command("decode")
@click.argument("fragment_files", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--out", "out_file", required=True,
              type=click.Path(dir_okay=False, path_type=Path))
@click.pass_obj
@_translate_errors
def codec_decode(settings: Settings, fragment_files, out_file: Path):
    """Reconstruct a file from any sufficient subset of its fragment files."""
    fragments = [read_fragment(path) for path in fragment_files]
    data, used = solve(code_of(fragments[0].scheme), fragments)
    out_file.write_bytes(data)
    _emit(settings, {
        "output": str(out_file),
        "bytes": len(data),
        "fragments_used": len(used),
    })


@codec.command("report")
@click.option("--scheme", "scheme_text", required=True)
@click.option("--max-t", type=int, default=None,
              show_default="4, or the fragment count if smaller",
              help="Largest failure-pattern size to enumerate.")
@click.pass_obj
@_translate_errors
def codec_report(settings: Settings, scheme_text, max_t):
    """Recoverable fraction of every failure pattern size up to max-t."""
    scheme = parse_scheme(scheme_text)
    if max_t is None:
        max_t = min(4, scheme.fragment_count)
    report = recoverability_report(scheme, max_t)
    rows = [
        {
            "failures": row.failures,
            "total_patterns": row.total_patterns,
            "recoverable": row.recoverable,
            "fraction": row.fraction,
        }
        for row in report.rows
    ]
    _emit(settings, {"scheme": report.scheme_label, "rows": rows})


@main.command()
@click.option("--x", "axis", type=click.Choice(["p", "m", "n", "q", "scale"]),
              required=True, help="Swept parameter.")
@click.option("--values", required=True, help="Comma separated sweep values.")
@click.option("--p", type=float, default=None,
              help="Per-disk dead probability (fixed unless swept).")
@_comparison_options
@click.pass_obj
@_translate_errors
def curve(settings: Settings, axis, values, schemes, p, epsilon, dcs, q,
          p_unavail, latencies):
    """Sweep one parameter and emit comparison rows per point (CSV by default).

    Columns, in order: x, scheme, redundancy_factor, loss, unavailability,
    recoverable_failure, expected_latency, repair_remote, and meets_target
    with --epsilon.
    """
    parsed = [parse_scheme(s) for s in schemes]
    profile = _parse_latencies(latencies) if latencies else None
    try:
        if axis in ("p", "q"):
            points = [float(v) for v in values.split(",")]
        else:
            points = [int(v) for v in values.split(",")]
    except ValueError as exc:
        raise click.BadParameter(f"bad sweep values {values!r}") from exc
    if axis != "p" and p is None:
        raise click.UsageError("--p is required unless it is the swept axis")

    fields = {"m": ("m",), "n": ("n",), "scale": ("m", "n")}.get(axis, ())
    rows = []
    for x in points:
        p_eff = x if axis == "p" else p
        q_eff = x if axis == "q" else q
        topology = Topology(dcs, q_eff) if dcs is not None else None
        for scheme in parsed:
            changes = {name: x * getattr(scheme, name) if axis == "scale" else x
                       for name in fields if hasattr(scheme, name)}
            swept = replace(scheme, **changes) if changes else scheme
            row = _comparison_row(_bounded(swept), p_eff, epsilon, topology,
                                  p_unavail, profile)
            rows.append({"x": x, **row})
    _emit(settings, {"rows": rows}, default_fmt="csv")


if __name__ == "__main__":
    main()
