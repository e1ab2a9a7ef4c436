#!/usr/bin/env python3
"""Lint the serve stack's Prometheus exposition end to end.

Usage:
    check_metrics.py [--cli build/vulnds_cli]

Starts a real `vulnds_cli serve unix=...` socket front end, loads a
synthesized graph over the wire, runs a cold and a cached detect plus a
truth query, scrapes the `metrics` verb, sends `stats` to the same quiet
server, drains it with the `shutdown` verb (asserting exit 0), and
validates the exposition a scraper would see:

  * every series line belongs to a family with exactly one # HELP and one
    # TYPE line, emitted before the series (no orphan or duplicate families);
  * family names follow vulnds_<subsystem>_..., counters end in _total,
    and the TYPE matches the suffix convention;
  * no duplicate series (same name + label set twice);
  * histogram buckets are cumulative (monotone in le order, le="+Inf"
    present) and agree with the family's _count;
  * the families the serve stack promises are all present: engine requests
    and per-stage latency histograms, result-cache and catalog families,
    the server session counters, and the socket
    front end's vulnds_net_* connection/timeout families;
  * `stats` and `metrics` read one source: every numeric `stats` key equals
    the registry series STATS_SERIES maps it to, and every key is either
    mapped or named in STATS_EXEMPT.

Exit status: 0 clean, 1 lint failure, 2 environment error (CLI missing).
"""

import argparse
import pathlib
import re
import subprocess
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from serve_client import ServeClient  # noqa: E402

# Families the instrumented serve stack must always export (the acceptance
# surface: engine, server, catalog, result caches, stage latencies).
REQUIRED_FAMILIES = [
    "vulnds_engine_requests_total",
    "vulnds_engine_request_micros",
    "vulnds_engine_stage_micros",
    "vulnds_engine_batched_queries_total",
    "vulnds_engine_waves_issued_total",
    "vulnds_engine_worlds_wasted_total",
    "vulnds_simd_tier",
    "vulnds_simd_batched_coins_total",
    "vulnds_simd_scalar_tail_coins_total",
    "vulnds_sampler_scratch_bytes",
    "vulnds_cache_hits_total",
    "vulnds_cache_misses_total",
    "vulnds_cache_entries",
    "vulnds_catalog_hits_total",
    "vulnds_catalog_resident_graphs",
    "vulnds_catalog_resident_bytes",
    "vulnds_store_budget_bytes",
    "vulnds_store_resident_bytes",
    "vulnds_store_charged_bytes",
    "vulnds_store_spilled_bytes",
    "vulnds_store_spilled_graphs",
    "vulnds_store_spills_total",
    "vulnds_store_spill_writes_total",
    "vulnds_store_page_ins_total",
    "vulnds_store_page_in_micros",
    "vulnds_store_spill_micros",
    "vulnds_store_rejected_oversize_total",
    "vulnds_store_io_errors_total",
    "vulnds_store_spill_orphans_reclaimed_total",
    "vulnds_server_requests_total",
    "vulnds_server_sessions_started_total",
    "vulnds_net_connections",
    "vulnds_net_accepted_total",
    "vulnds_net_rejected_total",
    "vulnds_net_timeouts_total",
    "vulnds_net_requests_per_connection",
]

# `stats` key -> (family, label selector or None for the sum over the
# family's series, expected stats-minus-series offset). The scrape comes
# first, so only the `stats` request itself separates the two reads.
STATS_SERIES = {
    "detect_queries": ("vulnds_engine_requests_total", '{verb="detect"}', 0),
    "truth_queries": ("vulnds_engine_requests_total", '{verb="truth"}', 0),
    "batched_queries": ("vulnds_engine_batched_queries_total", None, 0),
    "worlds_wasted": ("vulnds_engine_worlds_wasted_total", None, 0),
    "waves_issued": ("vulnds_engine_waves_issued_total", None, 0),
    "simd_batched_coins": ("vulnds_simd_batched_coins_total", None, 0),
    "simd_tail_coins": ("vulnds_simd_scalar_tail_coins_total", None, 0),
    "cache_hits": ("vulnds_cache_hits_total", None, 0),
    "cache_misses": ("vulnds_cache_misses_total", None, 0),
    "catalog_size": ("vulnds_catalog_resident_graphs", None, 0),
    "catalog_bytes": ("vulnds_catalog_resident_bytes", None, 0),
    "resident_bytes": ("vulnds_catalog_resident_bytes", None, 0),
    "spilled_bytes": ("vulnds_store_spilled_bytes", None, 0),
    "spilled_graphs": ("vulnds_store_spilled_graphs", None, 0),
    "store_budget_bytes": ("vulnds_store_budget_bytes", None, 0),
    "context_bytes": ("vulnds_catalog_context_bytes", None, 0),
    "context_busy": ("vulnds_catalog_context_busy", None, 0),
    "catalog_evictions": ("vulnds_catalog_evictions_total", None, 0),
    # The `server ...` line.
    "server.sessions_started": (
        "vulnds_server_sessions_started_total", None, 0),
    "server.sessions_finished": (
        "vulnds_server_sessions_finished_total", None, 0),
    "server.requests": ("vulnds_server_requests_total", None, 1),
    "server.errors": ("vulnds_server_errors_total", None, 0),
    "server.updates": ("vulnds_server_updates_total", None, 0),
}

# `stats` keys with no series of their own: the journal's size (no
# registry series), the tier's name (vulnds_simd_tier carries it as a
# label), a ratio of two mapped counters, and the session-local `serve`
# line.
STATS_EXEMPT = {"journal_bytes", "simd_tier", "cache_hit_rate", "serve"}

NAME_RE = re.compile(r"^vulnds_[a-z0-9_]+$")
SERIES_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (.+)$")


def synthesize_graph(path):
    """Writes a small vulnds text graph: a 6-node probabilistic ring."""
    n = 6
    lines = [f"vulnds-graph 1", f"{n} {n}",
             " ".join(f"0.{i + 1}" for i in range(n))]
    for i in range(n):
        lines.append(f"{i} {(i + 1) % n} 0.5")
    path.write_text("\n".join(lines) + "\n")


def scrape(cli, graph_path, socket_path):
    """Runs the probe script against a real `serve unix=...` front end and
    returns the metrics exposition and the `stats` payload lines that
    follow it; the server is drained via `shutdown` and must exit 0. The
    vulnds_net_* families only exist on this path — scraping over a socket
    is what makes them part of the lint surface."""
    proc = subprocess.Popen([cli, "serve", f"unix={socket_path}"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        listening = proc.stdout.readline()
        if not listening.startswith("listening unix="):
            raise RuntimeError(f"no listening line, got: {listening!r}")
        with ServeClient(unix=socket_path, timeout=120) as client:
            for line in (f"load g {graph_path}", "detect g 2", "detect g 2",
                         "truth g 2 50 7"):
                response = client.request(line)
                if not response[0].startswith("ok"):
                    raise RuntimeError(f"{line!r} answered {response[0]!r}")
            metrics = client.request("metrics")
            if metrics[0] != "ok metrics" or metrics[-1] != ".":
                raise RuntimeError("metrics block is not '.'-terminated")
            stats = client.request("stats")
            if stats[0] != "ok stats engine" or stats[-1] != ".":
                raise RuntimeError(f"stats answered {stats[0]!r}")
            drained = client.request("shutdown")
            if drained != ["ok draining"]:
                raise RuntimeError(f"shutdown answered {drained!r}")
        rc = proc.wait(timeout=60)
        if rc != 0:
            raise RuntimeError(
                f"drained server exited {rc}:\n{proc.stderr.read()}")
        return "\n".join(metrics[1:-1]) + "\n", stats[1:-1]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def base_family(name):
    """Histogram series names map back to their family name."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def lint(text):
    errors = []
    families = {}  # name -> {"help": bool, "type": str}
    seen_series = set()
    histogram_buckets = {}  # (family, labels-sans-le) -> [(le, value)]
    histogram_counts = {}  # (family, labels) -> value
    current_family = None

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            errors.append(f"line {lineno}: blank line inside exposition")
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            # ['#', 'HELP'|'TYPE', name, text]
            parts = line.split(" ", 3)
            kind, name = parts[1], parts[2]
            meta = families.setdefault(name, {"help": 0, "type": None})
            if kind == "HELP":
                meta["help"] += 1
                if meta["help"] > 1:
                    errors.append(f"line {lineno}: duplicate HELP for {name}")
            else:
                if meta["type"] is not None:
                    errors.append(f"line {lineno}: duplicate TYPE for {name}")
                meta["type"] = parts[3].strip()
                if not NAME_RE.match(name):
                    errors.append(
                        f"line {lineno}: family '{name}' breaks the "
                        "vulnds_<subsystem>_<name> naming convention")
                if name.endswith("_total") and meta["type"] != "counter":
                    errors.append(
                        f"line {lineno}: '{name}' ends in _total but TYPE "
                        f"is {meta['type']}")
                current_family = name
            continue
        if line.startswith("#"):
            errors.append(f"line {lineno}: unexpected comment: {line}")
            continue

        m = SERIES_RE.match(line)
        if not m:
            errors.append(f"line {lineno}: unparseable series line: {line}")
            continue
        series_name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        family = base_family(series_name)
        if family not in families or families[family]["type"] is None:
            errors.append(
                f"line {lineno}: series '{series_name}' has no preceding "
                "HELP/TYPE")
            continue
        if family != current_family:
            errors.append(
                f"line {lineno}: series '{series_name}' appears outside its "
                f"family block (current: {current_family})")
        if (series_name, labels) in seen_series:
            errors.append(
                f"line {lineno}: duplicate series {series_name}{labels}")
        seen_series.add((series_name, labels))

        ftype = families[family]["type"]
        if ftype == "histogram":
            if series_name.endswith("_bucket"):
                le = re.search(r'le="([^"]+)"', labels)
                if not le:
                    errors.append(f"line {lineno}: _bucket without le label")
                    continue
                key_labels = re.sub(r',?le="[^"]+"', "", labels)
                if key_labels == "{}":  # le was the only label
                    key_labels = ""
                histogram_buckets.setdefault((family, key_labels), []).append(
                    (le.group(1), float(value)))
            elif series_name.endswith("_count"):
                histogram_counts[(family, labels)] = float(value)
        else:
            try:
                v = float(value)
            except ValueError:
                errors.append(f"line {lineno}: non-numeric value: {line}")
                continue
            if ftype == "counter" and v < 0:
                errors.append(f"line {lineno}: negative counter: {line}")

    # Histogram invariants: buckets monotone, +Inf present and == _count.
    for (family, labels), buckets in histogram_buckets.items():
        values = [v for _, v in buckets]
        if values != sorted(values):
            errors.append(f"{family}{labels}: buckets are not cumulative")
        les = [le for le, _ in buckets]
        if les.count("+Inf") != 1 or les[-1] != "+Inf":
            errors.append(f"{family}{labels}: le=\"+Inf\" missing or not last")
            continue
        count = histogram_counts.get((family, labels))
        if count is None:
            errors.append(f"{family}{labels}: histogram without _count")
        elif count != values[-1]:
            errors.append(
                f"{family}{labels}: _count={count} != +Inf bucket "
                f"{values[-1]}")

    for name in REQUIRED_FAMILIES:
        if name not in families:
            errors.append(f"required family '{name}' missing from exposition")

    return errors


def series_values(text):
    """Maps "name{labels}" to the value of every non-histogram series."""
    values = {}
    for line in text.splitlines():
        m = SERIES_RE.match(line)
        if m and not line.startswith("#"):
            try:
                values[m.group(1) + (m.group(2) or "")] = float(m.group(3))
            except ValueError:
                pass
    return values


def check_stats(stats_lines, text):
    """Every numeric `stats` key equals the series STATS_SERIES maps it to;
    a key neither mapped nor exempt is an error."""
    errors = []
    fields = {}
    for line in stats_lines:
        words = line.split()
        if words and words[0] in ("server", "serve"):
            if words[0] in STATS_EXEMPT:
                continue
            for word in words[1:]:
                key, _, value = word.partition("=")
                fields[f"{words[0]}.{key}"] = value
        else:
            key, _, value = line.partition("=")
            if key not in STATS_EXEMPT:
                fields[key] = value
    values = series_values(text)
    for key, value in fields.items():
        if key not in STATS_SERIES:
            errors.append(f"stats key '{key}' maps to no registry series "
                          "(add it to STATS_SERIES or STATS_EXEMPT)")
            continue
        family, labels, offset = STATS_SERIES[key]
        if labels is None:
            matched = [v for name, v in values.items()
                       if name == family or name.startswith(family + "{")]
        else:
            matched = [values[family + labels]] if family + labels in values \
                else []
        if not matched:
            errors.append(f"stats key '{key}': series {family} missing")
            continue
        want = sum(matched) + offset
        if float(value) != want:
            errors.append(f"stats {key}={value}, but {family}"
                          f"{labels or ''} + {offset} = {want:g}")
    for key in STATS_SERIES:
        if key not in fields:
            errors.append(f"stats key '{key}' missing from the stats block")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", default="build/vulnds_cli",
                        help="path to the vulnds_cli binary")
    args = parser.parse_args()

    cli = pathlib.Path(args.cli)
    if not cli.exists():
        print(f"vulnds_cli not found at {cli}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        graph = pathlib.Path(tmp) / "ring.graph"
        socket_path = pathlib.Path(tmp) / "metrics.sock"
        synthesize_graph(graph)
        try:
            text, stats = scrape(str(cli), graph, str(socket_path))
        except (RuntimeError, OSError, ConnectionError) as err:
            print(f"scrape failed: {err}", file=sys.stderr)
            return 1

    errors = lint(text) + check_stats(stats, text)
    series_lines = sum(1 for line in text.splitlines()
                       if line and not line.startswith("#"))
    print(f"check_metrics: {len(text.splitlines())} exposition lines, "
          f"{series_lines} series")
    if errors:
        for err in errors:
            print(f"FAIL: {err}")
        return 1
    print("check_metrics: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
