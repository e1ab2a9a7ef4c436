#!/usr/bin/env python3
"""End-to-end smoke test of the vulnds socket front end.

Usage:
    socket_smoke.py [--cli build/vulnds_cli]

Exercises the production serving path the way an operator would:

  1. starts `vulnds_cli serve unix=... tcp=0 max_conns=...` in the
     background and parses its "listening ..." lines (ephemeral TCP port);
  2. drives a load / cold detect / cached detect / stats / metrics script
     over the Unix socket with scripts/serve_client.py and checks the
     responses, including that the cached detect answers cached=1 and the
     vulnds_net_* families appear in the scrape;
  3. opens the same session over TCP and checks the two fronts agree;
  4. fills the connection cap and asserts the over-cap client gets exactly
     "err busy" followed by a clean close;
  5. drains with the `shutdown` verb and asserts the server exits 0 and
     unlinks its socket file;
  6. repeats the drain via SIGTERM with a second server instance;
  7. starts a server whose mem_bytes= budget holds one graph, with a
     spill_dir=, loads two graphs, and requires `stats` and `save` of the
     spilled one to page it back in and answer ok.

Exit status: 0 clean, 1 failure, 2 environment error (CLI missing).
"""

import argparse
import os
import pathlib
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from serve_client import ServeClient  # noqa: E402


def synthesize_graph(path):
    """A small vulnds text graph: a 12-node probabilistic ring + chords."""
    n = 12
    lines = ["vulnds-graph 1", f"{n} {2 * n}",
             " ".join(f"0.{(i % 9) + 1}" for i in range(n))]
    for i in range(n):
        lines.append(f"{i} {(i + 1) % n} 0.5")
        lines.append(f"{i} {(i + 3) % n} 0.25")
    path.write_text("\n".join(lines) + "\n")


def start_server(cli, socket_path, extra=()):
    proc = subprocess.Popen(
        [cli, "serve", f"unix={socket_path}", "tcp=0", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    transports = {}
    for _ in range(2):
        line = proc.stdout.readline().strip()
        if line.startswith("listening tcp="):
            host, _, port = line[len("listening tcp="):].rpartition(":")
            transports["tcp"] = (host, int(port))
        elif line.startswith("listening unix="):
            transports["unix"] = line[len("listening unix="):]
    if set(transports) != {"tcp", "unix"}:
        proc.kill()
        raise RuntimeError(f"missing listening lines, got {transports}")
    return proc, transports


def expect(condition, message, failures):
    if not condition:
        failures.append(message)
        print(f"FAIL: {message}", file=sys.stderr)


def wait_active(client, want, deadline_s=10.0):
    """Polls the `metrics` scrape until the server reports `want` active
    connections. The server frees a closed connection's admission slot
    before it drops the gauge, so once the gauge reads `want` no closed
    client still holds a slot. Returns False if the deadline passes."""
    series = 'vulnds_net_connections{state="active"} '
    deadline = time.monotonic() + deadline_s
    while True:
        for line in client.request("metrics"):
            if line.startswith(series) and float(line[len(series):]) == want:
                return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", default="build/vulnds_cli",
                        help="path to the vulnds_cli binary")
    args = parser.parse_args()
    cli = pathlib.Path(args.cli)
    if not cli.exists():
        print(f"vulnds_cli not found at {cli}", file=sys.stderr)
        return 2

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        graph = pathlib.Path(tmp) / "ring.graph"
        synthesize_graph(graph)
        sock_path = str(pathlib.Path(tmp) / "serve.sock")

        # --- serve a session over the Unix socket --------------------------
        proc, transports = start_server(str(cli), sock_path,
                                        extra=("max_conns=2",))
        holders = []
        try:
            with ServeClient(unix=sock_path) as client:
                ok = client.request(f"load g {graph}")
                expect(ok[0].startswith("ok loaded g"),
                       f"load answered {ok[0]!r}", failures)
                cold = client.request("detect g 3")
                expect(cold[0].startswith("ok detect g") and
                       "cached=0" in cold[0],
                       f"cold detect answered {cold[0]!r}", failures)
                cached = client.request("detect g 3")
                expect("cached=1" in cached[0],
                       f"cached detect answered {cached[0]!r}", failures)
                expect(cached[1:] == cold[1:],
                       "cached payload diverged from the cold payload",
                       failures)
                stats = client.request("stats")
                expect(any(l.startswith("server sessions_started=")
                           for l in stats),
                       "stats block lacks the server counters", failures)
                # The one resident graph's charged bytes size the spill
                # phase's budget below.
                graph_bytes = next(int(l.split("=", 1)[1]) for l in stats
                                   if l.startswith("catalog_bytes="))
                metrics = client.request("metrics")
                for family in ("vulnds_net_accepted_total",
                               "vulnds_net_connections",
                               "vulnds_net_requests_per_connection_count"):
                    expect(any(l.startswith(family) for l in metrics),
                           f"metrics scrape lacks {family}", failures)

                # --- the TCP front answers the same cached block (the
                # wall-clock time= token is the one legitimate difference
                # outside a zero-clock harness) ----------------------------
                with ServeClient(tcp=transports["tcp"]) as tcp_client:
                    tcp_cached = tcp_client.request("detect g 3")
                    strip = lambda ls: [re.sub(r"\btime=\S+", "time=", l)
                                        for l in ls]
                    expect(strip(tcp_cached) == strip(cached),
                           "TCP front diverged from the Unix front", failures)

                # --- admission control: cap is 2, third client bounces ----
                # The TCP client's close is asynchronous: wait until its
                # slot is free before admitting the holder, and until the
                # holder counts before probing, or either races the cap.
                expect(wait_active(client, 1),
                       "the TCP client's slot was never released", failures)
                holders = [ServeClient(unix=sock_path)]  # 2nd live conn
                holders[0].request("catalog")  # prove it was admitted
                expect(wait_active(client, 2),
                       "the cap never showed two active clients", failures)
                raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                raw.settimeout(30)
                raw.connect(sock_path)
                rejected = b""
                while True:
                    chunk = raw.recv(4096)
                    if not chunk:
                        break
                    rejected += chunk
                raw.close()
                expect(rejected == b"err busy\n",
                       f"over-cap client got {rejected!r}", failures)

                # --- graceful drain via the shutdown verb ------------------
                expect(client.request("shutdown") == ["ok draining"],
                       "shutdown did not answer ok draining", failures)
            rc = proc.wait(timeout=60)
            expect(rc == 0, f"drained server exited {rc}", failures)
            expect(not os.path.exists(sock_path),
                   "socket file survived the drain", failures)
        finally:
            for holder in holders:
                holder.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # --- SIGTERM drain: finish in-flight work, exit 0 ------------------
        proc, transports = start_server(str(cli), sock_path)
        try:
            with ServeClient(tcp=transports["tcp"]) as client:
                client.request(f"load g {graph}")
                proc.send_signal(signal.SIGTERM)
                # The already-admitted session still answers until the close.
                tail = client.drain_eof()
            rc = proc.wait(timeout=60)
            expect(rc == 0, f"SIGTERM server exited {rc} (tail {tail!r})",
                   failures)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # --- spill: the budget holds one graph, so loading a second one
        # parks the colder graph in spill_dir; stats/save of it must page
        # it back in, not answer "not in the catalog" ----------------------
        spill_dir = pathlib.Path(tmp) / "spill"
        saved = pathlib.Path(tmp) / "g1.saved"
        proc, transports = start_server(
            str(cli), sock_path,
            extra=(f"mem_bytes={graph_bytes * 3 // 2}",
                   f"spill_dir={spill_dir}"))
        try:
            with ServeClient(unix=sock_path) as client:
                for name in ("g1", "g2"):
                    loaded = client.request(f"load {name} {graph}")
                    expect(loaded[0].startswith(f"ok loaded {name}"),
                           f"spill-phase load {name} answered {loaded[0]!r}",
                           failures)
                stats = client.request("stats")
                expect("spilled_graphs=1" in stats,
                       "loading a second graph spilled nothing", failures)
                g1_stats = client.request("stats g1")
                expect(g1_stats[0] == "ok stats g1",
                       f"stats of the spilled graph answered {g1_stats[0]!r}",
                       failures)
                save = client.request(f"save g1 {saved} text")
                expect(save[0].startswith("ok saved g1"),
                       f"save of the spilled graph answered {save[0]!r}",
                       failures)
                expect(client.request("shutdown") == ["ok draining"],
                       "spill server did not answer ok draining", failures)
            rc = proc.wait(timeout=60)
            expect(rc == 0, f"spill server exited {rc}", failures)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    if failures:
        print(f"socket_smoke: {len(failures)} failure(s)")
        return 1
    print("socket_smoke: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
