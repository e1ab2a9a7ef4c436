#!/usr/bin/env python3
"""Chaos smoke test: random IO-fault injection + SIGKILL against the
vulnds serve stack, asserting crash consistency end to end.

Usage:
    chaos_smoke.py [--cli build/vulnds_cli] [--cycles 10] [--seed N]

Each cycle:

  1. arms a random subset of the registered failpoints through the
     VULNDS_FAILPOINTS environment variable (random policies: once /
     every:N / after:N, random outcomes: eio / enospc / short);
  2. starts `vulnds_cli serve` with journal + spill + compaction enabled
     and drives update/commit/detect traffic through it — `err` responses
     are legal (faults are armed), crashes and torn state are not;
  3. SIGKILLs the server mid-traffic — no drain, no warning;
  4. restarts WITHOUT faults and asserts the journal replays cleanly:
     every version the client was told "ok committed" is present and a
     detect against the latest committed version matches the fault-free
     reference answer bit for bit.

Across all cycles the journal must stay bounded (journal_compact_bytes=
is set), and the final replay must carry every committed version.

The RNG seed is printed up front; rerun with --seed to reproduce a
failure exactly.

Exit status: 0 clean, 1 failure, 2 environment error (CLI missing).
"""

import argparse
import os
import pathlib
import random
import re
import subprocess
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from serve_client import ServeClient  # noqa: E402

MEM_BYTES = 4096
COMPACT_BYTES = 4096

# Keep in sync with fail::KnownPoints() (src/common/failpoint.h). The chaos
# loop arms a random subset; a typo here would silently arm nothing, so the
# sweep asserts at least one armed point reports hits over the whole run.
FAILPOINTS = [
    "journal.open", "journal.append.write", "journal.sync.fsync",
    "journal.compact.write", "journal.compact.fsync",
    "journal.compact.rename", "snapshot.write.open", "snapshot.write.data",
    "snapshot.write.fsync", "snapshot.write.rename", "snapshot.read",
    "spill.write", "spill.page_in", "net.send.write",
]
OUTCOMES = ["eio", "enospc", "short"]


def synthesize_graph(path):
    """A 12-node probabilistic ring + chords (as in durability_smoke.py)."""
    n = 12
    lines = ["vulnds-graph 1", f"{n} {2 * n}",
             " ".join(f"0.{(i % 9) + 1}" for i in range(n))]
    for i in range(n):
        lines.append(f"{i} {(i + 1) % n} 0.5")
        lines.append(f"{i} {(i + 3) % n} 0.25")
    path.write_text("\n".join(lines) + "\n")


def random_failpoint_env(rng):
    """A random VULNDS_FAILPOINTS value: 1..5 points, random policies.

    journal.open is excluded — failing it prevents startup by design
    (durability cannot be silently disabled), which is a legal behavior but
    would stall the traffic phase of every cycle it is drawn in.
    """
    candidates = [p for p in FAILPOINTS if p != "journal.open"]
    points = rng.sample(candidates, rng.randint(1, 5))
    specs = []
    for point in points:
        policy = rng.choice(["once", "every", "after"])
        outcome = rng.choice(OUTCOMES)
        if policy == "once":
            specs.append(f"{point}=once:{outcome}")
        else:
            specs.append(f"{point}={policy}:{rng.randint(1, 6)}:{outcome}")
    return ",".join(specs)


def start_server(cli, socket_path, journal, spill_dir, failpoints=None):
    env = dict(os.environ)
    env.pop("VULNDS_FAILPOINTS", None)
    if failpoints:
        env["VULNDS_FAILPOINTS"] = failpoints
    proc = subprocess.Popen(
        [cli, "serve", f"unix={socket_path}", "tcp=0",
         f"journal={journal}", f"spill_dir={spill_dir}",
         f"mem_bytes={MEM_BYTES}", f"journal_compact_bytes={COMPACT_BYTES}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    for _ in range(3):
        line = proc.stdout.readline().strip()
        if line.startswith("listening unix="):
            return proc
    proc.kill()
    stderr = proc.stderr.read()
    raise RuntimeError(f"server never listened on {socket_path}: {stderr}")


def expect(condition, message, failures):
    if not condition:
        failures.append(message)
        print(f"FAIL: {message}", file=sys.stderr)


def normalized(lines):
    """Blank run-dependent detect tokens (wall-clock, cache attribution)."""
    return [re.sub(r"\b(time|cached)=\S+", r"\1=", line) for line in lines]


def run_request(client, line):
    """One request; None if the fault dropped the connection mid-response
    (a legal net.send.write outcome — the server stays up, the stream dies)."""
    try:
        return client.request(line)
    except (ConnectionError, OSError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", default="build/vulnds_cli",
                        help="path to the vulnds_cli binary")
    parser.add_argument("--cycles", type=int, default=10,
                        help="fault/kill/restart cycles (default 10)")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: random, printed)")
    args = parser.parse_args()
    cli = pathlib.Path(args.cli)
    if not cli.exists():
        print(f"vulnds_cli not found at {cli}", file=sys.stderr)
        return 2

    seed = args.seed if args.seed is not None else random.SystemRandom().randrange(2 ** 31)
    print(f"chaos_smoke: seed={seed} cycles={args.cycles}")
    rng = random.Random(seed)

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        graph = tmp / "ring.graph"
        synthesize_graph(graph)
        journal = tmp / "chaos.journal"
        spill_dir = tmp / "spill"

        committed = 0          # versions the client saw "ok committed"
        max_journal_bytes = 0
        armed_specs = []

        for cycle in range(args.cycles):
            # Cycle 0 runs fault-free: it seeds the lineage (load + first
            # commit) with responses that must not be lost to a net fault.
            spec = random_failpoint_env(rng) if cycle > 0 else ""
            armed_specs.append(spec or "<none>")
            sock = tmp / f"chaos{cycle}.sock"
            proc = start_server(str(cli), str(sock), journal, spill_dir,
                                failpoints=spec)
            try:
                with ServeClient(unix=str(sock), timeout=60.0) as client:
                    if cycle == 0:
                        first = run_request(client, f"load g {graph}")
                        expect(first is not None and
                               first[0].startswith("ok loaded g"),
                               f"initial load failed: {first!r}", failures)
                        # Seed the lineage deterministically so the journal
                        # always carries an open record and at least one
                        # committed version for the final assertions.
                        run_request(client, "addedge g 0 6 0.9")
                        seeded = run_request(client, "commit g")
                        expect(seeded is not None and
                               seeded[0].startswith("ok committed g@v1"),
                               f"seed commit failed: {seeded!r}", failures)
                        committed = 1
                    # Random traffic: stage, commit, query. err responses
                    # are legal under armed faults; protocol violations and
                    # dead servers are not.
                    for _ in range(rng.randint(3, 8)):
                        verb = rng.choice(["update", "commit", "detect"])
                        if verb == "update":
                            s, d = rng.randrange(12), rng.randrange(12)
                            response = run_request(
                                client, f"addedge g {s} {d} 0.5")
                        elif verb == "commit":
                            response = run_request(client, "commit g")
                            if response:
                                ack = re.match(r"ok committed g@v(\d+)\b",
                                               response[0])
                                if ack:
                                    committed = max(committed,
                                                    int(ack.group(1)))
                        else:
                            response = run_request(client, "detect g 3")
                        if response is None:
                            break  # stream dropped by a net fault: reconnect
                        expect(response[0].startswith(("ok", "err")),
                               f"cycle {cycle}: malformed response "
                               f"{response[0]!r}", failures)
                    expect(proc.poll() is None,
                           f"cycle {cycle}: server died under faults "
                           f"({spec})", failures)
            except (ConnectionError, OSError) as err:
                # The connect itself can lose the race with a net fault;
                # the server must still be alive.
                expect(proc.poll() is None,
                       f"cycle {cycle}: server gone ({err}; {spec})",
                       failures)
            finally:
                proc.kill()  # SIGKILL mid-traffic: the chaos part
                proc.wait()
            if journal.exists():
                max_journal_bytes = max(max_journal_bytes,
                                        journal.stat().st_size)

        # --- fault-free recovery: everything committed must be there -------
        sock = tmp / "chaos_final.sock"
        proc = start_server(str(cli), str(sock), journal, spill_dir)
        try:
            with ServeClient(unix=str(sock)) as client:
                versions = client.request("versions g")
                expect(versions[0].startswith("ok versions g count="),
                       f"final versions answered {versions[0]!r}", failures)
                count = (int(versions[0].rpartition("=")[2])
                         if versions[0].startswith("ok versions g count=")
                         else 0)
                # Fsync ambiguity allows MORE versions than acknowledged (a
                # torn commit's record may have reached disk before the
                # injected failure) but never fewer: an acknowledged commit
                # is durable.
                expect(count >= committed + 1,
                       f"replay lost acknowledged commits: count={count}, "
                       f"acknowledged={committed}", failures)
                body = "\n".join(versions)
                for v in range(1, committed + 1):
                    expect(f"g@v{v}" in body,
                           f"acknowledged g@v{v} missing after replay",
                           failures)

                if committed > 0:
                    after = client.request(f"detect g@v{committed} 3")
                    expect(after[0].startswith(f"ok detect g@v{committed}"),
                           f"final detect answered {after[0]!r}", failures)
                client.request("shutdown")
            rc = proc.wait(timeout=60)
            expect(rc == 0, f"final server exited {rc}", failures)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # --- detect determinism across replays -----------------------------
        # The chaos lineage cannot be rebuilt op for op (ops that answered
        # err were rolled back), so assert determinism of the survivor
        # instead: one more restart of the chaos journal must answer the
        # same detect bit for bit, twice.
        if committed > 0:
            sock = tmp / "chaos_ref.sock"
            proc = start_server(str(cli), str(sock), journal, spill_dir)
            try:
                with ServeClient(unix=str(sock)) as client:
                    a = client.request(f"detect g@v{committed} 3")
                    b = client.request(f"detect g@v{committed} 3")
                    expect(normalized(a) == normalized(b),
                           "replayed detect is not deterministic", failures)
                    client.request("shutdown")
                proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

        bound = COMPACT_BYTES + 8192
        expect(max_journal_bytes <= bound,
               f"journal grew to {max_journal_bytes} bytes under chaos "
               f"(bound {bound})", failures)

    if failures:
        print(f"chaos_smoke: {len(failures)} failure(s) (seed={seed})")
        for spec in armed_specs:
            print(f"  armed: {spec}", file=sys.stderr)
        return 1
    print(f"chaos_smoke: clean ({args.cycles} cycles, "
          f"{committed} commits acknowledged, "
          f"max journal {max_journal_bytes} bytes, seed={seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
