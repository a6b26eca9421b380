#!/usr/bin/env python3
"""Whole-system benchmark entry point.

Builds cmd/monestd and the perfbench program from this checkout, then runs
one workload:

    python3 perfbench/run.py --workload ingest-durable|query-mix|cluster-3node \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Everything it writes (Go build cache,
binaries, daemon data directories, traced-run spans) stays under
.bench_build/ in the checkout. The program's last line of standard output
is the JSON result; the exit code is the program's (non-zero on any oracle
mismatch or error). The program and every daemon it started are killed if
this script is interrupted or the run exceeds its time limit.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    return env


def build(env):
    """Builds both binaries; returns their paths or exits non-zero."""
    bindir = os.path.join(BUILD, "bin")
    monestd = os.path.join(bindir, "monestd")
    prog = os.path.join(bindir, "perfbench")
    steps = [
        (["go", "build", "-o", monestd, "./cmd/monestd"], ROOT),
        (["go", "build", "-o", prog, "."], os.path.join(ROOT, "perfbench")),
    ]
    for cmd, cwd in steps:
        try:
            res = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            sys.stderr.write("run.py: build failed: %s\n" % e)
            sys.exit(1)
        if res.returncode != 0:
            sys.stderr.write("run.py: %s failed:\n%s\n" % (" ".join(cmd), res.stdout.decode(errors="replace")))
            sys.exit(1)
    return monestd, prog


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    monestd, prog = build(env)
    env["GOMAXPROCS"] = "2"
    work = os.path.join(BUILD, "run-%d" % os.getpid())
    cmd = [prog, "-monestd", monestd, "-work", work,
           "-spans", os.path.join(BUILD, "spans"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Own process group: daemons the program starts join it, so one kill
    # reaches all of them.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        sys.exit(3)

    signal.signal(signal.SIGTERM, kill_group)
    signal.signal(signal.SIGINT, kill_group)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: run exceeded %ds, killed\n" % RUN_TIMEOUT_S)
        kill_group()
    # The program reaps its daemons; sweep the group anyway.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    sys.exit(code)


if __name__ == "__main__":
    main()
