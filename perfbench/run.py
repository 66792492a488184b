#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/bench.exe with
dune (the first run of a fresh checkout compiles the libraries), then
runs the workload in one fresh single-domain process with pinned GC
settings. Prints every metric by name with its unit, then, as the last
line, one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics (peak_rss_mb is read
here, for the measuring process alone); --trace 1 reports the per-layer
metrics and writes the spans and the Obs registry to
perfbench/out/<workload>-seed<N>.json. Exits non-zero, without a
result line, when the program cannot be built or run, and with 1 after
the result line when an output check failed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/bench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
OUT = os.path.join(ROOT, "perfbench", "out")
TIMEOUT_S = 170

# The OCaml 5.1 defaults, pinned so that an ambient OCAMLRUNPARAM cannot
# change minor-heap size or major-GC pacing between runs.
GC_SETTINGS = "s=256k,o=120"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: not a source checkout" % ROOT)
    # No shared dune cache, and the compilers' temporary files stay in
    # the checkout too.
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, TARGET],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed (dune exit %d)" % r.returncode)


def run(args):
    cmd = [EXE, args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(
            OUT, "%s-seed%d.json" % (args.workload, args.seed))]
    env = {k: v for k, v in os.environ.items() if k != "CAMLRUNPARAM"}
    env["OCAMLRUNPARAM"] = GC_SETTINGS
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    timer = threading.Timer(TIMEOUT_S, proc.kill)
    timer.start()
    status = None
    try:
        out = proc.stdout.read()
        # wait4 reports this child's own resource usage, so the peak RSS
        # is the measuring process's alone.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        if status is None:
            # Interrupted (a signal or an error): stop the child and wait
            # for it, so that no process outlives this one.
            proc.kill()
            proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A termination request unwinds through run()'s cleanup.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    code, out, peak_rss_mb = run(args)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines:
        fail("workload %s exited with %d" % (args.workload, code))
    result = json.loads(lines[-1])
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    for name, m in result["metrics"].items():
        print("%-36s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result, separators=(",", ":")))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
