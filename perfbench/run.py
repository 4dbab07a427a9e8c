#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark workload.

    python3 perfbench/run.py --workload lu-access --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The build goes to _build/ (dune); the
workload then runs in a fresh process of its own, so its peak heap is its
alone, with glibc's malloc thresholds pinned (see MALLOC).  The last line
of standard output is the result object printed by perfbench.exe; the line
before it stamps the run with the workload, seed, core count, OCaml
version, commit and the calibration loop's mean time.  A traced run
(--trace 1) also writes its spans as Chrome trace-event JSON to
perfbench/out/.

Exit status: 0 when every repetition verified and passed the identity gate,
non-zero when one did not, when the build failed, or on timeout.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
OUT = os.path.join(ROOT, "perfbench", "out")

# the benchmark must end within 180 s of wall clock, build excluded
RUN_TIMEOUT_S = 170

# glibc moves its mmap threshold as large blocks are freed, and with it the
# threshold for returning the heap's top to the kernel.  Whether a rebuilt
# DSM reuses freed memory or faults in fresh zeroed pages then follows the
# order of earlier frees: the same mc-racer walk took 0.6 or 1.1 s by that
# alone.  Pin the threshold at 32 MB, the most the dynamic rule reaches, and
# never trim, so that freed memory is always reused.
MALLOC = "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=4294967296"


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    # no shared dune cache: the build writes nothing outside the checkout
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", "-j", "2",
         "--cache", "disabled", "./perfbench/perfbench.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(OUT, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    # a terminated runner takes the workload process down with it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=dict(os.environ, GLIBC_TUNABLES=MALLOC))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
