#!/usr/bin/env python3
"""Build and run the simulator-cost benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/horse_perf.exe with dune
(release profile), then runs it once in a fresh process for the named
workload.  Its last stdout line is the JSON result; with --trace 1 the
traced run's spans are written to perfbench/out/spans-<workload>-<seed>.json.

Workloads (see perfbench/workload.ml for sizes):
  warm-storm     direct single-engine cluster, resume-heavy warm triggers
  pull-blackout  sharded control plane under blackouts, pull policy
  parked-fleet   8 servers, ~32k parked sandboxes (traced: shards = cores)
  nfv-chain      firewall -> NAT -> filter workflow instances

Default seed 1.  Seed 7919 is held out: it was not used while the
benchmark was tuned, so a claimed gain can be re-checked on it.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["warm-storm", "pull-blackout", "parked-fleet", "nfv-chain"]
DEFAULT_SEED = 1
EXE = os.path.join("_build", "default", "perfbench", "horse_perf.exe")
OUT = os.path.join("perfbench", "out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--shards", type=int, default=None,
                    help="override the workload's execution strands")
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./perfbench/horse_perf.exe"],
        stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    # the benchmark sets its own GC parameters; the runtime-events ring
    # (all-domain allocation counts) lives under perfbench/out
    env.pop("OCAMLRUNPARAM", None)
    env.pop("CAMLRUNPARAM", None)
    env["OCAML_RUNTIME_EVENTS_DIR"] = OUT
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.shards is not None:
        cmd += ["--shards", str(args.shards)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            OUT, "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
