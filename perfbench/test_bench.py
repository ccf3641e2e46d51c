#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_bench.py

Run from the repository root.  Asserts that
  - every workload runs, passes its output checks and reports every metric
    that BENCHMARK.json declares, untraced and traced;
  - the traced run's model.digest equals the untraced one (the traced run
    itself fails when they differ) and is identical at shards=1 and
    shards=max(2, cores), for every sharded workload;
  - words_per_trigger counts allocation on every domain: shards=1 and
    shards=max(2, cores) agree within 1%;
  - run.py exits non-zero, printing no result, in a directory that holds
    only BENCHMARK.json and the benchmark's files.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHARDED = ["pull-blackout", "parked-fleet", "nfv-chain"]


def bench(workload, trace, shards=None, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if shards is not None:
        cmd += ["--shards", str(shards)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=600)
    assert out.returncode == 0, (cmd, out.returncode)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, (cmd, result)
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    wide = max(2, os.cpu_count() or 1)
    for w in [x["name"] for x in spec["workloads"]]:
        m = bench(w, 0)
        assert set(m) == e2e, (w, set(m) ^ e2e)
        t = bench(w, 1)
        assert set(t) == layers, (w, set(t) ^ layers)
        assert t["tracing.closure_err"] < 0.05, (w, t["tracing.closure_err"])
        if w in SHARDED:
            digests = {bench(w, 1, shards=k)["model.digest"] for k in (1, wide)}
            assert digests == {t["model.digest"]}, (w, digests)
            words = [bench(w, 0, shards=k)["words_per_trigger"]
                     for k in (1, wide)]
            assert abs(words[0] - words[1]) <= 0.01 * words[0], (w, words)
        print("ok", w)

    # without the library the build fails and no result is printed
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    bare = tempfile.mkdtemp(dir=out_dir)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out"))
        out = subprocess.run(
            spec["command"] + ["--workload", "warm-storm", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=180)
        assert out.returncode != 0, out.returncode
        assert '"correct"' not in out.stdout, out.stdout
    finally:
        shutil.rmtree(bare)
    print("ok bare checkout fails")


if __name__ == "__main__":
    main()
