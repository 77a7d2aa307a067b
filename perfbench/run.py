#!/usr/bin/env python3
"""Entry point of the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N [--seconds 1..30] [--trace 0|1]

Builds perfbench/bench.exe from source with dune and runs it with these
arguments unchanged; bench.exe checks them and prints its own usage
errors. On success this prints the provenance line, with the commit, a
digest of the sources and the core count added, then the result object
as the last line of standard output. A full record (provenance plus
result) is also written to perfbench/out/<workload>-seed<N>-trace<T>.json,
and a traced run writes its spans to perfbench/out/spans.csv.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# A run at the largest --seconds bench.exe accepts (30) takes about 65 s
# on a 2-core host, churn-2e17 being the longest; a hung run is stopped
# (and waited for) here.
RUN_TIMEOUT_S = 175


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "dune-project")]
    for top in ("lib", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "out")
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no dune project with lib/ at %s: nothing to build" % ROOT)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        fail("dune not found on PATH")
    if build.returncode != 0:
        fail("build failed (dune exit %d)" % build.returncode)

    os.makedirs(OUT, exist_ok=True)
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    cmd = [exe] + sys.argv[1:] + ["--spans", os.path.join(OUT, "spans.csv")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("bench.exe did not finish within %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0:
        sys.exit(run.returncode)

    lines = run.stdout.splitlines()
    provenance = json.loads(lines[-2])["provenance"]
    provenance.update({
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
    })
    record = os.path.join(OUT, "%s-seed%d-trace%s.json" % (
        provenance["workload"], provenance["seed"], provenance["trace"]))
    with open(record, "w") as f:
        json.dump({"provenance": provenance, "result": json.loads(lines[-1])},
                  f, indent=1)
    for line in lines[:-2]:
        print(line)
    print(json.dumps({"provenance": provenance}))
    print(lines[-1])


if __name__ == "__main__":
    main()
