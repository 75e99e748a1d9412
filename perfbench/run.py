#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the Go module in perfbench/ (which uses the repository as its
`flick` dependency) and runs it from the root. Workloads: compile,
marshal, rpc-small, rpc-bulk. The last line of output is the result:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list;
any other set is an error.

Build outputs, Go's caches and the span dumps go to the build directory:
$CARGO_TARGET_DIR when set, else .bench_build, under the root.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, cwd, env, timeout):
    """Run cmd to completion, killing it if it outlives timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out.decode()


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    go = shutil.which("go")
    if go is None and os.environ.get("GOROOT"):
        go = os.path.join(os.environ["GOROOT"], "bin", "go")
    if go is None:
        fail("no go toolchain on PATH")
    # Keep every file the toolchain writes inside the checkout, and
    # never reach for the network or another toolchain.
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOPATH=os.path.join(build, "gopath"),
               GOMODCACHE=os.path.join(build, "gopath", "mod"),
               GOTMPDIR=os.path.join(build, "tmp"),
               XDG_CONFIG_HOME=os.path.join(build, "config"),
               GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off", GOFLAGS="-mod=mod",
               CGO_ENABLED="0")
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    code, out = run([go, "build", "-o", binary, "."], HERE, env, BUILD_TIMEOUT)
    if code != 0:
        sys.stdout.write(out)
        fail("build failed")

    argv = sys.argv[1:]
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--trace", default="0")
    traced = parser.parse_known_args(argv)[0].trace == "1"
    code, out = run([binary, "--root", ROOT, "--out", build] + argv, ROOT, env, RUN_TIMEOUT)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("benchmark exited with code %d" % code)

    # The printed metric set must be exactly the declared one.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    result = json.loads(lines[-1])
    want = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail("metrics differ from BENCHMARK.json: missing %s, undeclared %s, unit mismatch %s" % (missing, extra, units))
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
