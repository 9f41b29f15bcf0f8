#!/usr/bin/env python3
"""Build and run the proxykit benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload authz|payments|mixed --seed N \
        --seconds S --trace 0|1

The benchmark is the Go package in this directory (its own module,
which builds the repository's packages from source through a replace
directive). Every build output, ledger, state file and span file goes
under .bench_build/ in the checkout. The last line of standard output is
the run's result as one JSON object; see README.md for the metrics.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
# A run must finish within 180 s; leave room to report the overrun.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        # The go command keeps telemetry counters under the user config
        # directory; point it inside the checkout too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def find_go():
    go = shutil.which("go")
    if go:
        return go
    for cand in ("/usr/local/go/bin/go", "/usr/lib/go/bin/go"):
        if os.access(cand, os.X_OK):
            return cand
    return None


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s: the benchmark builds the repository from "
              "source and needs the whole checkout" % ROOT, file=sys.stderr)
        return 2
    go = find_go()
    if go is None:
        print("perfbench: no go toolchain found", file=sys.stderr)
        return 2
    env = go_env()
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    try:
        build = subprocess.run([go, "build", "-o", BINARY, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    work = os.path.join(BUILD, "perfbench", "work")
    proc = subprocess.Popen([BINARY, "--work-dir", work] + argv, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
