#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

Everything the build and the run write goes under the build directory
(CARGO_TARGET_DIR when set, else .bench_build): the Go build cache,
the harness binary, scratch surface stores and span files. The last
line of standard output is the harness's JSON result; build output
goes to standard error. A failed build exits non-zero without a
result.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole
    group and wait for it. Returns the exit code, or None on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def main(argv):
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build_dir, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build_dir, "perfbench")
    code = run_group(["go", "build", "-o", binary, "."], BUILD_TIMEOUT_S,
                     cwd=bench_dir, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    code = run_group([binary, "-out", build_dir] + argv, RUN_TIMEOUT_S, env=env)
    if code is None:
        print("perfbench: run timed out", file=sys.stderr)
        return 124
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
