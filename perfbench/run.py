#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the benchmark and the
`sqlpl` executable with dune (into $CARGO_TARGET_DIR when set, else
_build), then runs the benchmark, whose last line of output is the JSON
result. Exits non-zero without a result when the build or the run fails.
"""

import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    os.chdir(ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        cmd
        + ["build", "--root", ".", "--build-dir", build_dir,
           "./perfbench/perfbench.exe", "./bin/sqlpl.exe"],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=840,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    sqlpl = os.path.join(build_dir, "default", "bin", "sqlpl.exe")
    # The benchmark and the daemon it starts share a process group of their
    # own, so nothing outlives the run even when it is cut short.
    proc = subprocess.Popen(
        [exe, *sys.argv[1:], "--sqlpl", sqlpl], env=env, start_new_session=True
    )
    try:
        code = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 3
    finally:
        stop_group(proc)
    return code


def stop_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    sys.exit(main())
