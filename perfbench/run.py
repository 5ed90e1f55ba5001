#!/usr/bin/env python3
"""Build and run the benchmark described by BENCHMARK.json.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/main.exe with
dune (inside the checkout, no shared cache), runs it, and passes its
output through.  For a measured run (--trace 0) it adds the executable's
peak resident memory, `peak_rss_mb` (the largest of main.exe and the
process it forks for each pass), to the JSON object the executable
prints as its last line.  The exit code is the executable's; a failed
build exits 2 without printing a result.

The host times it reports (setup_s, wall_s, pkt_hops_per_s) are scaled
to a fixed host speed, measured by a kernel timed between passes; see
perfbench/host_speed.mli.

Other modes of main.exe pass through unchanged:
    --self-test                      every workload's records move with the seed
    --write-digests                  re-record perfbench/digests.txt (seed 0)
    --shim-check --workload W --pairs N
"""

import json
import os
import subprocess
import sys
import threading
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
TIMEOUT_S = 175


def build():
    if not os.path.isfile("dune-project"):
        print("perfbench: no dune-project here; run from the repository root",
              file=sys.stderr)
        return False
    # Keep every file the build writes inside the checkout.
    tmp = os.path.join(".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.abspath(tmp))
    done = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    return done.returncode == 0


def with_peak_rss(line, usage):
    try:
        result = json.loads(line)
    except ValueError:
        return line
    if "metrics" not in result:
        return line
    # ru_maxrss is in KiB on Linux.
    result["metrics"]["peak_rss_mb"] = {
        "value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    return json.dumps(result)


def kill_group(pgid):
    try:
        os.killpg(pgid, 9)
    except ProcessLookupError:
        pass


def wait_group(pgid, limit_s=10.0):
    """Wait until no process of the group is left, for at most limit_s."""
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main(argv):
    if not build():
        return 2
    # main.exe forks a process for each pass; its own process group lets
    # a timeout stop them all.
    proc = subprocess.Popen([EXE] + argv, stdout=subprocess.PIPE,
                            start_new_session=True)
    timer = threading.Timer(TIMEOUT_S, kill_group, [proc.pid])
    timer.start()
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 rather than proc.wait: it returns the rusage of the child and
    # of the pass processes it waited for.
    _, status, usage = os.wait4(proc.pid, 0)
    timer.cancel()
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    if code < 0:
        print("perfbench: main.exe killed (signal %d)" % -code, file=sys.stderr)
        kill_group(proc.pid)
        wait_group(proc.pid)
        return 1
    lines = out.decode().splitlines()
    trace = argv[argv.index("--trace") + 1:][:1] if "--trace" in argv else []
    maintenance = {"--self-test", "--write-digests", "--shim-check"} & set(argv)
    if trace != ["1"] and not maintenance and lines:
        lines[-1] = with_peak_rss(lines[-1], usage)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
