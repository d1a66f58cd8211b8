#!/usr/bin/env python3
"""Build the real-point benchmark from source and run one workload.

    python3 ledger/run.py --workload cold_sweep --seed 0 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/ledger
(default .bench_build/ledger) as a Release build; build output goes to
stderr, so the last stdout line is the benchmark's JSON result. Scratch
stores and traces live under the build directory and are removed when the
run ends; traced runs leave their spans in <build>/spans/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_sweep", "replay_sweep", "serve_fleet")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def build(build_root):
    """Configure once, then let CMake bring the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "lab", "orchestrator.hpp")):
        sys.exit("ledger: no vepro sources under %s/src; run from a full "
                 "checkout" % ROOT)
    build_dir = os.path.join(build_root, "ledger")
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "3"],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(build_dir, "ledger")


def main():
    args = parse_args()
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    try:
        binary = build(build_root)
    except subprocess.CalledProcessError as err:
        sys.exit("ledger: build failed (%s)" % err)
    command = [binary,
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--ledger", os.path.join(HERE, "ledger.json"),
               "--work", os.path.join(build_root, "work"),
               "--spans", os.path.join(build_root, "spans")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
