#!/usr/bin/env python3
"""Builds and runs the simulator benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: tab3_inet, cps_churn, tenant_skew, az_drill. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; see perfbench/README.md for the metrics.

The program is built from source with cargo (offline, release profile) into
$CARGO_TARGET_DIR, `.bench_build` by default. Besides the checks the Rust
program makes, this wrapper checks that the model fingerprint of a
(workload, seed) pair is the same on every run of the same source tree: the
first run records it under the target directory, later runs compare.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
# Each run must end well inside the three minutes a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def arg(argv, flag, default=None):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def source_digest():
    """Digest of every file the benchmark builds from, so fingerprints of
    different source trees are never compared."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", ".bench_build"))
            for name in sorted(filenames):
                if not (name.endswith(".rs") or name in ("Cargo.toml", "Cargo.lock")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def check_fingerprint(target_dir, workload, seed, fingerprint):
    """Returns None when the fingerprint matches (or is the first one seen
    for this source tree), else a description of the mismatch."""
    store = os.path.join(target_dir, "perfbench-fingerprints", source_digest())
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{workload}-{seed}")
    if os.path.exists(path):
        with open(path) as f:
            seen = f.read().strip()
        if seen != fingerprint:
            return f"fingerprint {fingerprint} differs from earlier run's {seen}"
        return None
    with open(path, "w") as f:
        f.write(fingerprint + "\n")
    return None


def main():
    argv = sys.argv[1:]
    workload = arg(argv, "--workload")
    seed = arg(argv, "--seed", "1")
    if workload is None:
        fail("--workload is required")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the simulator's sources (crates/) are missing from this checkout")

    target_dir = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed ({build.returncode})")

    binary = os.path.join(target_dir, "release", "perfbench")
    try:
        run = subprocess.run(
            [binary] + argv,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail(f"benchmark exited with {run.returncode}")

    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    result = json.loads(lines[-1])
    fingerprint = next(
        (l.split()[1] for l in lines if l.startswith("fingerprint ") and len(l.split()) == 2),
        None,
    )
    if fingerprint is None:
        fail("benchmark printed no fingerprint")
    mismatch = check_fingerprint(target_dir, workload, seed, fingerprint)
    result["attempted"] += 1
    if mismatch is not None:
        result["failed"] += 1
        result["correct"] = False
        lines.insert(-1, f"# CHECK FAILED: {mismatch}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
