#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload afs2-compose --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --sweep

The first call configures and builds an optimized perfbench binary (with
the libraries under src/) in $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only rebuild what changed.  Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
Every other argument is passed to the binary unchanged (see main.cpp).
"""
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    # Configuring again is cheap and repairs a build tree that an earlier,
    # failed configure left behind.
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             env=env)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--self-test" not in args:
        args += ["--work-dir", os.path.join(build_root, "perfbench-work"),
                 "--commit", source_id()]
    args += ["--expected-dir", os.path.join(BENCH_DIR, "expected")]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
