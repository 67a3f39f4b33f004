#!/usr/bin/env python3
"""Build and run the tempriv benchmark.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload paper_campaign|ablation_shards|field_1m|all
                             [--seed N] [--seconds S] [--trace 0|1]

Configures perfbench/CMakeLists.txt (an optimized, telemetry-off,
sanitizer-off build of the repository's libraries plus perfbench_driver) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
builds it, and runs perfbench_driver. Build output goes to stderr; perfbench_driver's
stdout is passed through, and its last line is the result JSON. Without
--seed each workload uses its default seed (the paper seed for
paper_campaign, 1 for the others). See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_campaign", "ablation_shards", "field_1m")


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    target = target.resolve()
    if target != ROOT and ROOT not in target.parents:
        target = ROOT / ".bench_build"  # never write outside the checkout
    return target / "perfbench"


def source_digest() -> str:
    """Hash of the sources perfbench_driver is built from: the revision when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += (p for p in (ROOT / top).rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def revision() -> str:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        git = "no-git"
    return f"{git} src-sha256:{source_digest()}"


def build(out: Path) -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    if not any((out / name).exists() for name in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DTEMPRIV_TELEMETRY=OFF",
                     "-DTEMPRIV_SANITIZE="]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench_driver", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "perfbench_driver"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")

    out = build_dir()
    try:
        driver = build(out)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [str(driver), "--workload", args.workload, "--seconds", str(args.seconds),
               "--trace", args.trace, "--golden-dir", str(ROOT / "tests" / "golden"),
               "--revision", revision()]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.trace == "1":
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(traces)]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
