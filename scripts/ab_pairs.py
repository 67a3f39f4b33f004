#!/usr/bin/env python3
"""Interleaved A/B pairs of the benchmark: a base revision against this checkout.

Usage (from anywhere inside a source checkout):

    python3 scripts/ab_pairs.py --base REV --workload W [--seconds S] [--pairs N]
                                [--base-dir DIR] [--log PATH]
    python3 scripts/ab_pairs.py --summarize PATH

Checks REV out into a temporary git worktree outside the checkout, at a path
exactly as long as the checkout's (or, with --base-dir, uses DIR, an existing
checkout of the base, as it is), then runs
`perfbench/run.py --workload W --seconds S` in the base and in this checkout
N times each, alternating which side goes first. Each side builds into its
own checkout. The worktree is removed afterwards, also on failure.

A run whose result line (the last line of run.py's stdout) has "correct"
false or "failed" > 0 is refused: the script stops with exit 1. Otherwise it
prints every pair, then one row per end-to-end metric: base median, change
median, base interquartile range, the change/base ratio of the medians and
the pairs in which the change reads lower ("wins"). Every metric is
lower-is-better. It records nproc and both revisions.

peak_rss_mb can differ by ~0.5 MB between two runs of the same code whose
checkout paths differ in length, which is why the worktree's path is as long
as the checkout's. A --base-dir is used as given: for an RSS comparison,
give one at a path as long as this checkout's.

--log PATH writes the header and every run's result line as JSON lines;
--summarize PATH reads such a log back and prints the same summary without
running anything.
"""

import argparse
import json
import os
import secrets
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
MIN_NAME = 4  # shortest directory name same_length_dir makes


class RefusedRun(Exception):
    """A run that failed, or whose result says it is not correct."""


def check_result(result: dict) -> dict:
    """Refuses a result that is not correct or has failed operations."""
    if result.get("correct") is not True:
        raise RefusedRun("result has correct false")
    if result.get("failed", 1) != 0:
        raise RefusedRun(f"result has failed {result.get('failed')}")
    return result


def parse_result(stdout: str) -> dict:
    """The checked result JSON on the last non-empty line of run.py's stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RefusedRun("no result line")
    try:
        return check_result(json.loads(lines[-1]))
    except json.JSONDecodeError as error:
        raise RefusedRun(f"result line is not JSON: {error}") from None


def metric_values(result: dict) -> dict:
    return {name: float(m["value"]) for name, m in result["metrics"].items()}


def iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def pair_line(number: int, pair: dict) -> str:
    base, change = metric_values(pair["base"]), metric_values(pair["change"])
    cells = "  ".join(f"{n} {base[n]:.6g} -> {change[n]:.6g}" for n in base)
    return f"pair {number:2d} ({pair['first']} first): {cells}"


def summarize(header: dict, pairs: list) -> str:
    """The report for `pairs`, a list of {"base": result, "change": result,
    "first": side} records in run order."""
    out = [f"nproc {header['nproc']}",
           f"base   {header['base_rev']}",
           f"change {header['change_rev']}",
           f"workload {header['workload']} seconds {header['seconds']} pairs {len(pairs)}"]
    if not pairs:
        return "\n".join(out + ["no pairs"]) + "\n"
    names = list(pairs[0]["base"]["metrics"])
    out += (pair_line(i, pair) for i, pair in enumerate(pairs, 1))
    out.append(f"{'metric':<14}{'base_median':>14}{'change_median':>15}"
               f"{'base_iqr':>12}{'ratio':>9}{'wins':>8}")
    for name in names:
        base = [metric_values(p["base"])[name] for p in pairs]
        change = [metric_values(p["change"])[name] for p in pairs]
        base_median = statistics.median(base)
        change_median = statistics.median(change)
        ratio = change_median / base_median if base_median else float("nan")
        wins = sum(c < b for b, c in zip(base, change))
        out.append(f"{name:<14}{base_median:>14.6g}{change_median:>15.6g}"
                   f"{iqr(base):>12.6g}{ratio:>9.3f}{f'{wins}/{len(pairs)}':>8}")
    return "\n".join(out) + "\n"


def read_log(path: Path):
    """The header and pairs of a --log file; refuses any run in it."""
    header, runs = None, []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        record = json.loads(line)
        if "nproc" in record:
            header = record
            continue
        try:
            check_result(record["result"])
        except RefusedRun as error:
            raise RefusedRun(f"{path}:{number}: {record['side']} run: {error}") from None
        runs.append(record)
    if header is None:
        raise RefusedRun(f"{path}: no header line")
    pairs = {}
    for run in runs:
        pair = pairs.setdefault(run["pair"], {"first": run["side"]})
        pair[run["side"]] = run["result"]
    complete = [pairs[k] for k in sorted(pairs) if all(s in pairs[k] for s in SIDES)]
    return header, complete


def same_length_dir(checkout: Path, parents) -> Path:
    """Makes a new, empty directory whose path is exactly as long as
    `checkout`'s, in the first of `parents` with room for a name of at least
    MIN_NAME characters, and returns it."""
    length = len(str(checkout))
    for parent in parents:
        room = length - len(str(parent)) - 1
        if room < MIN_NAME:
            continue
        for _ in range(100):
            path = parent / ("ab" + secrets.token_hex(room))[:room]
            try:
                path.mkdir()
            except FileExistsError:
                continue
            return path
    raise RefusedRun(f"no free directory path as long as {checkout}; use --base-dir")


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True,
                          check=True).stdout.strip()


def change_revision() -> str:
    rev = git("rev-parse", "HEAD")
    return rev + ("+uncommitted" if git("status", "--porcelain", "--untracked-files=no") else "")


def run_side(checkout: Path, workload: str, seconds: float) -> dict:
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each side builds in its own checkout
    proc = subprocess.run([sys.executable, str(checkout / "perfbench" / "run.py"),
                           "--workload", workload, "--seconds", str(seconds)],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RefusedRun(f"run.py in {checkout} exited {proc.returncode}")
    return parse_result(proc.stdout)


def run_pairs(args, base_dir: Path, log):
    header = {"nproc": os.cpu_count(), "base_rev": git("rev-parse", "HEAD", cwd=base_dir),
              "change_rev": change_revision(), "workload": args.workload,
              "seconds": args.seconds}
    log.write(json.dumps(header) + "\n")
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            result = run_side(base_dir if side == "base" else ROOT, args.workload,
                              args.seconds)
            pair[side] = result
            log.write(json.dumps({"side": side, "pair": i, "result": result}) + "\n")
            log.flush()
        pairs.append(pair)
        print(pair_line(i + 1, pair), flush=True)
    return header, pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="base revision (any git revision name)")
    parser.add_argument("--workload", choices=("paper_campaign", "ablation_shards", "field_1m"))
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base-dir", type=Path,
                        help="an existing checkout of the base to use instead of a worktree")
    parser.add_argument("--log", type=Path, help="write every run's result line here")
    parser.add_argument("--summarize", type=Path, help="summarize a --log file and exit")
    args = parser.parse_args()

    try:
        if args.summarize:
            header, pairs = read_log(args.summarize)
            sys.stdout.write(summarize(header, pairs))
            return 0
        if not args.workload or not (args.base or args.base_dir):
            parser.error("--workload and --base (or --base-dir) are required")
        if args.pairs < 1 or not args.seconds > 0:
            parser.error("--pairs must be >= 1 and --seconds > 0")
        worktree = None
        if args.base_dir:
            base_dir = args.base_dir.resolve()
        else:
            worktree = same_length_dir(ROOT, (Path(tempfile.gettempdir()), ROOT.parent))
            git("worktree", "add", "--detach", str(worktree), git("rev-parse", args.base))
            base_dir = worktree
        log_path = args.log or Path(os.devnull)
        try:
            with open(log_path, "w") as log:
                header, pairs = run_pairs(args, base_dir, log)
        finally:
            if worktree is not None:
                subprocess.run(["git", "worktree", "remove", "--force", str(worktree)],
                               cwd=ROOT, check=False)
                shutil.rmtree(worktree, ignore_errors=True)
                subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False)
        sys.stdout.write(summarize(header, pairs))
        return 0
    except RefusedRun as error:
        print(f"ab_pairs: refused: {error}", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as error:
        print(f"ab_pairs: {' '.join(error.cmd)} failed: {error.stderr}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
