#!/usr/bin/env python3
"""Summary step of scripts/ab_pairs.py, fed canned result lines.

Writes --log files by hand and checks what `ab_pairs.py --summarize` makes
of them: per-pair lines, per-metric medians, base IQR, ratio and wins, the
recorded nproc and revisions, and exit 1 for a log holding a run whose
result has "correct" false or "failed" > 0. Also checks that the result
line is read from the last line of run.py's stdout, and where the base
worktree goes: a new directory whose path is as long as the checkout's.

Usage: ab_pairs_test.py <path to scripts/ab_pairs.py>
"""

import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPT = Path(sys.argv[1])
HEADER = {"nproc": 4, "base_rev": "aaaa", "change_rev": "bbbb+uncommitted",
          "workload": "field_1m", "seconds": 5.0}


def result(wall, rss, correct=True, failed=0):
    return {"correct": correct, "attempted": 15, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def write_log(directory, runs):
    path = Path(directory) / "log.jsonl"
    lines = [json.dumps(HEADER)]
    for pair, (first, base, change) in enumerate(runs):
        order = [("base", base), ("change", change)]
        if first == "change":
            order.reverse()
        lines += [json.dumps({"side": s, "pair": pair, "result": r}) for s, r in order]
    path.write_text("\n".join(lines) + "\n")
    return path


def summarize(path):
    return subprocess.run([sys.executable, str(SCRIPT), "--summarize", str(path)],
                          capture_output=True, text=True)


def expect(condition, message):
    if not condition:
        print("FAIL:", message)
        sys.exit(1)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        # Base wall 4, 5, 6, 4.5 (median 4.75, inclusive quartiles 4.375 and
        # 5.25: IQR 0.875); change 3, 3.5, 6.5, 3.2 (median 3.35): ratio
        # 0.705, lower in 3 of 4 pairs. RSS is equal in every pair: no wins.
        log = write_log(tmp, [("base", result(4.0, 100), result(3.0, 100)),
                              ("change", result(5.0, 100), result(3.5, 100)),
                              ("base", result(6.0, 100), result(6.5, 100)),
                              ("change", result(4.5, 100), result(3.2, 100))])
        proc = summarize(log)
        expect(proc.returncode == 0, f"summary exited {proc.returncode}: {proc.stderr}")
        lines = proc.stdout.splitlines()
        expect(lines[:4] == ["nproc 4", "base   aaaa", "change bbbb+uncommitted",
                             "workload field_1m seconds 5.0 pairs 4"], f"header: {lines[:4]}")
        expect(lines[4] == "pair  1 (base first): wall_s 4 -> 3  peak_rss_mb 100 -> 100",
               f"pair line: {lines[4]!r}")
        expect(lines[5].startswith("pair  2 (change first)"), f"pair order: {lines[5]!r}")
        rows = {line.split()[0]: line.split() for line in lines[9:]}
        expect(rows["wall_s"] == ["wall_s", "4.75", "3.35", "0.875", "0.705", "3/4"],
               f"wall_s row: {rows.get('wall_s')}")
        expect(rows["peak_rss_mb"] == ["peak_rss_mb", "100", "100", "0", "1.000", "0/4"],
               f"peak_rss_mb row: {rows.get('peak_rss_mb')}")

        for bad, why in ((result(4.0, 100, correct=False), "correct false"),
                         (result(4.0, 100, failed=2), "failed 2")):
            log = write_log(tmp, [("base", result(4.0, 100), result(3.0, 100)),
                                  ("change", result(5.0, 100), bad)])
            proc = summarize(log)
            expect(proc.returncode == 1, f"{why}: exited {proc.returncode}")
            expect("refused" in proc.stderr and why in proc.stderr,
                   f"{why}: stderr {proc.stderr!r}")

    spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
    ab_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_pairs)
    stdout = "workload field_1m seed 1\n  wall_s 4 s\n" + json.dumps(result(4.0, 1)) + "\n\n"
    expect(ab_pairs.parse_result(stdout)["metrics"]["wall_s"]["value"] == 4.0,
           "parse_result reads the last line")
    for stdout in ("", "not json\n", json.dumps(result(4.0, 1, failed=1))):
        try:
            ab_pairs.parse_result(stdout)
        except ab_pairs.RefusedRun:
            continue
        expect(False, f"parse_result accepted {stdout!r}")

    # The worktree's path is as long as the checkout's, so perfbench_driver's
    # argv (and peak_rss_mb with it) does not differ between the sides.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp).resolve()
        checkout = tmp / "some" / "checkout"
        first, second = tmp / "a", tmp / "b"
        first.mkdir()
        second.mkdir()
        path = ab_pairs.same_length_dir(checkout, [first, second])
        expect(len(str(path)) == len(str(checkout)), f"length: {path} vs {checkout}")
        expect(path.parent == first and path.is_dir() and not any(path.iterdir()),
               f"not a new empty directory in the first parent: {path}")
        again = ab_pairs.same_length_dir(checkout, [first, second])
        expect(again != path and len(str(again)) == len(str(checkout)),
               f"second directory: {again}")
        # A parent leaving no room for a name is skipped.
        crowded = tmp / ("x" * (len(str(checkout)) - len(str(tmp)) - 2))
        path = ab_pairs.same_length_dir(checkout, [crowded, second])
        expect(path.parent == second and len(str(path)) == len(str(checkout)),
               f"fallback parent: {path}")
        try:
            ab_pairs.same_length_dir(checkout, [crowded])
        except ab_pairs.RefusedRun:
            pass
        else:
            expect(False, "same_length_dir found room in a crowded parent")
    print("ab_pairs summary: ok")


if __name__ == "__main__":
    main()
