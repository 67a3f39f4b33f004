#!/usr/bin/env python3
"""Corrupt-artifact mutation test for tempriv-merge, through the real binaries.

Writes a small grid campaign as 3 shards, then derives a fixed, seeded set
of mutants of the six shard files (JSONL and .stats.json): byte flips,
truncations and line swaps, one mutation per mutant. The same campaign as
one shard (`--shard 0/1`) gets its own, smaller set of mutants. Each
mutant set goes to both `tempriv-merge --check` and a real merge. Every
run must either

  * exit 0, and a merge must then write bytes identical to the clean
    merge's JSONL, stats JSON and CSV, or
  * exit 1 with a message on stderr.

Nothing else is allowed: no other exit code, no signal, no sanitizer
report. A --check that passes must be followed by a merge that passes.
This holds for every mutant, including a byte flip that leaves a job
record valid JSON (one digit turned into another): each shard's stats
file carries the FNV-1a-64 digest of its job lines (`jsonl_fnv1a`), so
such an edit is rejected, not merged — in a one-shard set too.

Usage: merge_mutation_test.py <tempriv-campaign> <tempriv-merge>
"""

import os
import shutil
import subprocess
import sys
import tempfile

MUTANTS = 240
ONE_SHARD_MUTANTS = 60
SEED = 0x7E3D_2007
GRID = ["grid", "--interarrival", "2,4", "--scheme", "rcad,droptail",
        "--packets", "40", "--reps", "2", "--quiet"]
TAG = "campaign_grid"
OUTPUTS = [TAG + ".jsonl", TAG + ".stats.json", TAG + ".csv"]
SANITIZER_MARKS = ("Sanitizer", "runtime error:")


class SplitMix64:
    """SplitMix64 (as in sim/seed.h): the mutants do not depend on Python's
    own generator."""

    def __init__(self, seed):
        self.state = seed

    def below(self, n):
        self.state = (self.state + 0x9E3779B97F4A7C15) & (2**64 - 1)
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
        return (z ^ (z >> 31)) % n


def mutate(data, rng):
    """One byte flip, truncation or line swap of `data`: returns
    (description, mutated bytes)."""
    kind = ("flip", "truncate", "swap")[rng.below(3)]
    if kind == "flip":
        at = rng.below(len(data))
        out = bytes(data[:at]) + bytes([data[at] ^ (1 + rng.below(255))]) + \
            data[at + 1:]
        return f"flip@{at}", out
    if kind == "truncate":
        at = rng.below(len(data))
        return f"truncate@{at}", data[:at]
    lines = data.split(b"\n")
    i, j = rng.below(len(lines)), rng.below(len(lines) - 1)
    j += j >= i
    lines[i], lines[j] = lines[j], lines[i]
    return f"swap@{i},{j}", b"\n".join(lines)


def read(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def run(cmd, env=None):
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          errors="replace")
    return proc.returncode, proc.stderr


def main():
    campaign, merge = sys.argv[1], sys.argv[2]
    work = tempfile.mkdtemp()
    try:
        return test(campaign, merge, work)
    finally:
        shutil.rmtree(work)


def test(campaign, merge, work):
    failures = mutate_shard_set(campaign, merge, work, 3, MUTANTS, SEED)
    failures += mutate_shard_set(campaign, merge, work, 1, ONE_SHARD_MUTANTS,
                                 SEED + 1)
    for failure in failures:
        print("FAIL:", failure, file=sys.stderr)
    if failures:
        return 1
    print(f"merge mutation test: {MUTANTS} + {ONE_SHARD_MUTANTS} one-shard "
          "mutants x 2 modes, no crash, every accepted merge byte-identical")
    return 0


def mutate_shard_set(campaign, merge, work, count, mutants, seed):
    """Runs the grid as `count` shards and feeds `mutants` corrupted copies
    of the shard set to --check and to a merge; returns the failures."""
    work = os.path.join(work, f"of-{count}")
    shards_dir = os.path.join(work, "shards")
    for i in range(count):
        code, err = run([campaign, *GRID, "--out", shards_dir,
                         "--shard", f"{i}/{count}"])
        if code != 0:
            sys.exit(f"shard {i}/{count} run exited {code}: {err}")
    names = sorted(os.listdir(shards_dir))
    jsonl = [n for n in names if n.endswith(".jsonl")]
    if len(names) != 2 * count or len(jsonl) != count:
        sys.exit(f"expected {count} shard JSONL + {count} stats files, "
                 f"got {names}")

    clean_dir = os.path.join(work, "clean")
    code, err = run([merge, "--out", clean_dir,
                     *[os.path.join(shards_dir, n) for n in jsonl]])
    if code != 0:
        sys.exit(f"clean merge exited {code}: {err}")
    clean = {n: read(os.path.join(clean_dir, n)) for n in OUTPUTS}

    # A sanitizer report must not hide behind exit 1.
    env = dict(os.environ)
    for var in ("ASAN_OPTIONS", "UBSAN_OPTIONS"):
        env[var] = (env.get(var, "") + ":exitcode=99").lstrip(":")

    rng = SplitMix64(seed)
    failures = []
    tally = {}
    for m in range(mutants):
        victim = names[rng.below(len(names))]
        original = read(os.path.join(shards_dir, victim))
        kind, data = mutate(original, rng)
        what = f"{count}-shard mutant {m} ({victim} {kind})"
        mutant_dir = os.path.join(work, "mutant")
        shutil.rmtree(mutant_dir, ignore_errors=True)
        shutil.copytree(shards_dir, mutant_dir)
        with open(os.path.join(mutant_dir, victim), "wb") as f:
            f.write(data)
        paths = [os.path.join(mutant_dir, n) for n in jsonl]
        out_dir = os.path.join(mutant_dir, "out")

        codes = {}
        for mode, cmd in (("check", [merge, "--check", *paths]),
                          ("merge", [merge, "--out", out_dir, *paths])):
            code, err = run(cmd, env)
            codes[mode] = code
            tally[(mode, code)] = tally.get((mode, code), 0) + 1
            if code not in (0, 1) or any(s in err for s in SANITIZER_MARKS):
                failures.append(f"{what} {mode}: exit {code}\n{err[-2000:]}")
            elif code == 1 and not err.strip():
                failures.append(f"{what} {mode}: exit 1 with no message")
            elif code == 0 and mode == "merge":
                differs = [n for n in OUTPUTS
                           if read(os.path.join(out_dir, n)) != clean[n]]
                if differs:
                    failures.append(f"{what}: merged {', '.join(differs)} "
                                    "differ from the clean merge")
        if codes["check"] == 0 and codes["merge"] != 0:
            failures.append(f"{what}: --check passed but the merge exited "
                            f"{codes['merge']}")

    print(f"{count} shard(s), exit codes:",
          ", ".join(f"{mode} {code}: {n}"
                    for (mode, code), n in sorted(tally.items())))
    rejected = sum(n for (_, code), n in tally.items() if code == 1)
    if rejected < mutants:
        failures.append(f"{count} shard(s): only {rejected} of {2 * mutants} "
                        "runs rejected their mutant; the mutations are not "
                        "biting")
    return failures


if __name__ == "__main__":
    sys.exit(main())
