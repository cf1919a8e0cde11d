#!/usr/bin/env python3
"""A/B driver for the repository benchmark declared by BENCHMARK.json.

    python3 scripts/ab.py PARENT [CHANGE] --out BENCH_PR<n>.json

Without CHANGE, the change side is a snapshot of the working tree
(untracked, non-ignored files included) taken before anything is built.
Nothing else can be set. The workloads, the command, `run_seconds` and
each end-to-end metric's unit, direction and bound come from the change
side's BENCHMARK.json; there are always PAIRS pairs; the seeds derive
from the two git tree ids.

Each side is extracted with `git archive` under `target/ab/<tree-id>/`
and built there with its own CARGO_TARGET_DIR before the first timed
run. In pair i each workload runs both sides back to back, the parent
first when i is even. A run is the BENCHMARK.json command, verbatim, in
that side's copy, with `--workload W --seed S --seconds <run_seconds>
--trace 0` appended.

Every (workload, end-to-end metric) cell records both sides' raw values,
median and quartiles, wins/N and the verdicts of `cell()`. The parent's
IQR is the noise band: the spread the acceptance rule compares against.
The driver exits 1 if a run exits non-zero or reports `correct: false`,
if the change fails a larger share of operations than the parent, or if
a cell is a regression.
"""
import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

PAIRS = 10
SIDES = ("parent", "change")


# ---------------------------------------------------------------------
# Summary statistics and the acceptance rule
# ---------------------------------------------------------------------


def quantile(values, q):
    """Linear interpolation between closest ranks, as perfbench's
    `report::quantile` computes it; 0 for no values."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def summary(values):
    q1, q3 = quantile(values, 0.25), quantile(values, 0.75)
    return {
        "values": values,
        "median": quantile(values, 0.5),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
    }


def cell(metric, parent, change):
    """The verdicts for one metric, where `parent[i]` and `change[i]` ran
    in pair i; a pair where either run gave no value is left out.

    * gain: at least 9 in 10 pairs won (a tie counts for neither side),
      and the medians differ in the `better` direction by more than the
      parent's IQR;
    * regression: the change median is worse than the parent median by
      more than `bound` x the parent median;
    * unresolved: the parent's IQR exceeds `bound` x the parent median,
      unless every change run beats every parent run;
    * within_noise: |change median - parent median| <= the parent's IQR.
    """
    pairs = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    # `sign * (x - y) > 0` reads "x is better than y".
    sign = 1 if metric["better"] == "higher" else -1
    bound = metric["bound"]
    a, b = summary(parent), summary(change)
    noise = a["iqr"]
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    delta = b["median"] - a["median"]
    separated = bool(pairs) and all(sign * (c - p) > 0 for c in change for p in parent)
    return {
        "metric": metric["name"],
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": bound,
        "parent": a,
        "change": b,
        "ratio": b["median"] / a["median"] if a["median"] else None,
        "wins": wins,
        "losses": losses,
        "n": len(pairs),
        "noise_band": noise,
        "gain": bool(pairs) and 10 * wins >= 9 * len(pairs) and sign * delta > noise,
        "regression": -sign * delta > bound * a["median"],
        "unresolved": noise > bound * a["median"] and not separated,
        "within_noise": abs(delta) <= noise,
    }


def seeds(parent_tree, change_tree):
    """One seed per pair, shared by both sides and every workload."""
    out = []
    for i in range(PAIRS):
        digest = hashlib.sha256(f"{parent_tree}:{change_tree}:{i}".encode()).digest()
        out.append(int.from_bytes(digest[:4], "big"))
    return out


def order(pair):
    """Which side runs first in a pair alternates."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def failed_share(side):
    return side["failed"] / side["attempted"] if side["attempted"] else 0.0


def problems(record):
    """Why the driver exits 1; empty when it exits 0."""
    out = []
    for name in SIDES:
        for run in record["sides"][name]["runs"]:
            if run["exit"] != 0 or run["correct"] is not True:
                out.append(
                    f"{name} {run['workload']} seed {run['seed']}: "
                    f"exit {run['exit']}, correct {run['correct']}"
                )
    parent, change = (record["sides"][n] for n in SIDES)
    if failed_share(change) > failed_share(parent):
        out.append(
            f"change fails {change['failed']}/{change['attempted']} operations, "
            f"parent {parent['failed']}/{parent['attempted']}"
        )
    for c in record["cells"]:
        if c["regression"]:
            out.append(
                f"regression: {c['workload']} {c['metric']} "
                f"{c['parent']['median']:.4g} -> {c['change']['median']:.4g} {c['unit']} "
                f"(bound {c['bound']:.0%})"
            )
    return out


def table(record):
    rows = [("workload", "metric", "parent [IQR]", "change [IQR]", "ratio", "wins", "verdict")]
    for c in record["cells"]:
        flags = [f for f in ("regression", "gain", "unresolved") if c[f]]
        flags.append("within noise" if c["within_noise"] else "outside noise")
        ratio = f"{c['ratio']:.3f}" if c["ratio"] is not None else "-"
        rows.append(
            (
                c["workload"],
                c["metric"],
                f"{c['parent']['median']:.4g} [{c['parent']['iqr']:.3g}]",
                f"{c['change']['median']:.4g} [{c['change']['iqr']:.3g}]",
                ratio,
                f"{c['wins']}/{c['n']}",
                ", ".join(flags),
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(f.ljust(w) for f, w in zip(r, widths)).rstrip() for r in rows)


def dump(record):
    """Indented JSON with every flat list or object (raw values, seeds,
    the command, one run) on one line."""

    def flat(m):
        try:
            return json.dumps(json.loads(m.group(0)))
        except json.JSONDecodeError:
            return m.group(0)

    flat_items = r"\[[^\[\]{}]*\]|\{[^\[\]{}]*\}"
    return re.sub(flat_items, flat, json.dumps(record, indent=1)) + "\n"


# ---------------------------------------------------------------------
# Checkouts, builds and runs
# ---------------------------------------------------------------------


def git(*args, env=None):
    out = subprocess.run(["git", *args], check=True, capture_output=True, text=True, env=env)
    return out.stdout.strip()


def tree_of(rev):
    return git("rev-parse", "--verify", f"{rev}^{{tree}}")


def snapshot_worktree():
    """The working tree as a git tree, untracked non-ignored files
    included. It goes through a copy of the live index, so the real one
    is untouched and tracked files that match .gitignore stay in."""
    with tempfile.TemporaryDirectory() as tmp:
        index = os.path.join(tmp, "index")
        live = git("rev-parse", "--git-path", "index")
        if os.path.exists(live):
            shutil.copyfile(live, index)
        env = dict(os.environ, GIT_INDEX_FILE=index)
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def extract(tree):
    """`target/ab/<tree>/`, extracted once: the tree id names its
    content, so an existing copy is reused, with its build."""
    root = os.path.abspath(os.path.join("target", "ab", tree))
    if not os.path.isdir(root):
        partial = root + ".partial"
        shutil.rmtree(partial, ignore_errors=True)
        os.makedirs(partial)
        archive = subprocess.run(["git", "archive", tree], check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", partial], input=archive, check=True)
        os.rename(partial, root)
    return root


def build_command(command):
    """`cargo run <flags> -- <args>` becomes `cargo build <flags>`."""
    head = command[: command.index("--")]
    head[head.index("run")] = "build"
    return head


def parse_output(stdout):
    """The `# topology` object and the final JSON line of one run; None
    for either that is missing."""
    lines = stdout.splitlines()
    tag = "# topology "
    topology = next((json.loads(x[len(tag):]) for x in lines if x.startswith(tag)), None)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return topology, result if isinstance(result, dict) else None


def run_once(side, command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    # A run that hangs counts as a failed run instead of stalling the rest.
    try:
        proc = subprocess.run(
            argv, cwd=side["root"], env=side["env"], capture_output=True, text=True,
            timeout=10 * seconds + 600,
        )
        code, stdout = proc.returncode, proc.stdout
        if code != 0:
            sys.stderr.write(proc.stderr[-2000:])
    except subprocess.TimeoutExpired:
        code, stdout = "timeout", ""
    topology, result = parse_output(stdout)
    result = result or {}
    return {
        "workload": workload,
        "seed": seed,
        "exit": code,
        "correct": result.get("correct"),
        "attempted": result.get("attempted", 0),
        "failed": result.get("failed", 0),
        "metrics": {k: m["value"] for k, m in result.get("metrics", {}).items()},
        "topology": topology,
    }


def main():
    ap = argparse.ArgumentParser(
        description="A/B-compare two revisions on the BENCHMARK.json benchmark."
    )
    ap.add_argument("parent", help="parent revision")
    ap.add_argument("change", nargs="?", help="change revision (default: the working tree)")
    ap.add_argument("--out", required=True, help="output file, BENCH_PR<n>.json")
    args = ap.parse_args()
    os.chdir(git("rev-parse", "--show-toplevel"))
    out_path = os.path.abspath(args.out)

    trees = {
        "parent": tree_of(args.parent),
        "change": tree_of(args.change) if args.change else snapshot_worktree(),
    }
    revs = {
        "parent": args.parent,
        "change": args.change or f"working tree on {git('rev-parse', '--short', 'HEAD')}",
    }
    seed_list = seeds(trees["parent"], trees["change"])
    sides = {}
    for name in SIDES:
        root = extract(trees[name])
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, "target"))
        sides[name] = {"root": root, "env": env}
    with open(os.path.join(sides["change"]["root"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    command, seconds = bench["command"], bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    for name in SIDES:
        print(f"ab: building {name} ({revs[name]}, tree {trees[name][:12]})", flush=True)
        build = build_command(command)
        subprocess.run(build, cwd=sides[name]["root"], env=sides[name]["env"], check=True)

    runs = {name: [] for name in SIDES}
    for i, seed in enumerate(seed_list):
        for w in workloads:
            for name in order(i):
                run = run_once(sides[name], command, w, seed, seconds)
                runs[name].append(dict(run, pair=i))
                print(
                    f"ab: pair {i + 1}/{PAIRS} {w} {name}: exit {run['exit']}, "
                    f"correct {run['correct']}",
                    flush=True,
                )

    record = {
        "benchmark": {
            "command": command,
            "run_seconds": seconds,
            "pairs": PAIRS,
            "workloads": workloads,
        },
        "sides": {},
        "cells": [],
    }
    for name in SIDES:
        topology = next((r["topology"] for r in runs[name] if r["topology"]), None) or {}
        record["sides"][name] = {
            "rev": revs[name],
            "tree": trees[name],
            "seeds": seed_list,
            "cores": topology.get("cores"),
            "pinned": topology.get("pinned"),
            "cpu": topology.get("cpu"),
            "source_digest": topology.get("source_digest"),
            "attempted": sum(r["attempted"] for r in runs[name]),
            "failed": sum(r["failed"] for r in runs[name]),
            "runs": [
                {k: r[k] for k in ("pair", "workload", "seed", "exit", "correct")}
                for r in runs[name]
            ],
        }
    for w in workloads:
        for metric in bench["end_to_end"]:
            # Runs are in pair order, so value i of each side ran in pair i.
            parent, change = (
                [r["metrics"].get(metric["name"]) for r in runs[name] if r["workload"] == w]
                for name in SIDES
            )
            if any(v is not None for v in parent + change):
                record["cells"].append(dict(workload=w, **cell(metric, parent, change)))
    reasons = problems(record)
    record["exit"] = 1 if reasons else 0
    record["problems"] = reasons

    with open(out_path, "w") as f:
        f.write(dump(record))
    print(table(record))
    for r in reasons:
        print(f"ab: FAIL: {r}", file=sys.stderr)
    print(f"ab: wrote {out_path}")
    return record["exit"]


if __name__ == "__main__":
    sys.exit(main())
