"""Alternating A/B runs of the benchmark between a parent commit and a change.

    python3 tools/ab_pairs.py --parent <rev> --out BENCH_<n>.json \
        [--pairs 10] [--seed 1] [--workload <name> ...]

Reads the committed files of ``--parent`` and this checkout's tracked and
unignored files as they stand (uncommitted edits included) once, and writes
them into two fresh directories on one file system, ``a`` and ``b``, both
through one routine and always ``a`` first, so that the trees differ in their
files' content alone and the repository gains no worktree entry. For each
workload it then runs ``python3 perfbench/run.py`` for BENCHMARK.json's
``run_seconds`` on the two trees one after the other, for ``--pairs`` pairs,
the parent first in even pairs and the change first in odd ones, so that a
slow drift of the machine favours neither side. Halfway through a workload's
pairs the trees are written again with the sides swapped, so each side runs
from each directory equally often and whatever favours one directory (its
path, where its files landed, being written second) favours neither side.

The output file holds, per workload and per end-to-end metric of
BENCHMARK.json, each side's runs, median and quartiles, the pairs the
change won (ties count for neither side), the change of the median, and
whether the change's median stays within the metric's bound; it also holds
every run's correctness, failed operations and directory, and facts about
the machine. Only the standard library is used.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _files(rev: str | None) -> dict[str, bytes]:
    """The files of commit ``rev`` or, when ``rev`` is None, this checkout's
    tracked and unignored files as they stand (a tracked file deleted in the
    checkout is left out), by name."""
    if rev is None:
        names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
        names = [n for n in names if n and os.path.isfile(os.path.join(ROOT, n))]
    else:
        names = list(filter(None, _git("ls-tree", "-r", "-z", "--name-only", rev).split("\0")))
    files = {}
    for name in names:
        if rev is None:
            with open(os.path.join(ROOT, name), "rb") as fh:
                files[name] = fh.read()
        else:
            files[name] = subprocess.run(["git", "cat-file", "blob", f"{rev}:{name}"],
                                         cwd=ROOT, check=True, capture_output=True).stdout
    return files


def _write(files: dict[str, bytes], dest: str) -> None:
    """Write ``files`` under ``dest``. Both sides go through this one
    routine, so two trees of one commit hold the same names and bytes."""
    for name, data in files.items():
        os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
        with open(os.path.join(dest, name), "wb") as fh:
            fh.write(data)


def _schedule(pairs: int) -> list[tuple[tuple[str, str], dict[str, str]]]:
    """For each pair, the order in which the two sides run and the directory
    each runs from. The first runner alternates, the parent first in even
    pairs; the sides swap directories after the first half of the pairs (its
    larger half when ``pairs`` is odd)."""
    half = (pairs + 1) // 2
    return [(("parent", "change") if i % 2 == 0 else ("change", "parent"),
             {"parent": "a", "change": "b"} if i < half else {"parent": "b", "change": "a"})
            for i in range(pairs)]


def _lay_out(temp: str, files: dict[str, dict[str, bytes]], dirs: dict[str, str]) -> None:
    """Write each side's files afresh into its directory under ``temp``,
    directory ``a`` first whichever side it holds."""
    for side, d in sorted(dirs.items(), key=lambda item: item[1]):
        dest = os.path.join(temp, d)
        shutil.rmtree(dest, ignore_errors=True)
        _write(files[side], dest)


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its summary line, or the failure."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.Popen(argv, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        stdout, stderr = proc.communicate()
    finally:
        if proc.poll() is None:   # interrupted: run.py stops its own child on SIGTERM
            proc.terminate()
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {stderr.strip()[-500:]}"}
    line = json.loads(lines[-1])
    return {"correct": line["correct"], "attempted": line["attempted"],
            "failed": line["failed"],
            "metrics": {k: v["value"] for k, v in line["metrics"].items()}}


def _spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _failed_share(runs: list[dict]) -> float:
    """The share of a side's operations that failed; a run that produced no
    summary counts as one failed operation."""
    failed = sum(r["failed"] if "metrics" in r else 1 for r in runs)
    attempted = sum(r["attempted"] if "metrics" in r else 1 for r in runs)
    return failed / attempted if attempted else 0.0


def _compare(parent: list[dict], change: list[dict], metric: dict) -> dict:
    """One end-to-end metric over the pairs in which both sides ran.

    The gain rule counts wins against every pair run, so a pair in which
    either side failed is never won, and it holds only when no run failed
    and the change fails no larger share of operations than the parent.
    """
    name, lower = metric["name"], metric["better"] == "lower"
    pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in zip(parent, change)
             if "metrics" in p and "metrics" in c]
    if not pairs:
        return {"pairs": len(parent), "compared": 0, "gain": False, "within_bound": False}
    a, b = _spread([p for p, _ in pairs]), _spread([c for _, c in pairs])
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    losses = sum(1 for p, c in pairs if (c > p if lower else c < p))
    worse = (b["median"] - a["median"]) if lower else (a["median"] - b["median"])
    return {
        "unit": metric["unit"], "better": metric["better"], "pairs": len(parent),
        "compared": len(pairs),
        "parent": a, "change": b, "change_wins": wins, "change_losses": losses,
        "median_change": (b["median"] / a["median"] - 1.0) if a["median"] else None,
        "parent_iqr": a["q3"] - a["q1"],
        # the gain rule: nine tenths of the pairs run won, the medians apart
        # by more than the parent's own spread, and no more failures
        "gain": (wins >= 0.9 * len(parent) and -worse > a["q3"] - a["q1"]
                 and len(pairs) == len(parent)
                 and _failed_share(change) <= _failed_share(parent)),
        "within_bound": worse <= metric["bound"] * abs(a["median"]),
    }


def _machine() -> dict:
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                 if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        facts["loadavg"] = os.getloadavg()
    except OSError:
        pass
    return facts


def _library_facts(tree: str, workload: str, seed: int) -> dict:
    """The machine facts perfbench/run.py recorded (library versions among them)."""
    path = os.path.join(tree, ".perfbench", "results", f"{workload}-seed{seed}-trace0.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["machine"]
    except (OSError, ValueError, KeyError):
        return {}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--out", required=True, help="the JSON file to write, e.g. BENCH_<n>.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="a workload to run, repeatable (default: all in BENCHMARK.json)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    known = {w["name"] for w in bench["workloads"]}
    if not set(workloads) <= known:
        ap.error(f"unknown workload; BENCHMARK.json has {sorted(known)}")

    # A termination request unwinds through the finally blocks below, which
    # stop the running benchmark and remove the temporary trees.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    temp = tempfile.mkdtemp(prefix="ab_pairs-")
    try:
        parent_sha = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
        files = {"parent": _files(parent_sha), "change": _files(None)}
        dirty = _git("status", "--porcelain")
        change = _git("rev-parse", "HEAD") + (" with uncommitted edits" if dirty else "")
        report = {"parent": parent_sha, "change": change, "pairs": args.pairs,
                  "seconds": seconds, "seed": args.seed,
                  "command": bench["command"], "machine_before": _machine(),
                  "workloads": {}}
        layout = None
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i, (order, dirs) in enumerate(_schedule(args.pairs)):
                if dirs != layout:
                    _lay_out(temp, files, dirs)
                    layout = dirs
                for side in order:
                    start = time.time()
                    result = _run(os.path.join(temp, dirs[side]), workload, args.seed, seconds)
                    result.update(order=order.index(side), started=start, directory=dirs[side])
                    runs[side].append(result)
                    print(f"{workload} pair {i} {side} in {dirs[side]}: "
                          f"{result.get('metrics', result.get('error'))}", file=sys.stderr)
            report["workloads"][workload] = {
                "metrics": {m["name"]: _compare(runs["parent"], runs["change"], m)
                            for m in bench["end_to_end"]},
                "all_correct": {side: all(r.get("correct") is True for r in rs)
                                for side, rs in runs.items()},
                "failed_operations": {side: sum(r.get("failed", 0) for r in rs)
                                      for side, rs in runs.items()},
                "failed_share": {side: _failed_share(rs) for side, rs in runs.items()},
                "errors": {side: [r["error"] for r in rs if "error" in r]
                           for side, rs in runs.items()},
                "directories": {side: [r["directory"] for r in rs] for side, rs in runs.items()},
            }
            # read before the next layout or the finally block removes the trees
            report.setdefault("library_facts", {})[workload] = _library_facts(
                os.path.join(temp, layout["change"]), workload, args.seed)
        report["machine_after"] = _machine()
    finally:
        shutil.rmtree(temp, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for workload, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            if m["compared"]:
                delta = "" if m["median_change"] is None else f" ({m['median_change']:+.1%})"
                print(f"{workload:14s} {name:12s} parent {m['parent']['median']:.4g} "
                      f"change {m['change']['median']:.4g}{delta} "
                      f"won {m['change_wins']}/{m['pairs']} gain={m['gain']} "
                      f"within_bound={m['within_bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
