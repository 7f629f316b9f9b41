"""The comparison rules of tools/ab_pairs.py, on synthetic benchmark runs,
and the trees it runs them in."""
import importlib.util
import os
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "ab_pairs", os.path.join(ROOT, "tools", "ab_pairs.py"))
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

SOLVE = {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25}


def _run(solve_s: float, failed: int = 0, attempted: int = 20) -> dict:
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {"solve_s": solve_s}}


def _sides(n: int = 10):
    parent = [_run(0.80 + 0.01 * (i % 3)) for i in range(n)]
    change = [_run(0.60 + 0.01 * (i % 3)) for i in range(n)]
    return parent, change


def test_clear_gain_counts():
    m = ab_pairs._compare(*_sides(), SOLVE)
    assert (m["pairs"], m["compared"], m["change_wins"]) == (10, 10, 10)
    assert m["gain"] and m["within_bound"]


def test_pairs_the_change_crashed_in_count_as_lost():
    parent, change = _sides()
    change[3] = change[7] = {"error": "exit 1: Traceback"}
    m = ab_pairs._compare(parent, change, SOLVE)
    # 8 of the 8 compared pairs won, but only 8 of the 10 run
    assert (m["pairs"], m["compared"], m["change_wins"]) == (10, 8, 8)
    assert not m["gain"]


def test_one_errored_run_voids_the_gain():
    parent, change = _sides()
    change[5] = {"error": "child timed out"}
    m = ab_pairs._compare(parent, change, SOLVE)
    assert m["change_wins"] == 9 and not m["gain"]


def test_more_failed_operations_void_the_gain():
    parent, change = _sides()
    change[0] = _run(0.60, failed=1)
    assert ab_pairs._failed_share(change) > ab_pairs._failed_share(parent)
    m = ab_pairs._compare(parent, change, SOLVE)
    assert m["change_wins"] == 10 and not m["gain"]


def test_no_comparable_pair():
    parent, _ = _sides(2)
    m = ab_pairs._compare(parent, [{"error": "x"}, {"error": "y"}], SOLVE)
    assert m == {"pairs": 2, "compared": 0, "gain": False, "within_bound": False}
    assert ab_pairs._failed_share([{"error": "x"}, _run(1.0, attempted=3)]) == 0.25


def _files(root) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_both_trees_of_one_commit_are_alike(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg" / "mod.py").write_bytes(b"x = 1\n")
    (repo / "data.bin").write_bytes(bytes(range(256)))
    (repo / ".gitignore").write_bytes(b"*.log\n")
    (repo / "run.log").write_bytes(b"left out\n")
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "one"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *argv], cwd=repo, check=True)
    monkeypatch.setattr(ab_pairs, "ROOT", str(repo))
    ab_pairs._write(ab_pairs._files("HEAD"), str(tmp_path / "parent"))
    ab_pairs._write(ab_pairs._files(None), str(tmp_path / "change"))
    committed = {".gitignore": b"*.log\n", "data.bin": bytes(range(256)),
                 os.path.join("pkg", "mod.py"): b"x = 1\n"}
    assert _files(tmp_path / "parent") == _files(tmp_path / "change") == committed
    # an uncommitted edit and a new unignored file reach the change's tree only
    (repo / "pkg" / "mod.py").write_bytes(b"x = 2\n")
    (repo / "new.py").write_bytes(b"y = 1\n")
    ab_pairs._write(ab_pairs._files(None), str(tmp_path / "edited"))
    assert _files(tmp_path / "edited") == {**committed, os.path.join("pkg", "mod.py"): b"x = 2\n",
                                           "new.py": b"y = 1\n"}


def test_schedule_swaps_directories_halfway():
    for pairs in (2, 6, 10):
        schedule = ab_pairs._schedule(pairs)
        assert [order[0] for order, _ in schedule] == ["parent", "change"] * (pairs // 2)
        assert all(set(order) == {"parent", "change"} for order, _ in schedule)
        assert all(dirs["parent"] != dirs["change"] for _, dirs in schedule)
        # each side runs from each directory in half of the pairs, in two blocks
        for side in ("parent", "change"):
            where = [dirs[side] for _, dirs in schedule]
            assert where.count("a") == where.count("b") == pairs // 2
            assert where == sorted(where) or where == sorted(where, reverse=True)
    # an odd count gives the first half the extra pair
    assert [dirs["parent"] for _, dirs in ab_pairs._schedule(5)] == ["a", "a", "a", "b", "b"]
    assert ab_pairs._schedule(1) == [(("parent", "change"), {"parent": "a", "change": "b"})]
