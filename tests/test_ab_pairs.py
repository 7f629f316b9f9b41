"""The comparison rules of tools/ab_pairs.py, on synthetic benchmark runs."""
import importlib.util
import os

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
