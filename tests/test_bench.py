"""``tools/bench.py --compare``: the verdict on two hand-written BENCH files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_file(path: Path, runs) -> Path:
    """A BENCH file of ``(workload, seed, setup_s, wall_s, peak_rss_mb)`` runs."""
    records = [{"workload": workload, "seed": seed, "seconds": 30, "trace": 0, "exit": 0,
                "result": {"correct": True, "metrics": {
                    "setup_s": {"value": setup, "unit": "s"}, "wall_s": {"value": wall, "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MiB"}}}}
               for workload, seed, setup, wall, rss in runs]
    path.write_text(json.dumps({"label": path.stem, "runs": records}))
    return path


def test_compare_prints_a_verdict_per_workload_and_metric(bench, tmp_path, capsys):
    # bounds, as fractions of A's median: setup_s and wall_s 0.25,
    # peak_rss_mb 0.1
    a, b = [], []
    for seed in range(10):
        # stepsem: wall_s 1.0-1.9 s against 0.5 s (gain); setup_s 0.2 s
        # against 0.6 s (regression); peak_rss_mb 40-49 MiB, quartiles
        # 41.75 and 47.25, wider than the bound's 4.45, against runs in the
        # same range (unresolved)
        a.append(("stepsem", seed, 0.2, 1.0 + seed / 10, 40.0 + seed))
        b.append(("stepsem", seed, 0.6, 0.5, 49.0 - seed))
        # sweep: B 0.01 s and 0.01 MiB above A everywhere, inside the bounds
        # (same)
        a.append(("sweep", seed, 0.3, 2.0, 50.0))
        b.append(("sweep", seed, 0.31, 2.01, 50.01))
    # netscale: in no B file, so not compared
    a.append(("netscale", 1, 0.1, 1.0, 30.0))
    bench.compare(bench_file(tmp_path / "BENCH_a.json", a), bench_file(tmp_path / "BENCH_b.json", b))
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(row[0], row[1], row[-1]) for row in rows] == [
        ("stepsem", "setup_s", "regression"),
        ("stepsem", "wall_s", "gain"),
        ("stepsem", "peak_rss_mb", "unresolved"),
        ("sweep", "setup_s", "same"),
        ("sweep", "wall_s", "same"),
        ("sweep", "peak_rss_mb", "same"),
    ]
    assert [row[-2] for row in rows] == ["0/10", "10/10", "5/10", "0/10", "0/10", "0/10"]


@pytest.mark.parametrize("xs, ys, want", [
    # B wins 9 of 10 pairs and its median is lower by more than A's spread
    ([1.0] * 10, [0.5] * 9 + [1.5], "gain"),
    # 8 wins and 2 ties: short of 9 of 10
    ([1.0] * 10, [0.5] * 8 + [1.0] * 2, "same"),
    # worse by more than a quarter of A's median, or by less
    ([1.0] * 10, [1.5] * 10, "regression"),
    ([1.0] * 10, [1.125] * 10, "same"),
    # A's spread (quartiles 1.4375 and 2.8125) is wider than the bound (a
    # quarter of the median 2.125): B wins every pair, by less than the
    # spread, and reads worse than A's best
    ([1.0 + k / 4 for k in range(10)], [0.875 + k / 4 for k in range(10)], "unresolved"),
    # ... unless every B run reads better than every A run
    ([1.0 + k / 4 for k in range(10)], [0.875] * 10, "same"),
])
def test_verdict_rules(bench, xs, ys, want):
    assert bench.verdict(xs, ys, 0.25, "lower") == want


def test_verdict_reads_the_better_direction(bench):
    xs, ys = [10.0] * 10, [20.0] * 10
    assert bench.verdict(xs, ys, 0.25, "higher") == "gain"
    assert bench.verdict(xs, ys, 0.25, "lower") == "regression"
