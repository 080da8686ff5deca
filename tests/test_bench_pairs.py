"""``tools/bench_pairs.py``: run order and the per-metric summary, with stand-in runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "ok_ops", "better": "higher"}]


def _record(wall, ok=1.0, correct=True):
    return {"correct": correct, "metrics": {"wall_s": {"value": wall}, "ok_ops": {"value": ok}}}


def test_summary_counts_wins_in_each_metrics_direction():
    runs = {
        "base": [_record(7.0), _record(8.0), _record(7.5, ok=0.5)],
        "head": [_record(5.0), _record(8.0), _record(5.5)],
    }
    wall, ok = bench_pairs.summarize(METRICS, runs)
    assert wall["base_q1_median_q3"] == (7.25, 7.5, 7.75)
    assert wall["head_q1_median_q3"][1] == 5.5
    assert wall["median_change"] == pytest.approx(-2.0 / 7.5)
    assert wall["base_iqr"] == 0.5
    assert wall["head_wins"] == 2  # a tie is not a win
    assert ok["head_wins"] == 1  # higher is better
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_pairs_alternate_which_side_runs_first(tmp_path, monkeypatch, capsys):
    for side in ("base", "head"):
        (tmp_path / side).mkdir()
    (tmp_path / "head" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    order = []

    def fake_run(tree, workload, seconds):
        order.append(tree.name)
        return _record(5.0 if tree.name == "head" else 7.0)

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    argv = [str(tmp_path / "base"), str(tmp_path / "head"), "--workload", "bushy", "--pairs", "3"]
    assert bench_pairs.main(argv + ["--json", str(tmp_path / "pairs.json")]) == 0
    assert order == ["base", "head", "head", "base", "base", "head"]
    assert "head better in 3/3" in capsys.readouterr().out
    summary = json.loads((tmp_path / "pairs.json").read_text())
    assert summary["workload"] == "bushy" and summary["pairs"] == 3
    wall = summary["metrics"][0]
    assert wall["metric"] == "wall_s" and wall["head_wins"] == 3
    assert wall["base_q1_median_q3"] == [7.0, 7.0, 7.0]
