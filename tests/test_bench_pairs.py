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

    def fake_run(tree, workload, seconds, seed):
        order.append((tree.name, seed))
        return _record(5.0 if tree.name == "head" else 7.0)

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    argv = [str(tmp_path / "base"), str(tmp_path / "head"), "--workload", "bushy", "--pairs", "3"]
    assert bench_pairs.main(argv + ["--json", str(tmp_path / "pairs.json")]) == 0
    assert order == [(side, 0) for side in ("base", "head", "head", "base", "base", "head")]
    assert "head better in 3/3" in capsys.readouterr().out
    summary = json.loads((tmp_path / "pairs.json").read_text())
    assert summary["workload"] == "bushy" and summary["pairs"] == 3 and summary["seed"] == 0
    wall = summary["metrics"][0]
    assert wall["metric"] == "wall_s" and wall["head_wins"] == 3
    assert wall["base_q1_median_q3"] == [7.0, 7.0, 7.0]


def test_seed_reaches_both_sides_runs_and_the_summary(tmp_path, monkeypatch):
    for side in ("base", "head"):
        (tmp_path / side).mkdir()
    (tmp_path / "head" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    seeds = []

    def fake_run(tree, workload, seconds, seed):
        seeds.append((tree.name, seed))
        return _record(7.0)

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    argv = [str(tmp_path / "base"), str(tmp_path / "head"), "--workload", "swarm", "--pairs", "2"]
    assert bench_pairs.main(argv + ["--seed", "7", "--json", str(tmp_path / "pairs.json")]) == 0
    assert sorted(seeds) == [("base", 7), ("base", 7), ("head", 7), ("head", 7)]
    assert json.loads((tmp_path / "pairs.json").read_text())["seed"] == 7


def test_run_bench_passes_the_seed_to_bench_run(tmp_path, monkeypatch):
    calls = []

    class Done:
        returncode = 0
        stdout = json.dumps(_record(1.0)) + "\n"
        stderr = ""

    def fake_subprocess_run(cmd, **kwargs):
        calls.append((cmd, kwargs["cwd"]))
        return Done()

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    assert bench_pairs.run_bench(tmp_path, "bushy", 30.0, 11)["correct"]
    (cmd, cwd), = calls
    assert cwd == tmp_path and cmd[1] == "bench/run.py"
    assert cmd[cmd.index("--seed") + 1] == "11" and cmd[cmd.index("--seconds") + 1] == "30.0"
