"""``tools/step_cost.py``: one small step-cost table over every built-in law."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "step_cost.py"
spec = importlib.util.spec_from_file_location("step_cost", TOOL)
step_cost = importlib.util.module_from_spec(spec)
spec.loader.exec_module(step_cost)


def test_models_cover_every_model_kind_and_cascade_spec():
    kinds = {m["kind"] for m in step_cost.MODELS.values()}
    specs = {m["spec"] for m in step_cost.MODELS.values() if m["kind"] == "cascade"}
    assert kinds == {"cascade", "two_type_flip", "markov_chain", "lineage_chain", "ifs", "kernel_product"}
    assert specs == {"uniform_split", "uniform_split_indep", "scaled_uniform", "deterministic", "mixture"}


def test_small_table_is_written_with_the_pair_summaries(tmp_path, capsys):
    pairs = tmp_path / "swarm.json"
    row = {
        "metric": "wall_s",
        "better": "lower",
        "base_q1_median_q3": [4.0, 4.1, 4.2],
        "head_q1_median_q3": [2.9, 3.0, 3.1],
        "median_change": -0.27,
        "base_iqr": 0.2,
        "head_wins": 10,
        "pairs": 10,
    }
    pairs.write_text(json.dumps({"workload": "swarm", "pairs": 10, "seconds": 6.0, "metrics": [row]}))
    out = tmp_path / "bench.json"
    argv = ["--sizes", "1", "7", "--repeats", "1", "--out", str(out), "--pairs", str(pairs), "--blocks", "3"]
    assert step_cost.main(argv) == 0
    printed = capsys.readouterr().out
    payload = json.loads(out.read_text())
    laws = payload["step_cost"]["laws"]
    assert set(laws) == set(step_cost.MODELS)
    for name, sizes in laws.items():
        assert name in printed
        assert set(sizes) == {"1", "7"}
        one, seven = sizes["1"], sizes["7"]
        assert one["slots"] >= 1 and seven["slots"] == 7 * one["slots"]
        assert one["us_per_call"] > 0 and seven["ns_per_slot"] > 0
        # the peak counts the parents: a weight and a type of at least 8 bytes each
        assert seven["peak_bytes_per_slot"] * seven["slots"] >= 7 * 16
    # two children per parent for the split cascade, brood padding counted as slots
    assert laws["cascade.uniform_split"]["7"]["slots"] == 14
    assert laws["kernel_product"]["1"]["slots"] == 2
    # the sweep sets the IFS block size for its own rows only
    assert payload["step_cost"]["block"] == step_cost.wbp.ifs._BLOCK
    assert set(payload["step_cost"]["ifs_block_sweep"]["3"]) == {"1", "7"}
    assert "ifs (block 3)" in printed
    swarm = payload["pairs"]["swarm"]
    assert swarm["seconds"] == 6.0 and swarm["workload"] == "swarm" and swarm["seed"] == 0
    assert swarm["metrics"]["wall_s"]["head_wins"] == 10
    assert payload["step_cost"]["machine"]["cpus"] >= 1
