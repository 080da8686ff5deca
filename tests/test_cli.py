"""Exit-code contract of ``wbp.cli.main`` over every pipeline and model kind."""

import json

import numpy as np
import pytest

from wbp import harness
from wbp.cli import _COMMANDS, main
from wbp.harness import _jsonable, run_replicates
from wbp.martingale import LpErrorReport, mean_agrees

MODELS = {
    "cascade-split": {"kind": "cascade", "spec": "uniform_split"},
    "cascade-split-indep": {"kind": "cascade", "spec": "uniform_split_indep"},
    "cascade-scaled": {"kind": "cascade", "spec": "scaled_uniform", "c": 2.0},
    "cascade-deterministic": {"kind": "cascade", "spec": "deterministic", "factors": [0.5, 0.5]},
    "cascade-mixture": {
        "kind": "cascade",
        "spec": "mixture",
        "atoms": [[0.6, 0.6], [0.8, 0.0]],
        "probs": [0.5, 0.5],
    },
    "two_type_flip": {"kind": "two_type_flip"},
    "markov_chain": {"kind": "markov_chain", "transition": [[0.5, 0.5], [0.2, 0.8]]},
    "lineage_chain": {
        "kind": "lineage_chain",
        "transition": [[0.5, 0.5], [0.2, 0.8]],
        "f": [1.0, 0.0],
    },
    "ifs": {"kind": "ifs", "maps": [[0.5, 0.0], [0.5, 0.5]], "h": 2.0**-5},
    "kernel_product": {
        "kind": "kernel_product",
        "atoms": [
            [[[0.5, 0.2], [0.1, 0.4]]],
            [[[0.3, 0.1], [0.2, 0.5]], [[0.6, 0.1], [0.3, 0.2]]],
        ],
        "probs": [0.5, 0.5],
    },
}


def _config(tmp_path, model, **extra):
    cfg = {
        "model": model,
        "replicates": 100,
        "horizons": {"n_max": 6},
        "dispersion_budget": 50,
        "mc_budget": 50,
        "mn_grid": {"m": [1, 2], "n": [2, 3]},
        **extra,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(pipeline, config, out, threads=1):
    return main([pipeline, "--config", config, "--threads", str(threads), "--out", str(out)])


def _result(out):
    with open(out / "result.json") as fh:
        payload = json.load(fh)
    assert payload["schema_version"] == 1
    return payload


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("pipeline", _COMMANDS)
def test_pipeline_ends_with_documented_exit_and_worker_invariant_output(
    tmp_path, capsys, pipeline, model
):
    config = _config(tmp_path, MODELS[model])
    one, two = tmp_path / "threads1", tmp_path / "threads2"
    code = _run(pipeline, config, one)
    assert code in (0, 2, 3, 4)
    if code == 2:
        # a refusal names its reason and writes nothing
        assert capsys.readouterr().err.strip()
        assert not one.exists()
        return
    first = _result(one)
    assert _run(pipeline, config, two, threads=2) == code
    second = _result(two)
    assert first["config"].pop("threads") == 1 and second["config"].pop("threads") == 2
    assert first == second
    series = sorted(p.name for p in one.iterdir() if p.name != "result.json")
    assert series == sorted(p.name for p in two.iterdir() if p.name != "result.json")
    for name in series:
        assert (one / name).read_bytes() == (two / name).read_bytes()


def test_periodic_kernel_is_refused_with_exit_2(tmp_path, capsys):
    config = _config(tmp_path, MODELS["two_type_flip"])
    assert _run("spectral", config, tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("no spectral data: ")


def test_unit_weight_chain_certificate_is_refused_with_exit_2(tmp_path, capsys):
    config = _config(tmp_path, MODELS["markov_chain"])
    assert _run("verify-theorem1", config, tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("no certificate: ")


def _with(model, **fields):
    return {**MODELS[model], **fields}


@pytest.mark.parametrize(
    "pipeline,model,extra",
    [
        ("simulate", {"kind": "markov_chain"}, {}),
        ("simulate", {"kind": "markov_chain", "transition": [[0.5, 0.4], [0.2, 0.8]]}, {}),
        ("cascade", {"kind": "cascade", "spec": "mixture", "atoms": [[0.5]], "probs": [0.5]}, {}),
        ("simulate", {"kind": "ifs", "maps": [[1.5, 0.0]]}, {}),
        ("simulate", _with("ifs", map_probs=[0.5, 0.49999999]), {}),
        ("spectral", MODELS["markov_chain"], {"beta_window": [1, 3]}),
        # an observable, start type or budget that does not fit the model
        ("spectral", MODELS["markov_chain"], {"f": [1, 2, 3]}),
        ("certify", MODELS["markov_chain"], {"f": [1, 2, 3]}),
        ("kernel-products", {"kind": "kernel_product", "atoms": [[[[0.5]]]], "probs": [1.0], "x_index": 3}, {}),
        ("kernel-products", _with("kernel_product", f=[1.0, 2.0, 3.0]), {}),
        ("lineage", _with("lineage_chain", f=[1.0]), {}),
        ("simulate", _with("markov_chain", x0=5), {}),
        ("simulate", _with("two_type_flip", x0=2), {}),
        ("lineage", _with("lineage_chain", x0=5), {}),
        # a start type that is not an index, a start point off [0, 1]
        ("simulate", _with("markov_chain", x0=1.5), {}),
        ("simulate", _with("two_type_flip", x0=0.5), {}),
        ("lineage", _with("lineage_chain", x0=1.5), {}),
        ("simulate", _with("markov_chain", x0=float("nan")), {}),
        ("simulate", _with("markov_chain", x0="1"), {}),
        ("simulate", _with("ifs", x0=5.0), {}),
        ("simulate", _with("ifs", x0=-1.0), {}),
        ("simulate", _with("ifs", x0=float("nan")), {}),
        ("simulate", _with("ifs", x0=float("inf")), {}),
        ("simulate", _with("ifs", x0="0.5"), {}),
        ("verify-theorem1", MODELS["cascade-split"], {"mn_grid": {"m": [0, 1], "n": [2, 3]}}),
        ("verify-theorem1", MODELS["cascade-split"], {"mn_grid": {"m": [1, 2], "n": [0, 3]}}),
        ("verify-theorem1", MODELS["cascade-split"], {"mn_grid": {"m": [], "n": [2]}}),
        ("verify-theorem1", MODELS["cascade-split"], {"mn_grid": {"n": [2]}}),
        ("verify-theorem1", MODELS["cascade-split"], {"mn_grid": {"m": ["a"], "n": [2]}}),
        ("certify", MODELS["cascade-split-indep"], {"dispersion_budget": 0}),
        ("certify", MODELS["cascade-split-indep"], {"dispersion_budget": 1}),
        ("ifs", MODELS["ifs"], {"dispersion_budget": 1}),
        ("llogl", MODELS["cascade-mixture"], {"mc_budget": 1}),
    ],
)
def test_malformed_input_is_refused_with_exit_2(tmp_path, capsys, monkeypatch, pipeline, model, extra):
    def no_replicates(*args, **kwargs):
        raise AssertionError("a replicate ran before the refusal")

    monkeypatch.setattr(harness, "run_replicates", no_replicates)
    assert _run(pipeline, _config(tmp_path, model, **extra), tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_capped_lp_error_exits_3_with_an_inconclusive_result(tmp_path, capsys):
    config = _config(tmp_path, MODELS["cascade-split"], caps={"particles": 6})
    out = tmp_path / "out"
    assert _run("verify-theorem1", config, out) == 3
    assert "verdict: inconclusive" in capsys.readouterr().out
    results = _result(out)["results"]
    assert results["capped_replicates"] == 100
    assert results["bound_holds_everywhere"] is None


def test_replicate_rows_match_for_any_worker_count_with_capped_replicates():
    # one or two children per parent: the cap catches some replicates and not others;
    # 13 replicates split into uneven chunks for 2 and for 3 workers
    model = {"kind": "cascade", "spec": "mixture", "atoms": [[0.5, 0.5], [1.0]], "probs": [0.5, 0.5]}
    serial = run_replicates(model, "mass_track", 6, 13, seed=3, threads=1, cap=12)
    assert 0 < serial.n_capped < serial.replicates == 13
    assert np.isnan(serial.data).any(axis=1).sum() == serial.n_capped
    for threads in (2, 3):
        pooled = run_replicates(model, "mass_track", 6, 13, seed=3, threads=threads, cap=12)
        assert np.array_equal(pooled.data, serial.data, equal_nan=True)
        assert pooled.n_capped == serial.n_capped
        assert pooled.particle_total == serial.particle_total


def test_ifs_pipeline_writes_its_boolean_verdicts(tmp_path):
    out = tmp_path / "out"
    assert _run("ifs", _config(tmp_path, MODELS["ifs"]), out) == 0
    results = _result(out)["results"]
    assert results["contraction_ok"] is True
    assert results["gamma_bar_ok"] is True


def test_deterministic_kernel_product_holds(tmp_path, capsys):
    # a single atom list: every replicate is identical, so every SE is 0
    model = {"kind": "kernel_product", "atoms": [[[[0.3, 0.7], [0.1, 0.2]]] * 2], "probs": [1.0]}
    out = tmp_path / "out"
    assert _run("kernel-products", _config(tmp_path, model), out) == 0
    assert "verdict: holds" in capsys.readouterr().out
    assert _result(out)["results"]["matches_mean_matrix"] is True


def test_jsonable_turns_numpy_bools_into_json_bools():
    assert json.dumps(_jsonable({"ok": np.bool_(True), "bad": [np.bool_(False)]})) == (
        '{"ok": true, "bad": [false]}'
    )


def test_mean_agreement_allows_rounding_but_not_a_wrong_mean():
    assert mean_agrees(1.1 + 2.2, 0.0, 3.3)  # last-bit difference, SE 0
    assert mean_agrees(1.1, 1.3e-17, 1.1 + 4e-16)  # SE at rounding level
    assert not mean_agrees(1.0, 0.0, 1.001)  # SE 0 no longer passes anything
    assert mean_agrees(1.0, 0.01, 1.039) and not mean_agrees(1.0, 0.01, 1.041)
    assert not mean_agrees(np.nan, 0.0, 1.0)


def test_lp_bound_allows_rounding_on_a_zero_bound():
    report = LpErrorReport(2.0, 1, 2, 6, 5.3e-17, 6.4e-18, 100, rhs_bound=0.0)
    assert report.bound_holds()
    report.lhs_estimate = 1e-10
    assert not report.bound_holds()
