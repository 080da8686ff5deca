"""Exit-code contract of ``wbp.cli.main`` over every pipeline and model kind."""

import concurrent.futures
import json
import os
import subprocess
import sys
from concurrent.futures import Future
from functools import partial

import numpy as np
import pytest

from wbp import harness
from wbp.cli import _COMMANDS, main
from wbp.finite_type import MixtureFiniteTypeLaw
from wbp.harness import SCHEMA_VERSION, ExperimentConfig, _jsonable, run_replicates
from wbp.cascades import DeterministicCascade
from wbp.finite_type import two_type_flip_law
from wbp.kernel_products import kernel_product_observable
from wbp.population import Generation, PopulationCapError, advance_generation
from wbp.spectral import TypeGrid
from wbp.streams import derive_stream

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


CASCADES = {name for name in MODELS if name.startswith("cascade-")}

# result fields that once restated a verdict; result.json's "verdicts" records each one
RESTATED_VERDICTS = (
    "matches_mean_matrix",
    "matches_stationary",
    "bound_holds_everywhere",
    "verdict",
    "contraction_ok",
    "series_verdict",
)

# the models each pipeline exits 0 on; it refuses every other model with exit 2
EXITS_0 = {
    "simulate": set(MODELS),
    "spectral": set(MODELS) - {"kernel_product", "two_type_flip"},
    "certify": CASCADES - {"cascade-scaled"} | {"ifs"},
    "verify-theorem1": CASCADES - {"cascade-scaled"},
    "llogl": CASCADES,
    "cascade": CASCADES,
    "kernel-products": {"kernel_product"},
    "ifs": {"ifs"},
    "lineage": {"lineage_chain"},
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


def _bundle(model):
    """The bundle of a model mapping, read as a config's model."""
    return harness.make_model(ExperimentConfig.from_dict({"model": model}).model)


def _run(pipeline, config, out, threads=1, strict=False):
    """Run the CLI; ``threads=None`` leaves the worker count to the config."""
    flags = [] if threads is None else ["--threads", str(threads)]
    flags += ["--strict"] if strict else []
    return main([pipeline, "--config", config, *flags, "--out", str(out)])


def _result(out):
    with open(out / "result.json") as fh:
        payload = json.load(fh)
    assert payload["schema_version"] == SCHEMA_VERSION
    return payload


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("pipeline", _COMMANDS)
def test_pipeline_ends_with_documented_exit_and_worker_invariant_output(
    tmp_path, capsys, pipeline, model
):
    config = _config(tmp_path, MODELS[model])
    one, two = tmp_path / "threads1", tmp_path / "threads2"
    code = _run(pipeline, config, one)
    assert code == (0 if model in EXITS_0[pipeline] else 2)
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


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("pipeline", _COMMANDS)
def test_pipeline_at_the_smallest_sizes_ends_with_a_documented_exit(tmp_path, capsys, pipeline, model):
    # one generation and one replicate: every run ends in an exit code, never a traceback
    config = _config(tmp_path, MODELS[model], replicates=1, horizons={"n_max": 1})
    out = tmp_path / "out"
    code = _run(pipeline, config, out, strict=True)
    assert code in (0, 2, 3, 4)
    assert (out / "result.json").exists() == (code != 2)
    if code != 2:
        # result.json records each printed verdict once, and no result field restates one
        payload = _result(out)
        lines = capsys.readouterr().out.splitlines()
        printed = [line[len("verdict: ") :] for line in lines if line.startswith("verdict: ")]
        assert payload["verdicts"] == printed
        assert not set(payload["results"]) & set(RESTATED_VERDICTS)


@pytest.mark.parametrize("model", ["cascade-mixture", "cascade-scaled", "cascade-split-indep"])
def test_llogl_series_of_one_term_is_inconclusive(tmp_path, capsys, model):
    # one term shows no tail trend; the ratio of its tail once divided by zero
    config = _config(tmp_path, MODELS[model], horizons={"n_max": 1})
    assert _run("llogl", config, tmp_path / "out") == 0
    assert _result(tmp_path / "out")["verdicts"][-1] == "inconclusive"
    assert capsys.readouterr().out.endswith("verdict: inconclusive\n")
    assert _run("llogl", config, tmp_path / "strict", strict=True) == 4


@pytest.mark.parametrize(
    "pipeline,model,sigma",
    [
        ("lineage", "lineage_chain", "final_sigma"),
        ("kernel-products", "kernel_product", "worst_sigma"),
    ],
)
def test_agreement_on_one_replicate_is_inconclusive(tmp_path, capsys, pipeline, model, sigma):
    # one replicate has no standard error, so its mean can neither agree nor disagree
    config = _config(tmp_path, MODELS[model], replicates=1)
    assert _run(pipeline, config, tmp_path / "out", strict=True) == 4
    assert "verdict: inconclusive" in capsys.readouterr().out
    payload = _result(tmp_path / "out")
    assert payload["verdicts"] == ["inconclusive"]
    assert payload["results"][sigma] is None


@pytest.mark.parametrize("seed", range(10))
def test_cascade_of_unit_mass_flags_no_increment(seed):
    # uniform_split's mass is 1 on every path: its increments are rounding alone
    cfg = ExperimentConfig.from_dict(
        {"model": MODELS["cascade-split"], "replicates": 200, "horizons": {"n_max": 10}, "seed": seed}
    )
    assert harness.run_experiment(cfg, "cascade").results["flagged_increments"] == []


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


MALFORMED = [
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
    ("verify-theorem1", MODELS["cascade-split"], {"mn_grid": {"n": [5]}}),  # m defaults to (2,) at proxy 6
    ("verify-theorem1", MODELS["cascade-split"], {"mn_grid": {"m": ["a"], "n": [2]}}),
    ("certify", MODELS["cascade-split-indep"], {"dispersion_budget": 0}),
    ("certify", MODELS["cascade-split-indep"], {"dispersion_budget": 1}),
    ("ifs", MODELS["ifs"], {"dispersion_budget": 1}),
    ("llogl", MODELS["cascade-mixture"], {"mc_budget": 1}),
    # a horizon or particle cap below 1
    ("simulate", MODELS["cascade-split"], {"horizons": {"n_max": -1}}),
    ("kernel-products", MODELS["kernel_product"], {"horizons": {"n_max": -1}}),
    ("ifs", MODELS["ifs"], {"horizons": {"n_max": 0}}),
    ("lineage", MODELS["lineage_chain"], {"horizons": {"n_max": 0}}),
    ("verify-theorem1", MODELS["cascade-split"], {"caps": {"particles": -5}}),
    ("simulate", MODELS["cascade-split"], {"caps": {"particles": 0}}),
    # cascade factors and kernel-product matrices that are not finite and non-negative
    ("cascade", _with("cascade-scaled", c=-1.0), {}),
    ("cascade", _with("cascade-scaled", c=float("nan")), {}),
    ("cascade", _with("cascade-scaled", c=float("inf")), {}),
    ("cascade", _with("cascade-deterministic", factors=[0.5, float("nan")]), {}),
    ("cascade", _with("cascade-deterministic", factors=[float("inf"), 0.5]), {}),
    ("cascade", _with("cascade-mixture", atoms=[[0.6, float("nan")], [0.8, 0.0]]), {}),
    ("cascade", _with("cascade-mixture", atoms=[[0.6, 0.6], [float("inf"), 0.0]]), {}),
    ("simulate", _with("ifs", weights={"spec": "scaled_uniform", "c": float("nan")}), {}),
    ("kernel-products", _with("kernel_product", atoms=[[[[1.0, float("nan")], [0.0, 1.0]]]], probs=[1.0]), {}),
    ("kernel-products", _with("kernel_product", atoms=[[[[1.0, float("inf")], [0.0, 1.0]]]], probs=[1.0]), {}),
    # a worker count below 1
    ("simulate", MODELS["cascade-split"], {"threads": 0}),
    ("cascade", MODELS["cascade-split"], {"threads": -2}),
    ("verify-theorem1", MODELS["cascade-mixture"], {"threads": 0}),
    # pipeline-only keys out of range or of the wrong type
    ("llogl", MODELS["cascade-mixture"], {"rho": 1.0}),
    ("llogl", MODELS["cascade-mixture"], {"rho": 0.5}),
    ("llogl", MODELS["cascade-mixture"], {"rho": "abc"}),
    ("llogl", MODELS["cascade-mixture"], {"rho": float("nan")}),
    ("llogl", MODELS["cascade-mixture"], {"k": -1}),
    ("llogl", MODELS["cascade-mixture"], {"probe": {"epsilon": 0.01, "n": None}}),
    ("llogl", MODELS["cascade-mixture"], {"probe": {"epsilon": 0.01, "n": -1}}),
    ("cascade", MODELS["cascade-split"], {"probe": {"epsilon": "x"}}),
    ("cascade", MODELS["cascade-split"], {"probe": 3}),
    ("certify", MODELS["markov_chain"], {"f": "abc"}),
    ("spectral", MODELS["markov_chain"], {"beta_window": [5]}),
    ("spectral", MODELS["markov_chain"], {"beta_window": 5}),
    ("verify-theorem1", MODELS["cascade-split"], {"mn_grid": {"m": [1.5], "n": [2]}}),
    # integer fields given a bool or a non-integral number
    ("simulate", MODELS["cascade-split"], {"threads": 2.7}),
    ("simulate", MODELS["cascade-split"], {"threads": True}),
    ("simulate", MODELS["cascade-split"], {"replicates": 99.9}),
    ("simulate", MODELS["cascade-split"], {"horizons": {"n_max": 3.9}}),
    ("simulate", MODELS["cascade-split"], {"horizons": {"n_max": 3, "proxy": 7.5}}),
    ("simulate", MODELS["cascade-split"], {"seed": 1.5}),
    ("simulate", MODELS["cascade-split"], {"caps": {"particles": 1000.5}}),
    ("llogl", MODELS["cascade-mixture"], {"k": 1.5}),
    ("llogl", MODELS["cascade-mixture"], {"probe": {"epsilon": 0.01, "n": 2.5}}),
    ("llogl", MODELS["cascade-mixture"], {"mc_budget": 50.5}),
    ("certify", MODELS["cascade-split-indep"], {"dispersion_budget": 50.5}),
    ("spectral", MODELS["markov_chain"], {"beta_window": [1.5, 20]}),
    ("spectral", MODELS["markov_chain"], {"beta_window": [1, True]}),
    ("verify-theorem1", MODELS["cascade-split"], {"mn_grid": {"m": [1], "n": [2.5]}}),
    ("kernel-products", _with("kernel_product", x_index=0.5), {}),
    ("simulate", _with("markov_chain", x0=True), {}),
    # an ifs cell width that does not divide [0, 1]
    ("spectral", _with("ifs", h=0.3), {}),
    ("simulate", _with("ifs", h=0.3), {}),
    ("simulate", _with("ifs", h=0.4), {}),
    ("simulate", _with("ifs", h=2.0), {}),
    # real fields given a string or a bool
    ("cascade", MODELS["cascade-split"], {"p": "1.5"}),
    ("verify-theorem1", MODELS["cascade-split"], {"p": "2"}),
    ("simulate", _with("cascade-scaled", c="1.5"), {}),
    ("cascade", _with("cascade-scaled", c=True), {}),
    ("simulate", _with("ifs", weights={"spec": "scaled_uniform", "c": "1.5"}), {}),
    ("simulate", _with("ifs", h="0.25"), {}),
    ("spectral", _with("ifs", h=True), {}),
    # an ifs model without maps, and sections that are not mappings
    *[(pipeline, _with("ifs", maps=[]), {}) for pipeline in _COMMANDS],
    ("simulate", MODELS["cascade-split"], {"horizons": [1]}),
    ("verify-theorem1", MODELS["cascade-split"], {"horizons": 6}),
    ("simulate", MODELS["cascade-split"], {"caps": [1]}),
    ("llogl", MODELS["cascade-mixture"], {"caps": "particles"}),
    ("simulate", ["kind"], {}),
    # a series trajectory of 2^7 particles over the cap, and an output directory that is not a path
    ("llogl", MODELS["cascade-split"], {"k": 8, "caps": {"particles": 100}}),
    ("simulate", MODELS["cascade-split"], {"out": 5}),
    # a kernel_product observable that does not fit the 2x2 matrices, on a pipeline that never reads it
    ("simulate", _with("kernel_product", f=[1.0, 2.0, 3.0]), {}),
    ("simulate", _with("kernel_product", f="abc"), {}),
    # one misspelt key per level, a key no config takes any more, and keys of another model kind
    ("simulate", MODELS["cascade-split"], {"replicate": 10}),
    ("simulate", MODELS["cascade-split"], {"horizons": {"n_mx": 3}}),
    ("simulate", MODELS["cascade-split"], {"caps": {"particle": 10}}),
    ("cascade", MODELS["cascade-split"], {"probe": {"epsilom": 0.01}}),
    ("verify-theorem1", MODELS["cascade-split"], {"mn_grid": {"mm": [1], "n": [2]}}),
    ("simulate", _with("markov_chain", x_0=1), {}),
    ("simulate", _with("ifs", weights={"spce": "uniform_split_indep"}), {}),
    ("simulate", MODELS["cascade-split"], {"pipeline": "simulate"}),
    ("simulate", _with("cascade-split", transition=[[1.0]]), {}),
    ("simulate", _with("cascade-split", c=2.0), {}),
]


def _case_id(pipeline, model, extra):
    # from the case's content, so adding or deleting a case renames no other
    compact = partial(json.dumps, sort_keys=True, separators=(",", ":"))
    return f"{pipeline}:{compact(model)}:{compact(extra)}"


@pytest.mark.parametrize("pipeline,model,extra", MALFORMED, ids=[_case_id(*case) for case in MALFORMED])
def test_malformed_input_is_refused_with_exit_2(tmp_path, capsys, monkeypatch, pipeline, model, extra):
    def no_replicates(*args, **kwargs):
        raise AssertionError("a replicate ran before the refusal")

    monkeypatch.setattr(harness, "run_replicates", no_replicates)
    assert _run(pipeline, _config(tmp_path, model, **extra), tmp_path / "out", threads=None) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_unknown_key_is_named_with_its_path_and_closest_known_key(tmp_path, capsys):
    for model, extra, message in (
        (MODELS["markov_chain"], {"replicate": 10}, "unknown key 'replicate'; did you mean 'replicates'?"),
        (_with("markov_chain", x_0=1), {}, "unknown key 'model.x_0'; did you mean 'model.x0'?"),
    ):
        assert _run("simulate", _config(tmp_path, model, **extra), tmp_path / "out") == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


def test_particle_cap_bounds_each_series_trajectory_not_their_block(tmp_path, capsys):
    # the series runs its 50 trajectories as one block; at k = 6 they hold 2^6 particles each
    config = _config(tmp_path, MODELS["cascade-split"], k=6, caps={"particles": 64})
    assert _run("llogl", config, tmp_path / "k6") == 0
    config = _config(tmp_path, MODELS["cascade-split"], k=7, caps={"particles": 64})
    assert _run("llogl", config, tmp_path / "k7") == 2
    assert capsys.readouterr().err == (
        "config error: the series at k = 7 grows one trajectory to 128 particles at generation 7, "
        "over caps.particles = 64\n"
    )


@pytest.mark.parametrize("pipeline", _COMMANDS)
def test_config_that_is_not_a_json_object_is_refused_with_exit_2(tmp_path, capsys, pipeline):
    config = tmp_path / "config.json"
    config.write_text(json.dumps([{"model": MODELS["cascade-split"]}]))
    assert _run(pipeline, str(config), tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("config error: a config must be a JSON object")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [-1, -3, 2**64, 2**64 + 5, 2**64 - 3 + 2**64])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_seed_outside_64_bits_is_refused_with_exit_2(tmp_path, capsys, seed, where):
    # such a seed used to wrap modulo 2^64: 5 and 2^64 + 5 wrote the same series
    extra = {"seed": seed} if where == "config" else {}
    flags = ["--seed", str(seed)] if where == "flag" else []
    config = _config(tmp_path, MODELS["cascade-split"], **extra)
    assert main(["simulate", "--config", config, *flags, "--out", str(tmp_path / "out")]) == 2
    bound = ">= 0" if seed < 0 else f"<= {2**64 - 1}"
    assert capsys.readouterr().err == f"config error: seed must be {bound}, got {seed}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seeds_at_both_ends_of_64_bits_run(tmp_path, seed):
    config = _config(tmp_path, MODELS["cascade-split"], replicates=2, horizons={"n_max": 2})
    assert main(["simulate", "--config", config, "--seed", str(seed), "--out", str(tmp_path / "out")]) == 0
    assert _result(tmp_path / "out")["config"]["seed"] == seed


@pytest.mark.parametrize("threads", [0, -2])
def test_threads_flag_below_one_is_refused_with_exit_2(tmp_path, capsys, threads):
    assert _run("simulate", _config(tmp_path, MODELS["cascade-split"]), tmp_path / "out", threads) == 2
    assert capsys.readouterr().err.startswith("config error: threads must be >= 1")
    assert not (tmp_path / "out").exists()


def test_llogl_probe_without_n_probes_generation_n_max(tmp_path):
    # as in the cascade pipeline, a probe mapping may set epsilon alone
    config = _config(tmp_path, MODELS["cascade-mixture"], probe={"epsilon": 0.01})
    out = tmp_path / "out"
    assert _run("llogl", config, out) == 0
    results = _result(out)["results"]
    assert results["probe_n"] == 6 and results["probe_epsilon"] == 0.01


def _model_only(tmp_path, **extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": MODELS["cascade-mixture"], **extra}))
    return str(path)


def test_model_only_config_runs_verify_theorem1_on_a_grid_from_its_horizon(tmp_path):
    # proxy 12 gives the axes 2, 4, 6: nine (m, n) rows, each with m + n <= 12
    out = tmp_path / "out"
    assert _run("verify-theorem1", _model_only(tmp_path), out) == 0
    lines = (out / "series_theorem1.csv").read_text().splitlines()
    assert [tuple(map(int, line.split(",")[:2])) for line in lines[1:]] == [
        (m, n) for m in (2, 4, 6) for n in (2, 4, 6)
    ]


def test_empty_default_grid_is_refused_by_verify_theorem1_alone(tmp_path, capsys):
    config = _model_only(tmp_path, replicates=100, horizons={"n_max": 3})
    assert _run("verify-theorem1", config, tmp_path / "out") == 2
    assert capsys.readouterr().err == (
        "config error: the default mn_grid 2, 4, ... needs a proxy horizon of at least 4, got 3\n"
    )
    assert _run("simulate", config, tmp_path / "out") == 0


def test_unwritable_output_directory_is_refused_with_exit_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory")
    assert _run("simulate", _config(tmp_path, MODELS["cascade-split"]), out) == 2
    assert capsys.readouterr().err.startswith(f"cannot write to {out}: ")
    assert out.read_text() == "a file, not a directory"


def test_capped_lp_error_exits_3_with_an_inconclusive_result(tmp_path, capsys):
    config = _config(tmp_path, MODELS["cascade-split"], caps={"particles": 6})
    out = tmp_path / "out"
    assert _run("verify-theorem1", config, out) == 3
    assert "verdict: inconclusive" in capsys.readouterr().out
    payload = _result(out)
    assert payload["results"]["capped_replicates"] == 100
    assert payload["verdicts"] == ["inconclusive"]


def test_worker_pool_is_capped_at_the_cpu_count(monkeypatch):
    pools = []

    class InlinePool:
        """Stand-in for ``ProcessPoolExecutor`` that runs each job at submission."""

        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.jobs = 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            self.jobs += 1
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    bundle = _bundle(MODELS["cascade-split-indep"])
    serial = run_replicates(bundle, Generation.total_mass, 3, 20, seed=1, threads=1)
    assert pools == []
    pooled = run_replicates(bundle, Generation.total_mass, 3, 20, seed=1, threads=64)
    (pool,) = pools
    assert pool.max_workers == 2
    assert pool.jobs == 8  # four chunks per worker
    assert np.array_equal(pooled.data, serial.data)


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # the pool's module costs every run's start-up, and only threads > 1 needs it
    src = os.path.dirname(os.path.dirname(harness.__file__))
    code = "import sys, wbp.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_replicate_rows_match_for_any_worker_count_with_capped_replicates():
    # one or two children per parent: the cap catches some replicates and not others;
    # 13 replicates split into uneven chunks for 2 and for 3 workers
    cascade = _bundle(
        {"kind": "cascade", "spec": "mixture", "atoms": [[0.5, 0.5], [1.0]], "probs": [0.5, 0.5]}
    )
    # the same brood sizes on two types, observed as the mass on each type
    one_or_two = [(0.5, [(0.5, 1)]), (0.5, [(0.5, 0), (0.5, 1)])]
    law = MixtureFiniteTypeLaw((one_or_two, one_or_two))
    two_types = harness.ModelBundle(law, TypeGrid.finite(2), law.root_generation(0))
    for bundle, observe, width in (
        (cascade, Generation.total_mass, 7),
        (two_types, partial(harness._type_masses, d=2), 14),
    ):
        serial = run_replicates(bundle, observe, 6, 13, seed=3, threads=1, cap=12)
        assert 0 < serial.n_capped < serial.replicates == 13
        assert serial.data.shape == (13, width)
        # a capped row is NaN across its full width, and no other row holds a NaN
        assert np.isnan(serial.data).any(axis=1).sum() == serial.n_capped
        assert np.isnan(serial.data).all(axis=1).sum() == serial.n_capped
        for threads in (2, 3):
            pooled = run_replicates(bundle, observe, 6, 13, seed=3, threads=threads, cap=12)
            assert np.array_equal(pooled.data, serial.data, equal_nan=True)
            assert pooled.n_capped == serial.n_capped
            assert pooled.particle_total == serial.particle_total


def _breadth_first_rows(bundle, observe, horizon, replicates, seed, cap):
    """The reference runner: each replicate's generations one after another, whole."""
    width = (horizon + 1) * np.size(observe(bundle.g0)) + 1
    rows = np.empty((replicates, width))
    for i, row in enumerate(rows):
        rng = derive_stream(seed, i)
        g, values, particles = bundle.g0, [], 0
        try:
            for n in range(horizon + 1):
                if n:
                    g = advance_generation(g, bundle.law, rng, cap=cap)
                particles += g.size
                values.append(np.atleast_1d(observe(g)))
        except PopulationCapError:
            row[:] = np.nan
            continue
        row[:] = np.concatenate(values + [[particles]])
    return rows


# (bundle, observer, horizon, cap): every observer of the pipelines, capped replicates included
TRAVERSALS = {
    "mixture-capped": (
        _bundle(MODELS["cascade-mixture"] | {"atoms": [[0.5, 0.5], [1.0]]}),
        Generation.total_mass,
        6,
        12,
    ),
    "split-indep": (_bundle(MODELS["cascade-split-indep"]), Generation.total_mass, 10, 10**7),
    "flip-types": (_bundle(MODELS["two_type_flip"]), partial(harness._type_masses, d=2), 9, 10**7),
    "ifs": (_bundle(MODELS["ifs"]), Generation.total_mass, 9, 10**7),
    "kernel-product": (
        _bundle(MODELS["kernel_product"]),
        partial(kernel_product_observable, f=np.array([1.0, -0.5])),
        7,
        10**7,
    ),
    "lineage": (_bundle(MODELS["lineage_chain"]), harness._lineage_average, 12, 10**7),
}


@pytest.mark.parametrize("name", sorted(TRAVERSALS))
def test_one_piece_per_generation_records_what_a_breadth_first_loop_records(monkeypatch, name):
    bundle, observe, horizon, cap = TRAVERSALS[name]
    monkeypatch.setattr(harness, "_PIECE", 10**9)
    block = run_replicates(bundle, observe, horizon, 9, seed=4, cap=cap)
    rows = _breadth_first_rows(bundle, observe, horizon, 9, 4, cap)
    assert np.hstack([block.data, rows[:, -1:]]).tobytes() == rows.tobytes()
    assert (block.n_capped > 0) == (name == "mixture-capped")


@pytest.mark.parametrize("piece", [1, 3, 7])
def test_small_pieces_add_up_to_the_exact_masses(monkeypatch, piece):
    monkeypatch.setattr(harness, "_PIECE", piece)
    horizon = 8
    # factors 1/2 and 1/4: G_n(1) = (3/4)^n, a sum of dyadic weights that no order rounds
    law = DeterministicCascade((0.5, 0.25))
    cascade = harness.ModelBundle(law, TypeGrid.finite(1), law.root_generation())
    block = run_replicates(cascade, Generation.total_mass, horizon, 2, seed=0)
    assert np.array_equal(block.data, np.tile(0.75 ** np.arange(horizon + 1), (2, 1)))
    assert block.particle_total == 2 * (2 ** (horizon + 1) - 1)
    # two children of half weight on the other type: all the mass sits on type n mod 2
    law = two_type_flip_law()
    flip = harness.ModelBundle(law, TypeGrid.finite(2), law.root_generation(0))
    block = run_replicates(flip, partial(harness._type_masses, d=2), horizon, 2, seed=0)
    exact = [(1.0, 0.0) if n % 2 == 0 else (0.0, 1.0) for n in range(horizon + 1)]
    assert np.array_equal(block.data, np.tile(np.ravel(exact), (2, 1)))


def test_cap_counts_every_piece_of_a_generation(monkeypatch):
    # pieces of 4 parents have at most 8 children, under the cap of 20; generation 5 holds 32
    monkeypatch.setattr(harness, "_PIECE", 4)
    law = DeterministicCascade((0.5, 0.5))
    bundle = harness.ModelBundle(law, TypeGrid.finite(1), law.root_generation())
    assert run_replicates(bundle, Generation.total_mass, 4, 3, seed=0, cap=20).n_capped == 0
    block = run_replicates(bundle, Generation.total_mass, 5, 3, seed=0, cap=20)
    assert block.n_capped == 3 and np.isnan(block.data).all()


def test_replicate_memory_is_bounded_by_the_piece_not_the_generation():
    # breadth-first, generations 19 and 20 of uniform_split (2^20 particles) need about 25 MB
    import tracemalloc

    horizon = 20
    bundle = _bundle(MODELS["cascade-split"])
    tracemalloc.start()
    try:
        block = run_replicates(bundle, Generation.total_mass, horizon, 1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.particle_total == 2 ** (horizon + 1) - 1
    # at most one piece's two broods per generation, 16 bytes a child (weight and type)
    assert peak < 2 * 16 * harness._PIECE * horizon


def test_overflowing_weight_is_refused_with_exit_2_and_its_generation(tmp_path, capsys):
    model = {"kind": "kernel_product", "atoms": [[[[1e200, 0.0], [0.0, 1e200]]]], "probs": [1.0]}
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = _run("kernel-products", _config(tmp_path, model, horizons={"n_max": 3}), out)
    assert code == 2
    assert capsys.readouterr().err == (
        "invalid offspring: generation 2: a sampled weight is negative or not finite\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("pipeline", ["cascade", "llogl"])
def test_cascade_of_zero_mean_mass_is_refused_before_any_replicate(
    tmp_path, capsys, monkeypatch, pipeline
):
    def no_replicates(*args, **kwargs):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(harness, "run_replicates", no_replicates)
    model = {"kind": "cascade", "spec": "scaled_uniform", "c": 0.0}
    assert _run(pipeline, _config(tmp_path, model), tmp_path / "out") == 2
    assert capsys.readouterr().err == (
        "config error: the cascade's mean total mass theta1 = E(sum u) is 0.0, "
        "so theta1^-n G_n(1) is undefined\n"
    )


def test_ifs_pipeline_writes_its_boolean_verdicts(tmp_path):
    out = tmp_path / "out"
    assert _run("ifs", _config(tmp_path, MODELS["ifs"]), out) == 0
    payload = _result(out)
    assert payload["verdicts"] == ["holds"]
    assert payload["results"]["gamma_bar_ok"] is True


def test_deterministic_kernel_product_holds(tmp_path, capsys):
    # a single atom list: every replicate is identical, so every SE is 0
    model = {"kind": "kernel_product", "atoms": [[[[0.3, 0.7], [0.1, 0.2]]] * 2], "probs": [1.0]}
    out = tmp_path / "out"
    assert _run("kernel-products", _config(tmp_path, model), out) == 0
    assert "verdict: holds" in capsys.readouterr().out
    assert _result(out)["verdicts"] == ["holds"]


def test_signed_kernel_product_holds(tmp_path, capsys):
    # entries of both signs: each child's weight is the l1 norm of a signed row
    model = {
        "kind": "kernel_product",
        "atoms": [[[[0.5, -0.3], [0.2, 0.4]]], [[[-0.2, 0.6], [0.3, -0.1]], [[0.4, 0.1], [-0.3, 0.5]]]],
        "probs": [0.5, 0.5],
        "x_index": 1,
        "f": [1.0, -2.0],
    }
    out = tmp_path / "out"
    assert _run("kernel-products", _config(tmp_path, model), out) == 0
    assert "verdict: holds" in capsys.readouterr().out
    assert _result(out)["verdicts"] == ["holds"]


def test_jsonable_turns_numpy_bools_into_json_bools():
    assert json.dumps(_jsonable({"ok": np.bool_(True), "bad": [np.bool_(False)]})) == (
        '{"ok": true, "bad": [false]}'
    )
