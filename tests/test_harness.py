"""One analysis per run, and every bench config loads."""

import json
import sys
from pathlib import Path

import pytest

from wbp import cli, harness, spectral
from wbp.harness import ExperimentConfig, run_experiment

IFS = {"kind": "ifs", "maps": [[0.5, 0.0], [0.5, 0.5]], "h": 2.0**-5}
MIXTURE = {"kind": "cascade", "spec": "mixture", "atoms": [[0.6, 0.6], [0.8, 0.0]], "probs": [0.5, 0.5]}


def count_calls(monkeypatch, *fns, record=None):
    """Count calls of ``fns`` under every name a ``wbp`` module binds them
    to, a static method of a ``wbp`` class included; ``record``, if given,
    collects each call's ``(args, result)`` under the function's name."""
    counts = dict.fromkeys((fn.__name__ for fn in fns), 0)
    modules = [m for name, m in list(sys.modules.items()) if name == "wbp" or name.startswith("wbp.")]
    for fn in fns:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            result = _fn(*args, **kwargs)
            if record is not None:
                record.setdefault(_fn.__name__, []).append((args, result))
            return result

        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
                elif isinstance(val, type) and getattr(vars(val).get(fn.__name__), "__func__", None) is fn:
                    monkeypatch.setattr(val, fn.__name__, staticmethod(counted))
    return counts


@pytest.mark.parametrize(
    "pipeline,model,builds,iterations",
    [
        ("spectral", IFS, 1, 1),
        ("certify", IFS, 2, 1),
        ("ifs", IFS, 2, 2),  # the second iteration is the Doob chain's
        ("llogl", MIXTURE, 2, 0),
        ("verify-theorem1", MIXTURE, 2, 1),
    ],
)
def test_each_kernel_is_built_and_iterated_once(monkeypatch, pipeline, model, builds, iterations):
    counts = count_calls(monkeypatch, spectral.build_mean_kernel, spectral.power_iteration)
    cfg = ExperimentConfig.from_dict(
        {
            "model": model,
            "replicates": 100,
            "horizons": {"n_max": 6},
            "dispersion_budget": 50,
            "mc_budget": 50,
            "mn_grid": {"m": [1, 2], "n": [2, 3]},
        }
    )
    run_experiment(cfg, pipeline)
    assert counts == {"build_mean_kernel": builds, "power_iteration": iterations}


def test_every_bench_config_loads():
    paths = sorted((Path(__file__).resolve().parent.parent / "bench" / "configs").glob("*.json"))
    assert paths
    for path in paths:
        assert ExperimentConfig.from_json(str(path)).raw


def test_a_cli_run_reads_its_config_once_and_builds_the_model_it_read(monkeypatch, tmp_path):
    record = {}
    counts = count_calls(monkeypatch, ExperimentConfig.from_dict, harness.make_model, record=record)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": MIXTURE, "replicates": 10, "horizons": {"n_max": 3}}))
    argv = ["simulate", "--config", str(path), "--seed", "5", "--threads", "1", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert counts == {"from_dict": 1, "make_model": 1}
    ((_, cfg),) = record["from_dict"]
    assert (cfg.seed, cfg.replicates, cfg.threads) == (5, 10, 1)  # the flags merged before the read
    (((model,), _),) = record["make_model"]
    assert model is cfg.model
