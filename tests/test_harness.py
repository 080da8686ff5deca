"""One analysis per run: each pipeline builds a grid kernel and its spectrum once."""

import sys

import pytest

from wbp import spectral
from wbp.harness import ExperimentConfig, run_experiment

IFS = {"kind": "ifs", "maps": [[0.5, 0.0], [0.5, 0.5]], "h": 2.0**-5}
MIXTURE = {"kind": "cascade", "spec": "mixture", "atoms": [[0.6, 0.6], [0.8, 0.0]], "probs": [0.5, 0.5]}


def count_calls(monkeypatch, *fns):
    """Count calls of ``fns`` under every name a ``wbp`` module binds them to."""
    counts = dict.fromkeys((fn.__name__ for fn in fns), 0)
    modules = [m for name, m in list(sys.modules.items()) if name == "wbp" or name.startswith("wbp.")]
    for fn in fns:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
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
