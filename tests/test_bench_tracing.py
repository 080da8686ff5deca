"""The benchmark's layer tracer still binds to ``wbp``.

``bench/tracing.py`` wraps ``wbp`` functions by module and name and reads
some of their arguments by name, so a rename under ``src/`` would crash a
traced benchmark run. This test installs the tracer, runs one small op of
every pipeline through the CLI and uninstalls it again. It checks that
the tracer finds what it wraps, not how often it is called.
"""

import json
import sys
import types
from pathlib import Path

from wbp.cli import _COMMANDS, main

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

IFS = {"kind": "ifs", "maps": [[0.5, 0.0], [0.5, 0.5]], "h": 2.0**-5}
MIXTURE = {"kind": "cascade", "spec": "mixture", "atoms": [[0.6, 0.6], [0.8, 0.0]], "probs": [0.5, 0.5]}
# one small model each pipeline exits 0 on, with the config keys it reads
OPS = {
    "simulate": ({"kind": "markov_chain", "transition": [[0.5, 0.5], [0.2, 0.8]]}, {}),
    "spectral": (IFS, {"beta_window": [8, 16]}),
    "certify": (IFS, {}),
    "verify-theorem1": (MIXTURE, {"mn_grid": {"m": [1, 2], "n": [2, 3]}}),
    "llogl": (MIXTURE, {"mc_budget": 50}),
    "cascade": ({"kind": "cascade", "spec": "uniform_split"}, {}),
    "kernel-products": ({"kind": "kernel_product", "atoms": [[[[0.5, 0.2], [0.1, 0.4]]]], "probs": [1.0]}, {}),
    "ifs": (IFS, {}),
    "lineage": ({"kind": "lineage_chain", "transition": [[0.5, 0.5], [0.2, 0.8]], "f": [1.0, 0.0]}, {}),
}


def _load_tracing():
    """``bench/tracing.py`` as a module, compiled from its source so nothing is written under ``bench/``."""
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_pipeline_has_an_op():
    assert set(OPS) == set(_COMMANDS)


def test_tracer_wraps_every_function_and_survives_every_pipeline(tmp_path, capsys):
    tracing = _load_tracing()
    originals = {(mod, name): getattr(sys.modules[f"wbp.{mod}"], name) for mod, name, _ in tracing._FUNCTIONS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, name), fn in originals.items():
            assert getattr(sys.modules[f"wbp.{mod}"], name) is not fn, f"wbp.{mod}.{name} was not wrapped"
        for pipeline, (model, extra) in OPS.items():
            cfg = {"model": model, "replicates": 100, "horizons": {"n_max": 6}, "dispersion_budget": 20, **extra}
            config = tmp_path / f"{pipeline}.json"
            config.write_text(json.dumps(cfg))
            assert main([pipeline, "--config", str(config), "--threads", "1", "--out", str(tmp_path / pipeline)]) == 0
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert metrics and all(isinstance(v, (int, float)) for v in metrics.values())
    for (mod, name), fn in originals.items():
        assert getattr(sys.modules[f"wbp.{mod}"], name) is fn

