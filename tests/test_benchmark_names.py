"""The benchmark's traced run wraps library functions by name; each name must resolve.

A deleted or renamed name would crash only a traced benchmark run, which
neither this suite nor an untraced run reaches.
"""
import argparse
import importlib.util
from pathlib import Path

from cascade_guard import (
    attacks,
    autograd,
    cascade,
    cli,
    dataio,
    featstats,
    recovery,
    selfaware,
    victim,
)


def load_layer_metrics():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layer_metrics.py"
    spec = importlib.util.spec_from_file_location("perfbench_layer_metrics", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    modules = argparse.Namespace(attacks=attacks, autograd=autograd, cascade=cascade, cli=cli,
                                 dataio=dataio, featstats=featstats, recovery=recovery,
                                 selfaware=selfaware, victim=victim)
    targets = load_layer_metrics().targets(modules, None)
    assert targets
    for module, attr, *_ in targets:
        owner = module
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module.__name__}.{attr}"
