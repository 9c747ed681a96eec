"""The traced benchmark run must keep finding every function it wraps."""

import importlib.util
from pathlib import Path

import fractalspec

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable():
    targets = load_layers().targets(fractalspec)
    assert targets
    missing = []
    for module, path, _, _ in targets:
        owner = module
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module.__name__}.{path}")
    assert missing == []
