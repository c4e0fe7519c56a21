"""The benchmark tracer's targets exist in the package.

``perfbench/tracer.py`` records a target that no longer resolves under
``missing_targets`` and drops its per-layer metrics without failing the
run, so a rename in the package would go unnoticed there.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_and_probe_target_resolves():
    tracer = _load_tracer()
    targets = tracer.TRACE_TARGETS + tracer.PROBE_TARGETS
    assert targets
    missing = []
    for mod_name, path, _ in targets:
        owner = importlib.import_module(mod_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod_name}.{path}")
    assert missing == []
