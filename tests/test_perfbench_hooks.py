"""The benchmark's layer timers patch library names from outside; a rename in
``fapolar`` must fail here, not turn per-layer metrics into ``absent``."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_perfbench_hook_target_resolves():
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        pass  # installing the hooks resolves every target; leaving restores them
    assert tracer.missing == []
    leaf_spans = {f"listdec.leaf.{kind}" for kind in tracing.LEAF_KINDS}
    assert leaf_spans <= tracer.installed
    hooked = {name for _, _, name, _ in tracing.DECODE_HOOKS + tracing.SETUP_HOOKS if name}
    assert hooked <= tracer.installed
