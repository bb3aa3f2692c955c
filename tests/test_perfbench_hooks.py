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


def test_decoders_feed_every_layer_span_they_use():
    # decoders built under the hooks, as the benchmark builds them: a kernel
    # bound when a decoder is built must still be the timed one, or its time
    # would move into listdec.engine_self_ms unseen
    import fapolar as fp
    from fapolar import sim
    from fapolar.lutdesign import design_lutset

    tracing = load_tracing()
    code = fp.construct(256, 128, 16)
    fast = fp.build_tree(code)
    lutset = design_lutset(code, fast, "msib", 2.0, 4)
    specs = {
        "sc-exact": (sim.DecoderSpec("llr", "sc", "exact", 8), None),
        "fast-float": (sim.DecoderSpec("llr", "fast", "approx", 8), None),
        "fast-msib": (sim.DecoderSpec("msib", "fast", "approx", 8, lut_path="(in-memory)"), lutset),
    }
    # the fast tree's leaves: constituent decoders, and single bits priced by metric_increment
    leaves = {f"listdec.leaf.{leaf.kind.name.lower()}" if leaf.size > 1
              else "arith.metric_increment" for leaf in fast.schedule}
    walk = {"arith.combine_bits", "listdec.permute", "listdec.fork_prune"}
    uses = {
        "sc-exact": walk | {"arith.f_exact", "arith.g_func", "arith.metric_increment"},
        "fast-float": walk | {"arith.f_minsum", "arith.g_func"} | leaves,
        "fast-msib": walk | {"lutdec.quantize_rx", "lutdec.f_lookup", "lutdec.g_lookup",
                             "lutdec.leaf_translate"} | leaves,
    }
    assert len(leaves) >= 4  # rate-0, repetition, rate-1 and SPC leaves at least
    channel = sim.ChannelModel(1.5, code.rate)
    for label, (spec, lut) in specs.items():
        with tracing.Tracer() as tracer:
            decoder = sim.FrameDecoder(code, spec, lutset=lut)
            tracer.reset()
            sim.run_frames(code, decoder, channel, 0, range(1))
        calls = {name: tracer.stats.get(name, (0,))[0] for name in uses[label]}
        assert all(calls.values()), f"{label}: spans with no calls: " \
                                    f"{sorted(name for name, n in calls.items() if not n)}"
        assert tracer.stats["listdec.engine"][0] == 1


def test_tables_touched_counter_reads_the_decoders_table_record():
    # perfbench's lutdec.tables_touched sums DecodeResult.touched_* per frame:
    # every stored table and leaf translation for LUT decoders, none for float
    import fapolar as fp
    from fapolar import sim
    from fapolar.lutdesign import design_lutset
    from fapolar.tree import stored_tables

    tracing = load_tracing()
    code = fp.construct(256, 128, 16)
    fast, frames = fp.build_tree(code), 3
    channel = sim.ChannelModel(1.5, code.rate)
    for family, schedule, mode in (("llr", "sc", "exact"), ("msib", "fast", "approx"),
                                   ("ib", "fast", "approx")):
        lutset = design_lutset(code, fast, family, 2.0, 4) if family != "llr" else None
        with tracing.Tracer() as tracer:
            decoder = sim.FrameDecoder(code, sim.DecoderSpec(family, schedule, mode, 8), lutset)
            tracer.reset()
            sim.run_frames(code, decoder, channel, 0, range(frames))
        assert "tables_touched" not in tracer.broken
        per_frame = len(stored_tables(fast, family)) + fast.leaf_count if lutset else 0
        assert tracer.counts["tables_touched"] == frames * per_frame, family
