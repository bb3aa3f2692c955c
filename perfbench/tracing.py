"""Layer timing from outside the library.

Hooks replace module-level callables with timing wrappers where their callers
look them up at call time, and put the originals back afterwards. Nothing in
``src/`` knows about them. ``listdec`` imports the arith rules by name, so
they are patched in ``listdec``; ``_SPECIAL_DECODERS`` holds the constituent
decoders; ``sim`` imports ``ca_select``, ``quantize_rx`` and ``build_tree``
by name. Decoders must be built after the hooks are installed.

A span's self time is its duration minus the durations of wrapped calls made
inside it, so the self times of all spans within a decoder call add up to
that call's duration, less the decoder's own glue code.
"""

import importlib
from collections import Counter
from time import perf_counter

DECODER_SPAN = "sim.decoder_call"

# (module, attribute path, span name, counter hook); a span name may be fed
# by several lookup sites.
DECODE_HOOKS = (
    ("codes", "polar_transform", "codes.polar_transform", None),
    ("listdec", "polar_transform", "codes.polar_transform", None),
    ("codes", "crc_bits", "codes.crc_bits", None),
    ("listdec", "f_exact", "arith.f_exact", None),
    ("listdec", "f_minsum", "arith.f_minsum", None),
    ("listdec", "g_func", "arith.g_func", None),
    ("listdec", "combine_bits", "arith.combine_bits", None),
    ("listdec", "metric_increment", "arith.metric_increment", None),
    ("listdec", "ListEngine.decode", "listdec.engine", "tables_touched"),
    ("listdec", "ListEngine._permute", "listdec.permute", "permute_bytes"),
    ("listdec", "_fork_prune", "listdec.fork_prune", "prune_counts"),
    ("sim", "ca_select", "listdec.ca_select", None),
    ("listdec", "crc_check", None, "ca_checked"),
    ("sim", "quantize_rx", "lutdec.quantize_rx", None),
    ("lutdec", "_LutOps.f_update", "lutdec.f_lookup", None),
    ("lutdec", "_LutOps.g_update", "lutdec.g_lookup", None),
    ("lutdec", "_LutOps.leaf_llrs", "lutdec.leaf_translate", None),
    ("lutdec", "msib_f_index", "lutdesign.msib_f_index", None),
    ("tree", "DecoderTree.schedule_hash", "tree.schedule_hash", None),
)
SETUP_HOOKS = (
    ("tree", "build_tree", "tree.build_tree", None),
    ("sim", "build_tree", "tree.build_tree", None),
    ("lutdesign", "design_lutset", "lutdesign.design_lutset", None),
    ("lutdesign", "quantize_channel", "lutdesign.quantize_channel", None),
    ("lutdesign", "build_f_table", "lutdesign.build_f_table", None),
    ("lutdesign", "build_g_table", "lutdesign.build_g_table", None),
)
LEAF_KINDS = ("r0", "rep", "r1", "spc")
PATH_STATE_ARRAYS = ("msgs", "bits", "u_hat")


def _count_tables_touched(counts, args, result):
    counts["tables_touched"] += (len(result.touched_decoding)
                                 + len(result.touched_translation))


def _count_permute_bytes(counts, args, result):
    engine = args[0]
    counts["permute_bytes"] += sum(getattr(engine, name).nbytes
                                   for name in PATH_STATE_ARRAYS if hasattr(engine, name))


def _count_prune(counts, args, result):
    counts["prune_candidates"] += len(args[0]) + len(args[1])
    counts["prune_survivors"] += len(result[2])


def _count_ca_checked(counts, args, result):
    counts["ca_checked"] += 1


COUNTER_HOOKS = {
    "tables_touched": _count_tables_touched,
    "permute_bytes": _count_permute_bytes,
    "prune_counts": _count_prune,
    "ca_checked": _count_ca_checked,
}


class Tracer:
    """Span and count accumulators plus the patches that feed them.

    ``stats[name]`` is [calls, self seconds, total seconds]. Use as a context
    manager: hooks are installed on entry and always removed on exit.
    """

    def __init__(self):
        self.stats = {}
        self.counts = Counter()
        self.installed = set()       # span and counter names whose hook is in place
        self.missing = []            # hook targets that no longer exist
        self.broken = set()          # counter hooks that raised (signature changed)
        self.decode_self = 0.0       # self time of spans run inside decoder calls
        self._children = [0.0]       # per open span: time spent in wrapped callees
        self._in_decode = False
        self._undo = []

    # ---- accumulation -------------------------------------------------
    def reset(self):
        self.stats = {}
        self.counts = Counter()
        self.decode_self = 0.0

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def span(self, name, fn, counter=None, decoder=False):
        """Wrap ``fn`` so each call is timed as ``name`` and fed to ``counter``.

        With ``name`` None the call is only counted, not timed: its time stays
        in the caller's span.
        """
        children = self._children
        counter_fn = COUNTER_HOOKS[counter] if counter else None

        def count(args, result):
            if counter_fn is not None and counter not in self.broken:
                try:
                    counter_fn(self.counts, args, result)
                except (AttributeError, TypeError, IndexError):
                    self.broken.add(counter)

        if name is None:
            def counting(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(args, result)
                return result
            return counting

        def wrapper(*args, **kwargs):
            outer = self._in_decode
            if decoder:
                self._in_decode = True
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                own = dt - children.pop()
                children[-1] += dt
                st = self._stat(name)
                st[0] += 1
                st[1] += own
                st[2] += dt
                if outer:
                    self.decode_self += own
                self._in_decode = outer
            count(args, result)
            return result

        return wrapper

    def wrap_decoder(self, decoder):
        return self.span(DECODER_SPAN, decoder, decoder=True)

    # ---- patching -----------------------------------------------------
    def _patch(self, owner, attr, value):
        old = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def __enter__(self):
        try:
            for mod_name, path, name, counter in DECODE_HOOKS + SETUP_HOOKS:
                *owner_path, attr = path.split(".")
                try:
                    owner = importlib.import_module(f"fapolar.{mod_name}")
                    for part in owner_path:
                        owner = getattr(owner, part)
                    fn = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(f"{mod_name}.{path}")
                    continue
                self._patch(owner, attr, self.span(name, fn, counter))
                self.installed.update(n for n in (name, counter) if n)
            self._patch_leaf_decoders()
        except BaseException:
            self._restore()
            raise
        return self

    def _patch_leaf_decoders(self):
        try:
            table = importlib.import_module("fapolar.listdec")._SPECIAL_DECODERS
        except (ImportError, AttributeError):
            table = None
        if table is None:
            self.missing.append("listdec._SPECIAL_DECODERS")
            return
        for kind, fn in list(table.items()):
            name = f"listdec.leaf.{kind.name.lower()}"
            table[kind] = self.span(name, fn)
            self._undo.append(lambda kind=kind, fn=fn: table.__setitem__(kind, fn))
            self.installed.add(name)

    def _restore(self):
        while self._undo:
            self._undo.pop()()

    def __exit__(self, *exc):
        self._restore()
        return False


def _per_frame_ms(name):
    return [name], lambda t: 1e3 * t.self_s(name) / t.frames


def _per_frame_calls(name):
    return [name], lambda t: t.calls(name) / t.frames


def _per_setup_s(name):
    return [name], lambda t: t.setup_total_s(name) / t.setup_reps


def _per_setup_calls(name):
    return [name], lambda t: t.setup_calls(name) / t.setup_reps


def _metric_table():
    """(metric name, unit, required span/counter names, value function)."""
    rows = [
        ("sim.frame_gen_ms", "ms", [DECODER_SPAN],
         lambda t: 1e3 * (t.loop_s - t.total_s(DECODER_SPAN)) / t.frames),
        ("sim.decoder_call_ms", "ms", [DECODER_SPAN],
         lambda t: 1e3 * t.total_s(DECODER_SPAN) / t.frames),
    ]
    for fn in ("polar_transform", "crc_bits"):
        rows.append((f"codes.{fn}.calls", "count", *_per_frame_calls(f"codes.{fn}")))
        rows.append((f"codes.{fn}.ms", "ms", *_per_frame_ms(f"codes.{fn}")))
    for fn in ("f_exact", "f_minsum", "g_func", "combine_bits", "metric_increment"):
        rows.append((f"arith.{fn}.ms", "ms", *_per_frame_ms(f"arith.{fn}")))
    for fn in ("f_exact", "f_minsum", "g_func"):
        rows.append((f"arith.{fn}.calls", "count", *_per_frame_calls(f"arith.{fn}")))
    rows += [
        ("listdec.permute.calls", "count", *_per_frame_calls("listdec.permute")),
        ("listdec.permute.ms", "ms", *_per_frame_ms("listdec.permute")),
        ("listdec.permute.bytes", "bytes-computed", ["permute_bytes"],
         lambda t: t.counts["permute_bytes"] / t.frames),
        ("listdec.fork_prune.calls", "count", *_per_frame_calls("listdec.fork_prune")),
        ("listdec.fork_prune.ms", "ms", *_per_frame_ms("listdec.fork_prune")),
        ("listdec.prune_keep_ratio", "ratio", ["prune_counts"],
         lambda t: t.counts["prune_survivors"] / max(t.counts["prune_candidates"], 1)),
    ]
    for kind in LEAF_KINDS:
        rows.append((f"listdec.leaf.{kind}.calls", "count",
                     *_per_frame_calls(f"listdec.leaf.{kind}")))
        rows.append((f"listdec.leaf.{kind}.ms", "ms", *_per_frame_ms(f"listdec.leaf.{kind}")))
    rows += [
        ("listdec.ca_select.ms", "ms", *_per_frame_ms("listdec.ca_select")),
        ("listdec.ca_select.checked", "count", ["listdec.ca_select", "ca_checked"],
         lambda t: t.counts["ca_checked"] / t.frames),
        ("listdec.engine_self_ms", "ms", *_per_frame_ms("listdec.engine")),
        ("lutdec.quantize_rx.ms", "ms", *_per_frame_ms("lutdec.quantize_rx")),
        ("lutdec.f_lookup.ms", "ms", *_per_frame_ms("lutdec.f_lookup")),
        ("lutdec.g_lookup.ms", "ms", *_per_frame_ms("lutdec.g_lookup")),
        ("lutdec.leaf_translate.ms", "ms", *_per_frame_ms("lutdec.leaf_translate")),
        ("lutdesign.msib_f_index.ms", "ms", *_per_frame_ms("lutdesign.msib_f_index")),
        ("lutdec.tables_touched", "count", ["tables_touched"],
         lambda t: t.counts["tables_touched"] / t.frames),
        ("tree.schedule_hash.calls", "count", *_per_frame_calls("tree.schedule_hash")),
        ("tree.schedule_hash.ms", "ms", *_per_frame_ms("tree.schedule_hash")),
        ("tree.build_tree_s", "s", *_per_setup_s("tree.build_tree")),
        ("lutdesign.design_lutset_s", "s", *_per_setup_s("lutdesign.design_lutset")),
        ("lutdesign.quantize_channel_s", "s", *_per_setup_s("lutdesign.quantize_channel")),
        ("lutdesign.build_f_table.calls", "count", *_per_setup_calls("lutdesign.build_f_table")),
        ("lutdesign.build_f_table_s", "s", *_per_setup_s("lutdesign.build_f_table")),
        ("lutdesign.build_g_table.calls", "count", *_per_setup_calls("lutdesign.build_g_table")),
        ("lutdesign.build_g_table_s", "s", *_per_setup_s("lutdesign.build_g_table")),
        ("trace_overhead_frac", "ratio", [DECODER_SPAN],
         lambda t: t.traced_fps / t.untraced_fps),
        ("trace_accounted_frac", "ratio", [DECODER_SPAN],
         lambda t: t.decode_self / max(t.total_s(DECODER_SPAN), 1e-12)),
    ]
    return rows


PER_LAYER_METRICS = _metric_table()


class TraceSummary:
    """What a traced run measured, in the form the metric table reads."""

    def __init__(self, tracer, setup_stats, setup_reps, frames, loop_s,
                 untraced_fps, traced_fps):
        self.stats = tracer.stats
        self.counts = tracer.counts
        self.decode_self = tracer.decode_self
        self.available = (tracer.installed | {DECODER_SPAN}) - tracer.broken
        self.setup_stats = setup_stats
        self.setup_reps = setup_reps
        self.frames = frames
        self.loop_s = loop_s
        self.untraced_fps = untraced_fps
        self.traced_fps = traced_fps

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def total_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def setup_calls(self, name):
        return self.setup_stats.get(name, (0, 0.0, 0.0))[0]

    def setup_total_s(self, name):
        return self.setup_stats.get(name, (0, 0.0, 0.0))[2]

    def metrics(self):
        """{name: (value or None when its hook is absent, unit)}."""
        out = {}
        for name, unit, needs, value in PER_LAYER_METRICS:
            ok = all(n in self.available for n in needs)
            out[name] = (float(value(self)) if ok else None, unit)
        return out
