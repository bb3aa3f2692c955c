import csv
import json
import re
from dataclasses import asdict

import numpy as np
import pytest

import fapolar as fp
from fapolar.listdec import ListEngine
from fapolar.sim import (
    ChannelModel,
    DecoderSpec,
    FrameDecoder,
    config_hash,
    run_config,
    run_point,
    sweep,
    write_csv,
    write_json,
)

from conftest import noisy_frame, refuse_walk


def test_channel_sigma_definition():
    channel = ChannelModel(ebn0_db=0.0, rate=0.5)
    assert abs(channel.sigma - 1.0) < 1e-12
    with pytest.raises(ValueError):
        ChannelModel(ebn0_db=1.0, rate=0.0)
    for ebn0 in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="Eb/N0 must be finite"):
            ChannelModel(ebn0_db=ebn0, rate=0.5)


@pytest.mark.parametrize("ebn0_db,message", [
    (4000.0, "Eb/N0 4000.0 dB gives no finite positive noise variance"),
    (-3300.0, "Eb/N0 -3300.0 dB gives no finite positive noise variance"),
    (-3100.0, "Eb/N0 -3100.0 dB gives no finite positive noise variance"),
])
def test_channel_refuses_ebn0_without_noise_variance(ebn0_db, message):
    # 10^400 overflows a float, 10^-330 is 0 and 10^-310 leaves an infinite variance
    with pytest.raises(ValueError, match=re.escape(message)):
        ChannelModel(ebn0_db=ebn0_db, rate=0.5)


def test_sigma_is_the_noise_variance_expression():
    for ebn0_db, rate in ((-3000.0, 0.5), (-1.5, 0.375), (0.0, 1.0), (2.0, 0.5), (3000.0, 1 / 3)):
        expected = float(np.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))))
        assert ChannelModel(ebn0_db, rate).sigma == expected


def test_noise_variance_within_one_percent():
    rng = np.random.default_rng(0)
    channel = ChannelModel(ebn0_db=1.3, rate=0.5)
    draws = channel.sigma * rng.standard_normal(10 ** 6)
    assert abs(draws.var() / channel.sigma ** 2 - 1.0) < 0.01


def test_decoder_spec_validation():
    with pytest.raises(ValueError):
        DecoderSpec(family="nn")
    with pytest.raises(ValueError, match="no LUT set"):  # LUT decoders need a set
        FrameDecoder(fp.construct(32, 12, 4), DecoderSpec(family="ib"))
    DecoderSpec(family="llr", schedule="sc")
    with pytest.raises(ValueError, match="llr decoder given a LUT set"):  # nor float ones a set
        DecoderSpec(family="llr", lut_path="msib.json")


@pytest.mark.parametrize("entry", ["ListConfig", "DecoderSpec"])
def test_list_size_is_an_integer_checked_where_it_enters(monkeypatch, entry):
    # 2.5 used to die mid-decode in _fork_prune, True decoded as L=1 under
    # another config_hash, "4" raised TypeError, and a numpy 4 broke config_hash
    code = fp.construct(64, 28, 8)
    if entry == "ListConfig":
        llr = 2.0 * noisy_frame(code, 0.8, seed=3)[2] / 0.64
        tree = fp.build_tree(code)

        def run(size):
            res = ListEngine(code, tree, fp.ListConfig(list_size=size)).decode(llr)
            return res.x_hats.tobytes(), res.metrics.tobytes()
    else:
        def run(size):
            result = sweep(code, DecoderSpec(list_size=size), [2.0], max_frames=8, min_errors=0)
            return result.config_hash, json.dumps(result.config), result.points[0].block_errors

    refuse_walk(monkeypatch)
    for size in (2.5, True, "4", 0):
        with pytest.raises(ValueError, match=re.escape(f"list size must be an integer >= 1, "
                                                       f"got {size!r}")):
            run(size)
    monkeypatch.undo()
    assert run(np.int64(4)) == run(4)
    for made in (fp.ListConfig(np.int64(4)), DecoderSpec(list_size=np.int64(4))):
        assert type(made.list_size) is int


def test_decoder_spec_schedule_is_the_one_tree_field():
    assert list(asdict(DecoderSpec())) == ["family", "schedule", "metric_mode", "list_size",
                                           "lut_path"]
    for schedule in ("ssc", "r0,r2"):
        with pytest.raises(ValueError, match="unknown node kind"):
            DecoderSpec(schedule=schedule)


SPELLINGS = {"sc": "sc", "": "sc", "fast": "fast", "r0,r1,rep,spc": "fast", "rep,r0": "r0,rep"}


def spy_trees(monkeypatch):
    """The trees that FrameDecoders built from here on were built on, in order
    (the engine keeps none)."""
    import fapolar.sim as sim

    built = []

    def build_tree(*args):
        built.append(fp.build_tree(*args))
        return built[-1]

    monkeypatch.setattr(sim, "build_tree", build_tree)
    return built


@pytest.mark.parametrize("schedule", SPELLINGS)
def test_schedule_spellings_build_one_tree(tmp_path, monkeypatch, schedule):
    # "sc" and "" prune nothing, "fast" all four kinds; the spec, and so the CSV
    # cell and the config hash, hold one spelling per tree
    text = SPELLINGS[schedule]
    code = fp.construct(64, 24, 8)
    spec = DecoderSpec(family="llr", schedule=schedule, list_size=2)
    built = spy_trees(monkeypatch)
    FrameDecoder(code, spec)
    tree, = built
    assert tree.schedule_hash() == fp.build_tree(code, fp.parse_kinds(schedule)).schedule_hash()
    if schedule in ("sc", ""):
        assert tree.schedule_hash() == fp.sc_tree(code).schedule_hash()
    if schedule in ("fast", "r0,r1,rep,spc"):
        assert tree.schedule_hash() == fp.build_tree(code).schedule_hash()
    result = sweep(code, spec, [2.0], seed=1, max_frames=16, min_errors=0)
    canonical = DecoderSpec(family="llr", schedule=text, list_size=2)
    assert spec == canonical
    assert result.config_hash == config_hash(run_config(code, canonical, None, [2.0], 1, 16, 0))
    write_csv(result, tmp_path / "out.csv")
    with open(tmp_path / "out.csv", newline="") as fh:
        assert [row["schedule"] for row in csv.DictReader(fh)] == [text]


def test_frame_decoder_family_must_match_set():
    from fapolar.lutdesign import design_lutset

    code = fp.construct(32, 12, 4)
    msib = design_lutset(code, fp.build_tree(code), "msib", 1.0, 4)
    for spec, lutset, message in ((DecoderSpec("llr"), msib, "llr decoder given a LUT set"),
                                  (DecoderSpec("msib"), None, "msib decoder given no LUT set"),
                                  (DecoderSpec("ib"), msib, "ib decoder given .* msib")):
        with pytest.raises(ValueError, match=message):
            FrameDecoder(code, spec, lutset=lutset)


def test_run_point_deep_waterfall_is_error_free():
    code = fp.construct(64, 24, 8)
    decoder = FrameDecoder(code, DecoderSpec(family="llr", list_size=4))
    point = run_point(code, decoder, ChannelModel(12.0, code.rate),
                      seed=1, max_frames=1000, min_errors=0)
    assert point.frames == 1000
    assert point.block_errors == 0


def test_run_point_reproducible_and_worker_independent():
    # workers get the decoder pickled, compiled steps included: the second code's
    # fast tree has all four special leaf kinds, the SC tree bit leaves
    for (n, k, crc), schedule in (((32, 12, 4), "fast"), ((64, 24, 8), "fast"),
                                  ((64, 24, 8), "sc")):
        code = fp.construct(n, k, crc)
        decoder = FrameDecoder(code, DecoderSpec(family="llr", schedule=schedule, list_size=2))
        channel = ChannelModel(1.0, code.rate)
        a = run_point(code, decoder, channel, seed=3, max_frames=512, min_errors=20)
        b = run_point(code, decoder, channel, seed=3, max_frames=512, min_errors=20)
        c = run_point(code, decoder, channel, seed=3, max_frames=512, min_errors=20,
                      workers=2)
        assert (a.frames, a.block_errors) == (b.frames, b.block_errors)
        assert (a.frames, a.block_errors) == (c.frames, c.block_errors)


def test_run_point_workers_stop_submitting_at_stop_batch(monkeypatch):
    import fapolar.sim as sim

    submitted = []

    class CountingPool(sim.ProcessPoolExecutor):
        def submit(self, fn, *args):
            submitted.append(args[0][-2:])
            return super().submit(fn, *args)

    monkeypatch.setattr(sim, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(sim, "BATCH_FRAMES", 16)
    code = fp.construct(32, 12, 4)
    decoder = FrameDecoder(code, DecoderSpec(family="llr", list_size=2))
    channel = ChannelModel(-2.0, code.rate)
    kwargs = dict(seed=4, max_frames=10 ** 6, min_errors=30)
    single = run_point(code, decoder, channel, **kwargs)
    pooled = run_point(code, decoder, channel, workers=2, **kwargs)
    assert (pooled.frames, pooled.block_errors) == (single.frames, single.block_errors)
    assert single.frames < 10 * 16
    # batches up to the stopping one, plus at most one more already in flight
    assert submitted[: single.frames // 16] == [
        (a, a + 16) for a in range(0, single.frames, 16)]
    assert len(submitted) <= single.frames // 16 + 1


def test_pool_has_no_more_workers_than_batches(monkeypatch):
    # the pool forks all its workers at the first submit; a stub pool records
    # its size and runs each job inline, so no process starts here
    import fapolar.sim as sim
    from concurrent.futures import Future

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(sim, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(sim, "BATCH_FRAMES", 16)
    code = fp.construct(32, 12, 4)
    decoder = FrameDecoder(code, DecoderSpec(family="llr", list_size=2))
    channel = ChannelModel(1.0, code.rate)
    for max_frames, workers, pools in ((48, 8, [3]), (40, 3, [3]), (16, 4, []),
                                       (100, 2, [2]), (5, 1, [])):
        sizes.clear()
        pooled = run_point(code, decoder, channel, seed=2, max_frames=max_frames, min_errors=0,
                           workers=workers)
        single = run_point(code, decoder, channel, seed=2, max_frames=max_frames, min_errors=0)
        assert sizes == pools
        assert (pooled.frames, pooled.block_errors) == (single.frames, single.block_errors)


def test_built_decoder_keeps_no_tree():
    # the engine's steps hold ids and column slices, and build_tree makes no
    # reference cycle: the tree is freed by reference counting alone
    import gc

    from fapolar.tree import TreeNode

    def live_nodes():
        return sum(isinstance(obj, TreeNode) for obj in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = live_nodes()
        code = fp.construct(1024, 512, 16)
        decoder = FrameDecoder(code, DecoderSpec(family="llr", schedule="sc", list_size=32,
                                                 metric_mode="exact"))
        assert live_nodes() == before
    finally:
        gc.enable()
    assert decoder.engine.steps


def test_decoder_keeps_no_path_state_between_frames():
    # sim pickles the decoder into every pool job: the last frame's path state
    # (channel, msgs, bits, mu) must not ride along
    import pickle

    code = fp.construct(1024, 512, 16)
    decoder = FrameDecoder(code, DecoderSpec(family="llr", schedule="sc", list_size=32,
                                             metric_mode="exact"))
    before = len(pickle.dumps(decoder))
    channel = ChannelModel(2.0, code.rate)
    _, _, y = noisy_frame(code, channel.sigma, 0)
    decoder(y, channel.sigma)
    assert len(pickle.dumps(decoder)) == before
    assert not {"channel", "msgs", "bits", "mu"} & vars(decoder.engine).keys()


def test_run_point_stops_on_errors(monkeypatch):
    import fapolar.sim as sim

    monkeypatch.setattr(sim, "BATCH_FRAMES", 64)
    code = fp.construct(32, 12, 4)
    decoder = FrameDecoder(code, DecoderSpec(family="llr", list_size=2))
    point = run_point(code, decoder, ChannelModel(-2.0, code.rate),
                      seed=0, max_frames=10 ** 5, min_errors=30)
    assert point.block_errors >= 30
    assert point.frames < 10 ** 5
    with pytest.raises(ValueError):
        run_point(code, decoder, ChannelModel(0.0, code.rate), max_frames=0)
    for seed in (-1, 1.5, "3", None):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            run_point(code, decoder, ChannelModel(0.0, code.rate), seed=seed)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            sweep(code, DecoderSpec(family="llr", list_size=2), [], seed=seed)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="worker count"):
            run_point(code, decoder, ChannelModel(0.0, code.rate), workers=workers)


def test_bler_estimator_unbiased_on_synthetic_decoder():
    # wrap a decoder that is always right (very high SNR) and inject i.i.d.
    # errors with known probability; the estimate must land within 3 sigma
    code = fp.construct(32, 12, 0)
    p_err = 0.3
    real = FrameDecoder(code, DecoderSpec(family="llr", list_size=1))
    state = {"count": 0}
    flips = np.random.default_rng(99).uniform(size=10 ** 4) < p_err

    def decoder(y, sigma):
        out = real(y, sigma)
        if flips[state["count"] % flips.size]:
            out = out ^ 1
        state["count"] += 1
        return out

    point = run_point(code, decoder, ChannelModel(14.0, code.rate),
                      seed=5, max_frames=4096, min_errors=0)
    sigma_hat = np.sqrt(p_err * (1 - p_err) / point.frames)
    assert abs(point.bler - p_err) < 3 * sigma_hat


def test_sweep_csv_and_json_deterministic(tmp_path):
    code = fp.construct(32, 12, 4)
    spec = DecoderSpec(family="llr", schedule="fast", list_size=2)
    result = sweep(code, spec, [0.0, 2.0, 4.0], seed=11, max_frames=256,
                   min_errors=10)
    assert len(result.points) == 3
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(result, csv_a)
    write_csv(sweep(code, spec, [0.0, 2.0, 4.0], seed=11, max_frames=256,
                    min_errors=10), csv_b)
    assert csv_a.read_bytes() == csv_b.read_bytes()
    json_path = tmp_path / "a.json"
    write_json(result, json_path)
    doc = json.loads(json_path.read_text())
    assert doc["config_hash"] == result.config_hash
    assert len(doc["points"]) == 3


def test_record_names_the_code_and_the_lut_set(tmp_path):
    # codes that differ only in their ranking or CRC polynomial, and sets that
    # differ only in their design point, each get their own record and hash
    from fapolar.lutdesign import design_lutset

    nr = fp.construct(32, 12, 4)
    reversed_ranking = fp.ReliabilitySequence(fp.nr_sequence().for_length(32)[::-1])
    codes = [nr, fp.construct(32, 12, 4, seq=reversed_ranking),
             fp.construct(32, 12, 4, crc_cfg=fp.CrcConfig(4, 0x3))]
    llr = DecoderSpec(family="llr", list_size=2)
    hashes = {sweep(code, llr, [], seed=0).config_hash for code in codes}
    msib = DecoderSpec(family="msib", list_size=2, lut_path="msib.json")
    lutsets = [design_lutset(nr, fp.build_tree(nr), "msib", ebn0, 4) for ebn0 in (0.0, 3.0)]
    hashes |= {sweep(nr, msib, [], seed=0, lutset=lutset).config_hash for lutset in lutsets}
    assert len(hashes) == 5
    # the JSON holds the hashed dict itself, beside the hash, wall time and points
    result = sweep(nr, msib, [8.0], seed=2, max_frames=16, min_errors=0, lutset=lutsets[1])
    write_json(result, tmp_path / "out.json")
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc.pop("config_hash") == result.config_hash == config_hash(result.config)
    assert doc.pop("wall_time_s") == result.wall_time_s
    assert doc.pop("points") == [asdict(p) for p in result.points]
    assert doc == result.config == run_config(nr, msib, lutsets[1], [8.0], 2, 16, 0)
    assert doc["lut"] == {"w": 4, "design_ebn0_db": 3.0,
                          "schedule_hash": fp.build_tree(nr).schedule_hash()}
    assert doc["code"]["crc_poly"] == nr.crc.polynomial
    frozen = np.unpackbits(np.frombuffer(bytes.fromhex(doc["code"]["frozen_mask"]), np.uint8))
    assert np.array_equal(frozen.astype(bool), nr.frozen_mask)


def test_sweep_statistical_sanity_decreasing_bler():
    code = fp.construct(64, 24, 8)
    spec = DecoderSpec(family="llr", list_size=4)
    result = sweep(code, spec, [0.0, 2.0, 4.0], seed=2, max_frames=4000,
                   min_errors=100)
    blers = [p.bler for p in result.points]
    assert all(p.block_errors >= 100 or p.frames == 4000 for p in result.points)
    assert blers[0] > blers[1] > blers[2]


def test_empty_node_list_equals_sc_schedule(monkeypatch):
    code = fp.construct(64, 24, 8)
    built = spy_trees(monkeypatch)
    fast_none = FrameDecoder(code, DecoderSpec(family="llr", schedule="", list_size=4))
    plain_sc = FrameDecoder(code, DecoderSpec(family="llr", schedule="sc",
                                              list_size=4))
    assert [tree.leaf_count for tree in built] == [code.block_len] * 2
    channel = ChannelModel(2.0, code.rate)
    a = run_point(code, fast_none, channel, seed=21, max_frames=512, min_errors=0)
    b = run_point(code, plain_sc, channel, seed=21, max_frames=512, min_errors=0)
    assert (a.frames, a.block_errors) == (b.frames, b.block_errors)


def test_frame_decoder_lut_roundtrip(tmp_path):
    from fapolar.lutdec import LutMismatchError
    from fapolar.lutdesign import design_lutset, load_lutset, save_lutset

    code = fp.construct(32, 12, 4)
    tree = fp.build_tree(code)
    lutset = design_lutset(code, tree, "msib", 1.0, 4)
    path = tmp_path / "lut.json"
    save_lutset(lutset, path)
    spec = DecoderSpec(family="msib", schedule="fast", list_size=4,
                       lut_path=str(path))
    decoder = FrameDecoder(code, spec, lutset=load_lutset(path))
    point = run_point(code, decoder, ChannelModel(10.0, code.rate),
                      seed=0, max_frames=128, min_errors=0)
    assert point.block_errors == 0
    with pytest.raises(ValueError):
        FrameDecoder(code, DecoderSpec(family="ib", schedule="fast",
                                       lut_path=str(path)), lutset=load_lutset(path))
    # the set is checked against the schedule when the decoder is built
    with pytest.raises(LutMismatchError, match="different schedule"):
        FrameDecoder(code, DecoderSpec(family="msib", schedule="sc", lut_path=str(path)),
                     lutset=load_lutset(path))


def test_sweep_csv_bytes_pinned(tmp_path):
    # bytes recorded before the per-size path-state layout; a change in decoded
    # bits that moves an error count fails here, not only in the benchmark
    from fapolar.lutdesign import design_lutset, load_lutset, save_lutset

    code = fp.construct(256, 128, 16)
    save_lutset(design_lutset(code, fp.build_tree(code), "msib", 2.0, 4),
                tmp_path / "msib.json")
    runs = [
        (DecoderSpec(family="llr", schedule="sc", metric_mode="exact", list_size=4), None,
         b"1.0,64,36,0.5625,llr,sc,float,exact,0,4,5\r\n"
         b"2.0,64,8,0.125,llr,sc,float,exact,0,4,5\r\n"),
        (DecoderSpec(family="msib", schedule="fast", list_size=4,
                     lut_path=str(tmp_path / "msib.json")), load_lutset(tmp_path / "msib.json"),
         b"1.0,64,39,0.609375,msib,fast,msib,approx,4,4,5\r\n"
         b"2.0,64,12,0.1875,msib,fast,msib,approx,4,4,5\r\n"),
    ]
    header = b"ebn0_db,frames,errors,bler,decoder,schedule,variant,metric,w,list,seed\r\n"
    for spec, lutset, rows in runs:
        write_csv(sweep(code, spec, [1.0, 2.0], seed=5, max_frames=64, min_errors=0,
                        lutset=lutset), tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == header + rows


def test_lut_set_checked_once_per_decoder(monkeypatch):
    # the set is checked when the decoder is built, not again for each frame
    import fapolar.lutdec as lutdec
    from fapolar.lutdesign import design_lutset

    code = fp.construct(64, 28, 8)
    lutset = design_lutset(code, fp.build_tree(code), "msib", 2.0, 4)
    checks, real_check = [], lutdec._check_match

    def counting_check(*args):
        checks.append(args)
        return real_check(*args)

    monkeypatch.setattr(lutdec, "_check_match", counting_check)
    spec = DecoderSpec(family="msib", schedule="fast", list_size=4, lut_path="(in-memory)")
    decoder = FrameDecoder(code, spec, lutset=lutset)
    point = run_point(code, decoder, ChannelModel(2.0, code.rate), seed=3, max_frames=256,
                      min_errors=0)
    assert point.frames == 256
    assert len(checks) == 1
