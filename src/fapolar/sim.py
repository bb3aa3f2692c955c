"""Monte-Carlo block error rate harness for BPSK over AWGN.

Frames are seeded individually from (seed, frame index), so a run is
reproducible no matter how frames are distributed over workers, and two
decoders given the same seed see identical payloads and noise.
"""

import csv
import hashlib
import json
import time
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from itertools import islice

import numpy as np

from .codes import CrcConfig, PolarCode, assemble_u, construct, encode, load_sequence
from .listdec import ListConfig, ListEngine, ca_select
from .lutdec import quantize_rx
from .lutdesign import LutSet, noise_variance
from .tree import LUT_VARIANTS, build_tree, parse_kinds, schedule_text

BATCH_FRAMES = 256  # frames per worker job; run_point checks its stop rule between jobs


@dataclass(frozen=True)
class ChannelModel:
    """BPSK over AWGN: bit 0 maps to +1, noise variance ``noise_variance``."""

    ebn0_db: float
    rate: float

    def __post_init__(self):
        if not 0 < self.rate <= 1:
            raise ValueError("rate must be in (0, 1]")
        noise_variance(self.ebn0_db, self.rate)  # a point without one fails before any frame

    @property
    def sigma(self) -> float:
        return float(np.sqrt(noise_variance(self.ebn0_db, self.rate)))


@dataclass(frozen=True)
class DecoderSpec:
    """Identity of one decoder configuration for simulation and reporting."""

    family: str = "llr"            # llr | ib | msib
    schedule: str = "fast"         # sc | fast | the pruned node kinds, e.g. "r0,rep"
    metric_mode: str = "approx"    # exact | approx
    list_size: int = 8
    lut_path: str = ""             # where the caller's LUT set came from, for the record

    def __post_init__(self):
        if self.family not in ("llr", *LUT_VARIANTS):
            raise ValueError(f"unknown decoder family {self.family!r}")
        if self.family == "llr" and self.lut_path:
            raise ValueError(f"llr decoder given a LUT set: lut_path {self.lut_path!r}")
        object.__setattr__(self, "list_size", ListConfig(self.list_size).list_size)  # a plain int
        # one spelling per tree, so the CSV cell and config_hash name it one way
        object.__setattr__(self, "schedule", schedule_text(parse_kinds(self.schedule)))


class FrameDecoder:
    """Decode frames to payload guesses (CRC-aided pick) with one list engine.
    Quantized families decode with the caller's LUT set, ``llr`` with none."""

    def __init__(self, code: PolarCode, spec: DecoderSpec, lutset: LutSet = None):
        if (lutset.variant if lutset is not None else "llr") != spec.family:
            given = "no LUT set" if lutset is None else f"a LUT set of variant {lutset.variant}"
            raise ValueError(f"{spec.family} decoder given {given}")
        self.code = code
        self.lutset = lutset
        tree = build_tree(code, parse_kinds(spec.schedule))
        cfg = ListConfig(list_size=spec.list_size, metric_mode=spec.metric_mode)
        self.engine = ListEngine(code, tree, cfg, lutset)

    def __call__(self, y_real: np.ndarray, sigma: float) -> np.ndarray:
        if self.lutset is not None:
            msgs = quantize_rx(self.lutset.channel_thresholds, y_real)
        else:
            msgs = 2.0 * y_real / (sigma * sigma)
        _, info, _ = ca_select(self.code, self.engine.decode(msgs))
        return info[: self.code.payload_len]


@dataclass
class SimPoint:
    ebn0_db: float
    frames: int
    block_errors: int
    bler: float
    elapsed_s: float


@dataclass
class SimResult:
    config: dict       # run_config(...): hashed, and written to the JSON and CSV
    config_hash: str
    points: list = field(default_factory=list)
    wall_time_s: float = 0.0


def run_frames(code: PolarCode, decoder, channel: ChannelModel, seed: int,
               frame_range) -> int:
    """Number of block errors over the given frame indices."""
    sigma = channel.sigma
    errors = 0
    for frame in frame_range:
        rng = np.random.default_rng((seed, int(frame)))
        payload = rng.integers(0, 2, code.payload_len, dtype=np.uint8)
        x = encode(code, assemble_u(code, payload))
        y = (1.0 - 2.0 * x.astype(np.float64)) + sigma * rng.standard_normal(code.block_len)
        if not np.array_equal(decoder(y, sigma), payload):
            errors += 1
    return errors


def _batch_job(args):
    code, decoder, channel, seed, start, stop = args
    return run_frames(code, decoder, channel, seed, range(start, stop))


def _batch_results(jobs, workers):
    """(last frame, errors) per batch, in order. With a pool, at most ``workers``
    batches are in flight and the next is submitted only when a result is read."""
    if workers == 1:
        yield from ((job[-1], _batch_job(job)) for job in jobs)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        in_flight = deque((job[-1], pool.submit(_batch_job, job)) for job in islice(jobs, workers))
        while in_flight:
            stop, fut = in_flight.popleft()
            yield stop, fut.result()
            in_flight.extend((job[-1], pool.submit(_batch_job, job)) for job in islice(jobs, 1))


def _check_run(seed, max_frames, min_errors, workers):
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if max_frames < 1 or min_errors < 0:
        raise ValueError("invalid stop criteria")
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")


def run_point(code: PolarCode, decoder, channel: ChannelModel, *,
              seed: int = 0, max_frames: int = 10000, min_errors: int = 100,
              workers: int = 1) -> SimPoint:
    """Simulate one Eb/N0 point until min_errors or max_frames (whole batches).

    The processed frame set depends only on the stop rule, never on worker
    count, so results are reproducible.
    """
    _check_run(seed, max_frames, min_errors, workers)
    t0 = time.perf_counter()
    errors = 0
    jobs = ((code, decoder, channel, seed, s, min(s + BATCH_FRAMES, max_frames))
            for s in range(0, max_frames, BATCH_FRAMES))
    batches = _batch_results(jobs, workers)
    for frames_done, batch_errors in batches:
        errors += batch_errors
        if errors >= min_errors > 0:
            break
    batches.close()  # stop submitting; wait only for batches already running
    elapsed = time.perf_counter() - t0
    return SimPoint(channel.ebn0_db, frames_done, errors, errors / frames_done, elapsed)


def sweep(code: PolarCode, spec: DecoderSpec, ebn0_list, *, seed: int = 0,
          max_frames: int = 10000, min_errors: int = 100, workers: int = 1,
          lutset: LutSet = None) -> SimResult:
    """run_point per Eb/N0; warns (does not fail) if BLER is non-monotone.
    Every input is checked, and the decoder built, before the first frame."""
    _check_run(seed, max_frames, min_errors, workers)
    config = run_config(code, spec, lutset, ebn0_list, seed, max_frames, min_errors)
    channels = [ChannelModel(ebn0_db=ebn0, rate=code.rate) for ebn0 in config["ebn0"]]
    decoder = FrameDecoder(code, spec, lutset=lutset)
    result = SimResult(config, config_hash(config))
    t0 = time.perf_counter()
    for channel in channels:
        point = run_point(code, decoder, channel, seed=seed, max_frames=max_frames,
                          min_errors=min_errors, workers=workers)
        if result.points and point.bler > result.points[-1].bler:
            warnings.warn(f"BLER inversion at {channel.ebn0_db} dB ({point.bler:.3g} > "
                          f"{result.points[-1].bler:.3g}); likely statistical noise", stacklevel=2)
        result.points.append(point)
    result.wall_time_s = time.perf_counter() - t0
    return result


def run_config(code: PolarCode, spec: DecoderSpec, lutset: LutSet, ebn0_list, seed,
               max_frames, min_errors) -> dict:
    """Everything that fixes a run's result: the code (CRC polynomial and frozen
    mask included), the decoder, the LUT set's identity, the points and the stop rule."""
    return {
        "code": {"block_len": code.block_len, "payload_len": code.payload_len,
                 "crc_len": code.crc_len, "crc_poly": code.crc.polynomial,
                 "frozen_mask": np.packbits(code.frozen_mask).tobytes().hex()},  # big-endian bits
        "decoder": asdict(spec),
        "lut": None if lutset is None else {"w": lutset.w, "design_ebn0_db": lutset.design_ebn0_db,
                                             "schedule_hash": lutset.schedule_hash},
        "ebn0": [float(e) for e in ebn0_list],
        "seed": int(seed),
        "max_frames": max_frames,
        "min_errors": min_errors,
    }


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


CSV_COLUMNS = ["ebn0_db", "frames", "errors", "bler", "decoder", "schedule",
               "variant", "metric", "w", "list", "seed"]


def write_csv(result: SimResult, path):
    spec = result.config["decoder"]
    variant = spec["family"] if spec["family"] != "llr" else "float"
    w = result.config["lut"]["w"] if result.config["lut"] is not None else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for p in result.points:
            writer.writerow([
                repr(p.ebn0_db), p.frames, p.block_errors, repr(p.bler),
                spec["family"], spec["schedule"], variant, spec["metric_mode"],
                w, spec["list_size"], result.config["seed"],
            ])


def write_json(result: SimResult, path):
    doc = {"config_hash": result.config_hash, **result.config,
           "wall_time_s": result.wall_time_s, "points": [asdict(p) for p in result.points]}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)


def code_from_options(block_len, payload_len, crc_len, rate_profile=None,
                      crc_poly=None) -> PolarCode:
    seq = load_sequence(rate_profile) if rate_profile else None
    crc_cfg = None if crc_poly is None else CrcConfig(crc_len, int(str(crc_poly), 0))
    return construct(block_len, payload_len, crc_len, seq=seq, crc_cfg=crc_cfg)
