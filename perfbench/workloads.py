"""Workloads of the fapolar benchmark, their set-up, and their golden records.

Every workload is a closed loop over frames of one code: frame f of seed s is
generated by ``sim.run_frames`` from ``default_rng((s, f))`` (BPSK over
AWGN), decoded, CA-selected and compared with its payload, and frame f + 1
starts only when that is done. Library functions are looked up through their
modules at call time, so the tracing hooks in ``tracing.py`` see every call.
"""

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fapolar import codes, lutdesign, sim, tree

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DEFAULT_SEED = 0
HELD_OUT_SEED = 1
LUT_W = 4


@dataclass(frozen=True)
class DecoderDef:
    label: str
    family: str     # llr | ib | msib
    schedule: str   # sc | fast
    metric: str     # exact | approx


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    block_len: int
    payload_len: int
    crc_len: int
    list_size: int
    ebn0_db: float
    design_db: float       # LUT design Eb/N0, fast tree, w = LUT_W (unused without LUTs)
    decoders: tuple        # every frame is decoded by each, in order
    golden_frames: int     # frames per seed in the golden record
    warmup_frames: int     # default-seed frames decoded and checked before timing


WORKLOADS = {w.name: w for w in (
    Workload(
        "sc-exact-n1024-l32",
        "criterion-9 paper point: float CA-SCL, exact metric, unpruned schedule; "
        "path-state copies and arith f/g dominate, no LUT or constituent decoders",
        1024, 512, 16, 32, 2.0, 0.0,
        (DecoderDef("sc-exact", "llr", "sc", "exact"),),
        golden_frames=240, warmup_frames=2,
    ),
    Workload(
        "fast-msib-n1024-l32",
        "headline 4-bit MSIB decoder on the fast tree: quantizer, g-table lookups, "
        "index-rule f, constituent leaves; LUT design DP in set-up",
        1024, 512, 16, 32, 2.0, 0.5,
        (DecoderDef("fast-msib", "msib", "fast", "approx"),),
        golden_frames=1600, warmup_frames=8,
    ),
    Workload(
        "crit8-mix-n256-l8",
        "criterion-8 traffic: each short frame through SC exact/approx, fast float, "
        "MSIB and IB; frame generation, CRC and per-call overhead weigh in",
        256, 128, 16, 8, 2.25, 2.0,
        (DecoderDef("sc-exact", "llr", "sc", "exact"),
         DecoderDef("sc-approx", "llr", "sc", "approx"),
         DecoderDef("fast-float", "llr", "fast", "approx"),
         DecoderDef("fast-msib", "msib", "fast", "approx"),
         DecoderDef("fast-ib", "ib", "fast", "approx")),
        golden_frames=1100, warmup_frames=6,
    ),
)}


class Recorder:
    """Decoder handed to run_frames: forwards the call and keeps the payload."""

    def __init__(self, decoder):
        self.decoder = decoder
        self.last = None

    def __call__(self, y_real, sigma):
        self.last = self.decoder(y_real, sigma)
        return self.last


class Bench:
    """A workload after set-up: the code, the channel and one recorder per decoder."""

    def __init__(self, workload: Workload, code, decoders):
        self.workload = workload
        self.code = code
        self.channel = sim.ChannelModel(workload.ebn0_db, code.rate)
        self.recorders = [Recorder(d) for d in decoders]

    def decode_frame(self, seed: int, frame: int):
        """One closed-loop step: per decoder, (block_error, payload or None).

        The payload is kept only for block errors; a correct decode equals the
        transmitted payload. A decoder that raises yields the exception.
        """
        out = []
        for rec in self.recorders:
            try:
                err = sim.run_frames(self.code, rec, self.channel, seed,
                                     range(frame, frame + 1))
            except Exception as exc:  # counted as a failed operation, run goes on
                out.append(exc)
                continue
            out.append((err, rec.last if err else None))
        return out


def set_up(workload: Workload) -> Bench:
    """construct + build_tree + design_lutset + FrameDecoder, as a sweep does."""
    code = codes.construct(workload.block_len, workload.payload_len, workload.crc_len)
    variants = sorted({d.family for d in workload.decoders if d.family != "llr"})
    lutsets = {}
    if variants:
        fast = tree.build_tree(code)
        for variant in variants:
            lutsets[variant] = lutdesign.design_lutset(
                code, fast, variant, workload.design_db, LUT_W)
    decoders = []
    for d in workload.decoders:
        spec = sim.DecoderSpec(d.family, d.schedule, d.metric, workload.list_size,
                               lut_path="(in-memory)" if d.family != "llr" else "")
        decoders.append(sim.FrameDecoder(code, spec, lutset=lutsets.get(d.family)))
    return Bench(workload, code, decoders)


def payload_digest(payload) -> str:
    return hashlib.sha256(np.packbits(np.asarray(payload, dtype=np.uint8)).tobytes()).hexdigest()[:16]


def golden_path(workload: Workload) -> Path:
    return GOLDEN_DIR / f"{workload.name}.json"


class Golden:
    """Committed decoder outputs: per seed and decoder, the frames in error and
    the digest of what was decoded there. Every other frame decoded to its
    transmitted payload."""

    def __init__(self, workload: Workload):
        with open(golden_path(workload)) as fh:
            doc = json.load(fh)
        if doc["workload"] != workload.name:
            raise ValueError(f"golden file holds {doc['workload']!r}, not {workload.name!r}")
        self.frames = doc["frames"]
        self.labels = [d.label for d in workload.decoders]
        self.seeds = {int(s): rec["decoders"] for s, rec in doc["seeds"].items()}

    def covers(self, seed: int, frame: int) -> bool:
        return seed in self.seeds and frame < self.frames

    def matches(self, seed: int, frame: int, idx: int, err: int, payload) -> bool:
        errors = self.seeds[seed][self.labels[idx]]["error_frames"]
        expect = errors.get(str(frame))
        if not err:
            return expect is None
        return expect == payload_digest(payload)
