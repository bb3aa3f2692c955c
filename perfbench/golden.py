#!/usr/bin/env python3
"""Write, or with --check verify, the golden decoder outputs of the workloads.

    python3 perfbench/golden.py [--check] [WORKLOAD ...]

For the default seed and the held-out seed, decodes frames 0..golden_frames-1
of each workload and records, per decoder, the block-error count, a digest of
all decoded payloads in frame order, and a digest of the payload decoded at
each frame in error (every other frame decoded to its transmitted payload).
run.py checks each decode it makes against this record. Rewrite it only when
a change is meant to alter decoded bits, and say why.
"""

import bootstrap

bootstrap.prepare()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def record(workload):
    bench = workloads.set_up(workload)
    doc = {"workload": workload.name, "frames": workload.golden_frames, "seeds": {}}
    roles = ((workloads.DEFAULT_SEED, "default"), (workloads.HELD_OUT_SEED, "held-out"))
    for seed, role in roles:
        per_decoder = [{"block_errors": 0, "error_frames": {}} for _ in workload.decoders]
        hashers = [hashlib.sha256() for _ in workload.decoders]
        for frame in range(workload.golden_frames):
            for idx, op in enumerate(bench.decode_frame(seed, frame)):
                if isinstance(op, Exception):
                    raise RuntimeError(f"seed {seed} frame {frame} decoder {idx} raised") from op
                payload = bench.recorders[idx].last
                hashers[idx].update(np.packbits(payload).tobytes())
                if op[0]:
                    per_decoder[idx]["block_errors"] += 1
                    per_decoder[idx]["error_frames"][str(frame)] = workloads.payload_digest(payload)
        for rec, hasher in zip(per_decoder, hashers):
            rec["payload_digest"] = hasher.hexdigest()
        doc["seeds"][str(seed)] = {
            "role": role,
            "decoders": {d.label: rec for d, rec in zip(workload.decoders, per_decoder)},
        }
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed record instead of writing it")
    parser.add_argument("names", nargs="*", metavar="WORKLOAD",
                        help=f"any of {', '.join(sorted(workloads.WORKLOADS))} (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - set(workloads.WORKLOADS)
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(sorted(unknown))}")
    status = 0
    for name in args.names or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        t0 = time.perf_counter()
        doc = record(workload)
        path = workloads.golden_path(workload)
        if args.check:
            with open(path) as fh:
                same = json.load(fh) == doc
            status |= not same
            verdict = "matches" if same else "DIFFERS from"
            print(f"{name}: {verdict} {path.name} ({time.perf_counter() - t0:.1f} s)")
        else:
            path.parent.mkdir(exist_ok=True)
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"{name}: wrote {path.name} ({time.perf_counter() - t0:.1f} s)")
    return status


if __name__ == "__main__":
    sys.exit(main())
