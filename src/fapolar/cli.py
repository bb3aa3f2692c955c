"""Command line front end: design LUT sets, simulate BLER, inspect schedules.

Exit codes: 0 success, 2 configuration/usage error, 3 I/O error.
"""

import argparse
import json
import sys
from functools import partial

from .codes import CodeConstructionError
from .lutdesign import LutDesignError, design_lutset, load_lutset, save_lutset
from .sim import DecoderSpec, code_from_options, sweep, write_csv, write_json
from .tree import LUT_VARIANTS, build_tree, dump_schedule, parse_kinds, schedule_text

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
SCHEDULE_HELP = '"sc", "fast" (all special nodes, the default) or the nodes to prune, e.g. "r0,rep"'


def _schedule(text):
    """--schedule's type: argparse then prints ``parse_kinds``' own reason."""
    try:
        return parse_kinds(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_code_options(parser, required=True):
    parser.add_argument("--n", type=int, required=required, help="block length (power of two)")
    parser.add_argument("--k", type=int, required=required, help="payload bits")
    parser.add_argument("--crc", type=int, default=0, help="CRC bits (default 0)")
    parser.add_argument("--rate-profile", default=None, metavar="FILE",
                        help="reliability sequence file (default: packaged 5G NR sequence)")
    parser.add_argument("--crc-poly", default=None, metavar="HEX",
                        help="CRC polynomial, e.g. 0x1021 (default: CCITT family)")


def _cmd_tree(args):
    code = code_from_options(args.n, args.k, args.crc, args.rate_profile,
                             args.crc_poly)
    tree = build_tree(code, args.schedule)
    print("i_v\td\tkind\tN_v\tspan_start")
    for row in dump_schedule(tree):
        print("\t".join(str(v) for v in row))
    return EXIT_OK


def _cmd_tables(args):
    lutset = load_lutset(args.lut)
    decoding, translation = lutset.table_counts()
    print(f"variant {lutset.variant}, w={lutset.w}, "
          f"N={lutset.block_len}, K={lutset.payload_len}, CRC={lutset.crc_len}")
    print(f"decoding {decoding}, translation {translation}")
    return EXIT_OK


def _cmd_design(args):
    code = code_from_options(args.n, args.k, args.crc, args.rate_profile,
                             args.crc_poly)
    tree = build_tree(code, args.schedule)
    lutset = design_lutset(code, tree, args.variant, args.ebn0, args.w)
    save_lutset(lutset, args.out)
    decoding, translation = lutset.table_counts()
    print(f"wrote {args.out}: decoding {decoding}, translation {translation}")
    return EXIT_OK


def _config_value(action, key, value):
    """Convert a --config value as argparse converts the same option's text."""
    if value is None and action.default is None:
        return None
    try:
        value = (action.type or str)(str(value))
    except (ValueError, argparse.ArgumentTypeError):
        raise ValueError(f"config key {key!r}: invalid value {value!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {key!r}: {value!r} is not one of {action.choices}")
    return value


def _cmd_simulate(args, parser):
    if args.config:
        with open(args.config) as fh:
            overrides = json.load(fh)
        if type(overrides) is not dict:
            raise ValueError(f"--config must hold a JSON object, got {type(overrides).__name__}")
        actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
        for key, value in overrides.items():
            action = actions.get(key.replace("-", "_"))
            if action is None:
                raise ValueError(f"unknown config key {key!r}")
            setattr(args, action.dest, _config_value(action, key, value))
    # read once: it may give the code, and the decoder uses the same set
    lutset = load_lutset(args.lut) if args.lut else None
    if args.n is None or args.k is None:
        if lutset is None:
            raise ValueError("--n and --k are required (or use --lut / --config)")
        args.n = lutset.block_len
        args.k = lutset.payload_len
        args.crc = lutset.crc_len
    code = code_from_options(args.n, args.k, args.crc, args.rate_profile,
                             args.crc_poly)
    family = args.decoder or (lutset.variant if lutset is not None else "llr")
    spec = DecoderSpec(family, schedule_text(args.schedule), args.metric, args.list,
                       lut_path=args.lut or "")
    points = [float(tok) for tok in str(args.ebn0_list).split(",") if tok != ""]
    result = sweep(code, spec, points, seed=args.seed, max_frames=args.max_frames,
                   min_errors=args.min_errors, workers=args.workers, lutset=lutset)
    if args.out:
        write_csv(result, args.out)
    if args.json_out:
        write_json(result, args.json_out)
    for p in result.points:
        print(f"{p.ebn0_db:g} dB: bler {p.bler:.4g} ({p.block_errors}/{p.frames})")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="fapolar",
                                     description="polar code list decoding toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tree = sub.add_parser("tree", help="print the pruned decode schedule as TSV")
    _add_code_options(p_tree)
    p_tree.add_argument("--schedule", type=_schedule, default="fast", help=SCHEDULE_HELP)
    p_tree.set_defaults(func=_cmd_tree)

    p_tables = sub.add_parser("tables", help="print table counts of a LUT file")
    p_tables.add_argument("--lut", required=True, metavar="FILE")
    p_tables.set_defaults(func=_cmd_tables)

    p_design = sub.add_parser("design", help="design a LUT set offline")
    _add_code_options(p_design)
    p_design.add_argument("--variant", choices=LUT_VARIANTS, required=True)
    p_design.add_argument("--schedule", type=_schedule, default="fast", help=SCHEDULE_HELP)
    p_design.add_argument("--ebn0", type=float, required=True,
                          help="design Eb/N0 in dB")
    p_design.add_argument("--w", type=int, default=4, help="message bit width")
    p_design.add_argument("--out", required=True, metavar="FILE")
    p_design.set_defaults(func=_cmd_design)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo BLER sweep")
    p_sim.add_argument("--config", default=None, metavar="FILE",
                       help="JSON file with any of the other options")
    _add_code_options(p_sim, required=False)  # or from --lut / --config
    p_sim.add_argument("--decoder", choices=("llr", *LUT_VARIANTS),
                       help="decoder family (default: the --lut set's variant, else llr)")
    p_sim.add_argument("--lut", default=None, metavar="FILE")
    p_sim.add_argument("--schedule", type=_schedule, default="fast", help=SCHEDULE_HELP)
    p_sim.add_argument("--metric", choices=("exact", "approx"), default="approx")
    p_sim.add_argument("--list", type=int, default=8)
    p_sim.add_argument("--ebn0-list", default="", help="comma separated dB values")
    p_sim.add_argument("--max-frames", type=int, default=10000)
    p_sim.add_argument("--min-errors", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--out", default=None, metavar="CSV")
    p_sim.add_argument("--json-out", default=None, metavar="JSON")
    p_sim.set_defaults(func=partial(_cmd_simulate, parser=p_sim))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CodeConstructionError, LutDesignError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
