"""Command-line entry point: one subcommand per pipeline stage.

    acoustok synth    --config cfg.ini         generate a synthetic corpus
    acoustok features --config cfg.ini         extract features from WAV files
    acoustok init     --config cfg.ini         bootstrap initial labels
    acoustok mat      --config cfg.ini         train all levels once
    acoustok mr       --config cfg.ini         one reinforcement round
    acoustok mdnn     --config cfg.ini         train the multi-target network
    acoustok extract  --config cfg.ini         extract bottleneck features
    acoustok iterate  --config cfg.ini         the corpus, then the full loop
    acoustok std      --config cfg.ini         rank documents for the queries
    acoustok eval     --config cfg.ini         score against ground truth
    acoustok viz      --config cfg.ini         emit visualization data

Flags --seed, --out and --iters override the config file.  Every command
writes the settings into the run directory, and every stage appends to the
run manifest and is skipped while the settings and files it read and wrote
are unchanged.  --iteration and --iters are at least 1, mat --round at least
0 and mr --round at least 1.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import pipeline
from .config import PipelineConfig, load_config
from .corpus import AudioError
from .mdnn import MdnnError
from .pipeline import PipelineError, RunContext

# Each subcommand's integer flags as (flag, default, minimum, help).  Every
# flag but iterate's --iters is passed to the stage function, in this order.
_ITERATION = ("--iteration", 1, 1, None)
COMMANDS = {
    "synth": (),
    "features": (),
    "init": (_ITERATION,),
    "mat": (_ITERATION, ("--round", 0, 0, "reinforcement rounds already applied")),
    "mr": (_ITERATION, ("--round", 1, 1, "reinforcement round to run")),
    "mdnn": (_ITERATION,),
    "extract": (_ITERATION,),
    "iterate": (("--iters", None, 1, "override [run] iterations"),),
    "std": (),
    "eval": (),
    "viz": (),
}


def _at_least(minimum: int):
    def integer(text: str) -> int:  # argparse names a failed parse after the function
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="acoustok", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="pipeline config file (INI)")
        p.add_argument("--seed", type=int, help="override [run] seed")
        p.add_argument("--out", help="override [run] out directory")
        for flag, default, minimum, help_text in flags:
            p.add_argument(flag, type=_at_least(minimum), default=default, help=help_text)
    return parser


def make_context(args) -> RunContext:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    overrides = {"seed": args.seed, "out": args.out, "iterations": getattr(args, "iters", None)}
    return RunContext.create(replace(cfg, **{k: v for k, v in overrides.items() if v is not None}))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ctx = make_context(args)
        # looked up on each run, so a wrapper installed on the module is called
        stage = getattr(pipeline, f"cmd_{args.command}")
        stage(ctx, *(getattr(args, flag[2:]) for flag, *_ in COMMANDS[args.command]
                     if flag != "--iters"))
    except (PipelineError, AudioError, MdnnError, ValueError, OSError) as exc:
        print(f"acoustok {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
