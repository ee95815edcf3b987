"""Command line interface.

Exit codes are part of the contract: 0 success, 2 configuration error,
3 data error, 4 numerical divergence during training. Configuration is
validated before any stage touches data, so a typo in a model name cannot
waste a preprocessing run.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from pathlib import Path

from .config import RunConfig, default_config_json, load_config
from .errors import ConfigError, DataError, TrainingDiverged
from . import pipeline
from .pipeline import describe, one_blas_thread, run_all, stage_report, stage_simulate
from .pipeline import stage_validate, subjects

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

#: Allocations of this many bytes or more never extend the heap.
MMAP_THRESHOLD = 1 << 20
#: Free bytes the heap may keep at its top before it gives them back.
TRIM_THRESHOLD = 64 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters

#: The commands that run one stage on each of its subjects, with their help.
PER_SUBJECT = {
    "preprocess": "filter, re-reference, interpolate",
    "label": "emit per-horizon label files",
    "split": "window and split labelled data",
    "train": "train configured models",
    "eval": "score checkpoints on test windows",
}


def _map_large_arrays() -> None:
    """Keep the heap from growing for an allocation of ``MMAP_THRESHOLD``
    bytes or more, such as a recording-sized array: one that the heap's
    free memory cannot hold gets a memory mapping of its own, returned to
    the system when it is freed.

    By default glibc raises that threshold to the size of each mapped
    block the process frees, so later arrays below it extend the heap, and
    which freed holes they land in decides the peak resident set: one
    run-all read 2 MB apart with nothing changed but the length of its
    workspace path. With the threshold fixed, the heap grows only for
    small objects; it keeps up to ``TRIM_THRESHOLD`` free bytes rather
    than fault pages in and out as they churn. Neither setting changes a
    computed value. Does nothing without glibc's ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="eegdrive",
        description="EEG driving-intention decoding benchmark pipeline",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_session: bool = False):
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--out", type=Path, required=True, help="workspace directory")
        p.add_argument("--seed", type=int, default=None, help="override global seed")
        if needs_session:
            p.add_argument(
                "--session",
                action="append",
                default=None,
                help="session id under <out>/sessions (repeatable; default all)",
            )

    common(sub.add_parser("simulate", help="generate synthetic sessions"))
    val = sub.add_parser("validate", help="check session files against the format")
    val.add_argument("path", type=Path, help="session directory")
    for name, text in PER_SUBJECT.items():
        common(sub.add_parser(name, help=text), True)
    common(sub.add_parser("report", help="aggregate scores into report files"))
    run = sub.add_parser("run-all", help="full pipeline plus report")
    common(run)
    run.add_argument(
        "--jobs",
        type=int,
        default=len(os.sched_getaffinity(0)),
        help="worker processes; each training step spreads over the usable "
        "cores divided by this, at least 1 (default: the cores this process may use)",
    )
    cfg = sub.add_parser("config", help="configuration utilities")
    cfg.add_argument(
        "--print-defaults", action="store_true", help="dump the default JSON config"
    )
    return top


def _load(args) -> RunConfig:
    cfg = load_config(getattr(args, "config", None))
    seed = getattr(args, "seed", None)
    if seed is not None:
        import dataclasses

        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    one_blas_thread()
    _map_large_arrays()
    try:
        if args.command == "config":
            if args.print_defaults:
                print(default_config_json())
            return EXIT_OK
        if args.command == "validate":
            session = stage_validate(args.path)
            print(
                f"ok: {session.session_id}: "
                f"{session.eeg.n_channels} channels, "
                f"{session.eeg.n_samples} samples, "
                f"{len(session.joystick.t_ns)} joystick rows"
            )
            return EXIT_OK

        cfg = _load(args)

        if args.command == "simulate":
            ids = stage_simulate(cfg, args.out)
            print(f"wrote {len(ids)} sessions: {', '.join(ids)}")
        elif args.command in PER_SUBJECT:
            for subject in subjects(args.command, cfg, args.out, args.session):
                # looked up per call, so a wrapper installed on the module runs
                getattr(pipeline, f"stage_{args.command}")(cfg, args.out, subject)
                print(f"{args.command} {describe(subject)}")
        elif args.command == "report":
            for path in stage_report(cfg, args.out):
                print(f"wrote {path}")
        elif args.command == "run-all":
            for path in run_all(cfg, args.out, jobs=args.jobs):
                print(f"wrote {path}")
        else:  # pragma: no cover - argparse enforces choices
            raise ConfigError(f"unknown command {args.command!r}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
