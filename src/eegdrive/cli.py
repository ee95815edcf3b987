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
from .pipeline import (
    one_blas_thread,
    run_all,
    runs,
    select_sessions,
    stage_eval,
    stage_label,
    stage_preprocess,
    stage_report,
    stage_simulate,
    stage_split,
    stage_train,
    stage_validate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

#: Allocations of this many bytes or more never extend the heap.
MMAP_THRESHOLD = 1 << 20
#: Free bytes the heap may keep at its top before it gives them back.
TRIM_THRESHOLD = 64 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


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
    common(sub.add_parser("preprocess", help="filter, re-reference, interpolate"), True)
    common(sub.add_parser("label", help="emit per-horizon label files"), True)
    common(sub.add_parser("split", help="window and split labelled data"), True)
    common(sub.add_parser("train", help="train configured models"), True)
    common(sub.add_parser("eval", help="score checkpoints on test windows"), True)
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
        elif args.command == "preprocess":
            for sid in select_sessions(args.out, args.session):
                stage_preprocess(cfg, args.out, sid)
                print(f"preprocessed {sid}")
        elif args.command == "label":
            for sid in select_sessions(args.out, args.session):
                stage_label(cfg, args.out, sid)
                print(f"labelled {sid} at horizons {list(cfg.horizons_ms)}")
        elif args.command == "split":
            for sid in select_sessions(args.out, args.session):
                stage_split(cfg, args.out, sid)
                print(f"split {sid}")
        elif args.command == "train":
            for sid, delta, model in runs(cfg, select_sessions(args.out, args.session)):
                stage_train(cfg, args.out, (sid, delta, model))
                print(f"trained {model} {sid} delta={delta}")
        elif args.command == "eval":
            for sid, delta, model in runs(cfg, select_sessions(args.out, args.session)):
                score = stage_eval(cfg, args.out, (sid, delta, model))
                print(
                    f"eval {model} {sid} delta={delta} "
                    f"macro_f1={score.result.macro_f1:.4f}"
                )
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
