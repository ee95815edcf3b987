"""Pipeline stages over a fixed workspace layout.

Every stage communicates with its neighbours only through files in the
workspace, and run_all simply calls the stage functions in order. That is
what makes stage-by-stage execution byte-identical to run-all. Its one
in-memory shortcut cannot diverge: within a session's ``ingest.parse_memo``
block, ``ingest`` hands label and split the columns its CSV writer stored
only while a file's bytes are still those it wrote, and they are exactly
what parsing those bytes gives. Each fact of a session has one
file: cleaning changes only the samples, so preprocess writes only the
cleaned ``eeg.csv``, and label and split read it with the session's own
manifest, label also with the session's own joystick stream, which no other
stage reads: preprocess reads the raw recording with its manifest alone,
and lets it go as soon as the filter returns.
Split writes each partition's window blob from blocks of
``splitting.WINDOW_BLOCK`` windows gathered from the float32 recording, so
it never holds a partition's (n, C, S) tensor.
``runs`` owns the run grid: run-all, the train and eval commands and the
report take their (session, horizon, model) runs from it, so the report
reads the scores of exactly those runs.

Workspace layout under the output directory:

    sessions/<id>/            raw session dirs (simulated or user-supplied)
    work/<id>/preprocessed/eeg.csv   cleaned samples, in eeg.csv format
    work/<id>/preprocess_report.json
    work/<id>/labels/labels_<delta>.csv
    work/<id>/windows/<delta>/{train,test}.{f32,json} + split_stats.json
    work/<id>/runs/<model>_<delta>/{checkpoint.bin,loss.csv,score.json}
    report/                   metrics.csv, summary.csv, confusions, SVG

Per-run seeds derive from (global seed, session id, horizon, purpose), so
adding a session or horizon never disturbs the seeds of unrelated runs.

Parallelism has two levels, and neither is inside a matrix product:
every process and thread runs numpy's OpenBLAS on one thread. Runs spread
over ``jobs`` worker processes, and within a run the chunks of each
training step spread over ``step_workers(jobs)`` threads, so that jobs x
threads fill the usable cores. Neither level changes a byte of output.
Each level imports its machinery when it first starts: ``multiprocessing``
and ``concurrent.futures`` load only when ``_fork_pool`` forks a pool or a
training step starts a helper thread, so a ``--jobs 1`` run of the linear
model loads neither.
"""

from __future__ import annotations

import ctypes
import dataclasses
import itertools
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import RunConfig, derive_seed
from .errors import ConfigError, DataError, EegDriveError
from .ingest import EEG_NAME, SessionDir, decode_json, load_recording, load_session
from .ingest import non_integers, parse_memo, write_eeg_csv, write_json, write_replacing
from .labels import label_at_horizon, read_labels_csv, write_labels_csv
from .metrics import confusion_matrix, metrics_from_confusion
from .models import (
    build_model,
    compute_class_weights,
    load_checkpoint,
    predict,
    save_checkpoint,
    train_model,
)
from .preprocess import preprocess_session
from .report import RunScore, clear_report, emit_report, read_run_score, write_run_score
from .session import N_CLASSES
from .splitting import build_split, window_blocks
from .synth import write_synthetic_session
from .tensorfile import read_windows, write_windows

SESSIONS_DIR = "sessions"
WORK_DIR = "work"
REPORT_DIR = "report"
PREPROCESSED_DIR = "preprocessed"
PREPROCESS_REPORT = "preprocess_report.json"
SPLIT_STATS = "split_stats.json"
CHECKPOINT_FILE = "checkpoint.bin"
LOSS_FILE = "loss.csv"
SCORE_FILE = "score.json"


class Workspace:
    """Path arithmetic for one output directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def sessions_root(self) -> Path:
        return self.root / SESSIONS_DIR

    def session_dir(self, session_id: str) -> Path:
        return self.sessions_root() / session_id

    def session_ids(self) -> list[str]:
        root = self.sessions_root()
        if not root.is_dir():
            return []
        return sorted(p.name for p in root.iterdir() if p.is_dir())

    def work_dir(self, session_id: str) -> Path:
        return self.root / WORK_DIR / session_id

    def preprocessed_eeg(self, session_id: str) -> Path:
        return self.work_dir(session_id) / PREPROCESSED_DIR / EEG_NAME

    def preprocess_report(self, session_id: str) -> Path:
        return self.work_dir(session_id) / PREPROCESS_REPORT

    def labels_csv(self, session_id: str, delta_ms: int) -> Path:
        return self.work_dir(session_id) / "labels" / f"labels_{delta_ms}.csv"

    def windows_dir(self, session_id: str, delta_ms: int) -> Path:
        return self.work_dir(session_id) / "windows" / str(delta_ms)

    def windows_base(self, session_id: str, delta_ms: int, partition: str) -> Path:
        return self.windows_dir(session_id, delta_ms) / partition

    def split_stats(self, session_id: str, delta_ms: int) -> Path:
        return self.windows_dir(session_id, delta_ms) / SPLIT_STATS

    def run_dir(self, session_id: str, delta_ms: int, model: str) -> Path:
        return self.work_dir(session_id) / "runs" / f"{model}_{delta_ms}"

    def report_dir(self) -> Path:
        return self.root / REPORT_DIR


def runs(cfg: RunConfig, session_ids: list[str]) -> list[tuple[str, int, str]]:
    """The (session, horizon, model) runs of ``cfg``, session-major."""
    return list(itertools.product(session_ids, cfg.horizons_ms, cfg.models))


def one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread in this process.

    A matrix product's reduction order, and so every checkpoint and loss
    curve, depends on OpenBLAS's thread count; one thread makes them
    independent of the environment. Does nothing when numpy is built on
    another BLAS.
    """
    set_threads = getattr(_numpy_blas(), "scipy_openblas_set_num_threads64_", None)
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def step_workers(jobs: int) -> int:
    """Threads per training step when ``jobs`` processes share the cores
    this process may use: their share, and at least one."""
    return max(1, len(os.sched_getaffinity(0)) // jobs)


def _numpy_blas() -> ctypes.CDLL:
    """numpy's linear-algebra extension; symbol lookups through this handle
    also search the BLAS library it links."""
    return ctypes.CDLL(np.linalg._umath_linalg.__file__)


@contextmanager
def _stage(stage: str, detail: str):
    """Error context: re-raise this package's errors with stage and subject."""
    try:
        yield
    except EegDriveError as exc:
        exc.args = (f"[{stage}] {detail}: {exc}",)
        raise


# ---------------------------------------------------------------- simulate


def stage_simulate(cfg: RunConfig, ws: Workspace) -> list[str]:
    """Generate cfg.n_sessions synthetic sessions into sessions/.

    Session i uses rng_seed = cfg.synth.rng_seed + i so a config pins the
    whole batch; the simulator names each session after its seed.
    """
    ws.sessions_root().mkdir(parents=True, exist_ok=True)
    ids = []
    for i in range(cfg.n_sessions):
        seed = cfg.synth.rng_seed + i
        session_id = f"synth-{seed:04d}"
        with _stage("simulate", session_id):
            write_synthetic_session(
                ws.session_dir(session_id), dataclasses.replace(cfg.synth, rng_seed=seed)
            )
        ids.append(session_id)
    return ids


# ---------------------------------------------------------------- validate


def stage_validate(session_path: Path) -> SessionDir:
    with _stage("validate", str(session_path)):
        return load_session(session_path)


# -------------------------------------------------------------- preprocess


def stage_preprocess(cfg: RunConfig, ws: Workspace, session_id: str) -> Path:
    """Clean one session's raw recording, read with its manifest alone;
    emits the cleaned ``eeg.csv`` plus the JSON report."""
    with _stage("preprocess", session_id):
        # the only reference to the raw recording is passed on, so it is
        # freed as soon as the filter returns
        cleaned, report = preprocess_session(
            load_recording(ws.session_dir(session_id))[1], cfg.filters
        )
        out = ws.preprocessed_eeg(session_id)
        out.parent.mkdir(parents=True, exist_ok=True)
        write_eeg_csv(out, cleaned)
        write_json(ws.preprocess_report(session_id), report.to_dict())
        return out


# ------------------------------------------------------------------ label


def stage_label(cfg: RunConfig, ws: Workspace, session_id: str) -> list[Path]:
    """Label the cleaned recording at every configured horizon under
    ``cfg.label_rule``."""
    with _stage("label", session_id):
        session = load_session(ws.session_dir(session_id), ws.preprocessed_eeg(session_id))
        ws.labels_csv(session_id, 0).parent.mkdir(parents=True, exist_ok=True)
        written = []
        for delta in cfg.horizons_ms:
            labelled = label_at_horizon(
                session.eeg.timestamps, session.joystick, cfg.label_rule, delta
            )
            written.append(write_labels_csv(ws.labels_csv(session_id, delta), labelled))
        return written


# ------------------------------------------------------------------ split


def stage_split(cfg: RunConfig, ws: Workspace, session_id: str) -> None:
    with _stage("split", session_id):
        _, eeg = load_recording(ws.session_dir(session_id), ws.preprocessed_eeg(session_id))
        timestamps = eeg.timestamps
        samples = np.ascontiguousarray(eeg.samples, dtype=np.float32)
        # one copy of the samples, the float32 one, lives through the loop
        # (and, when the recording was recalled, the one ingest stored); it
        # is C-ordered because np.take copies any other array whole per block
        del eeg
        for delta in cfg.horizons_ms:
            labels_path = ws.labels_csv(session_id, delta)
            if not labels_path.is_file():
                raise DataError(f"missing labels file {labels_path}; run label first")
            labelled = read_labels_csv(labels_path, timestamps)
            ds = build_split(
                labelled, cfg.split, derive_seed(cfg.seed, session_id, delta, "split")
            )
            out_dir = ws.windows_dir(session_id, delta)
            out_dir.mkdir(parents=True, exist_ok=True)
            stats_path = ws.split_stats(session_id, delta)
            stats_path.unlink(missing_ok=True)  # written last, so never stale
            for partition, windows in (("train", ds.train), ("test", ds.test)):
                if len(windows) == 0:
                    raise DataError(
                        f"delta={delta}: the {partition} partition has no windows: "
                        f"no run of {cfg.split.window_len} gap-free samples "
                        f"(gap_break_ns={cfg.split.gap_break_ns}, "
                        f"n_chunks={cfg.split.n_chunks})"
                    )
                write_windows(
                    ws.windows_base(session_id, delta, partition),
                    window_blocks(samples, windows),
                    windows.labels.tolist(),
                    delta,
                )
            stats = {
                "session_id": session_id,
                "delta_ms": delta,
                "pre_oversample_counts": [int(v) for v in ds.pre_oversample_counts],
                "absent_classes": [int(v) for v in ds.absent_classes],
                "n_train": len(ds.train),
                "n_test": len(ds.test),
                "train_histogram": np.bincount(
                    ds.train.labels, minlength=N_CLASSES
                ).tolist(),
                "test_histogram": np.bincount(
                    ds.test.labels, minlength=N_CLASSES
                ).tolist(),
            }
            write_json(stats_path, stats)


# ------------------------------------------------------------------ train


def _read_split_stats(path: Path) -> np.ndarray:
    """The pre-oversampling train window counts per class of a split."""
    doc = decode_json(path, "cannot read split stats")
    counts = doc.get("pre_oversample_counts") if isinstance(doc, dict) else None
    if not (
        isinstance(counts, list)
        and len(counts) == N_CLASSES
        and not non_integers(counts, 0, 2**63)
        and any(counts)
    ):
        raise DataError(
            f"{path}: pre_oversample_counts must be {N_CLASSES} non-negative JSON "
            f"integers, at least one positive; got {counts!r}"
        )
    return np.asarray(counts, dtype=np.int64)


def stage_train(
    cfg: RunConfig, ws: Workspace, session_id: str, delta_ms: int, model_name: str,
    workers: int | None = None,
) -> Path:
    """Train one run; ``workers`` threads share each step (None: one per
    usable core)."""
    with _stage("train", f"{session_id} delta={delta_ms} model={model_name}"):
        base = ws.windows_base(session_id, delta_ms, "train")
        data, labels = read_windows(base, delta_ms)
        counts = _read_split_stats(ws.split_stats(session_id, delta_ms))
        weights = compute_class_weights(counts)
        n_channels, n_samples = data.shape[1], data.shape[2]
        model = build_model(model_name, n_channels, n_samples)
        seed = derive_seed(cfg.seed, session_id, delta_ms, model_name, "train")
        result = train_model(model, data, labels, weights, cfg.train, seed,
                             workers=step_workers(1) if workers is None else workers)

        run_dir = ws.run_dir(session_id, delta_ms, model_name)
        run_dir.mkdir(parents=True, exist_ok=True)
        ckpt = run_dir / CHECKPOINT_FILE
        save_checkpoint(
            ckpt,
            model,
            result.params,
            extra={
                "session_id": session_id,
                "delta_ms": delta_ms,
                "model": model_name,
                "rng_seed": seed,
            },
        )
        loss_lines = ["epoch,mean_loss"]
        loss_lines += [
            f"{i},{format(loss, '.12g')}" for i, loss in enumerate(result.epoch_losses)
        ]
        write_replacing(run_dir / LOSS_FILE, [("\n".join(loss_lines) + "\n").encode()])
        return ckpt


# ------------------------------------------------------------------- eval


def stage_eval(
    cfg: RunConfig, ws: Workspace, session_id: str, delta_ms: int, model_name: str
) -> RunScore:
    with _stage("eval", f"{session_id} delta={delta_ms} model={model_name}"):
        run_dir = ws.run_dir(session_id, delta_ms, model_name)
        ckpt = run_dir / CHECKPOINT_FILE
        model, params, _header = load_checkpoint(ckpt)
        base = ws.windows_base(session_id, delta_ms, "test")
        data, labels = read_windows(base, delta_ms)
        if data.shape[1:] != (model.n_channels, model.n_samples):
            raise DataError(f"{base}.json: windows of {data.shape[1]} channels x "
                            f"{data.shape[2]} samples do not fit {ckpt}")
        pred = predict(model, params, data)
        result = metrics_from_confusion(confusion_matrix(labels, pred))
        score = RunScore(
            model=model_name, horizon_ms=delta_ms, run_id=session_id, result=result
        )
        write_run_score(run_dir / SCORE_FILE, score)
        return score


# ----------------------------------------------------------------- report


def _read_score(ws: Workspace, session_id: str, delta_ms: int, model_name: str) -> RunScore:
    """The score stored for one run; a score of another run is a DataError."""
    path = ws.run_dir(session_id, delta_ms, model_name) / SCORE_FILE
    if not path.is_file():
        raise DataError(f"{path}: no score; run eval for this model at this horizon first")
    score = read_run_score(path)
    if (score.run_id, score.horizon_ms, score.model) != (session_id, delta_ms, model_name):
        raise DataError(f"{path}: holds the score of {score.model} {score.run_id} "
                        f"delta={score.horizon_ms}, not of this run")
    return score


def stage_report(cfg: RunConfig, ws: Workspace) -> list[Path]:
    """Report every configured run of every session in the workspace."""
    with _stage("report", str(ws.report_dir())):
        clear_report(ws.report_dir())
        session_ids = ws.session_ids()
        if not session_ids:
            raise DataError(f"no sessions under {ws.sessions_root()}")
        scores = [_read_score(ws, *run) for run in runs(cfg, session_ids)]
        return emit_report(scores, ws.report_dir())


# ---------------------------------------------------------------- run-all


def _per_session(args) -> None:
    cfg, root, session_id = args
    ws = Workspace(root)
    # ingest stores the parse of each CSV this block writes, so label and
    # split recall the cleaned recording and the labels files while their
    # bytes are unchanged; every entry is dropped when split returns
    with parse_memo():
        stage_preprocess(cfg, ws, session_id)
        stage_label(cfg, ws, session_id)
        stage_split(cfg, ws, session_id)


def _per_run(args) -> None:
    cfg, root, session_id, delta, model, workers = args
    ws = Workspace(root)
    stage_train(cfg, ws, session_id, delta, model, workers)
    stage_eval(cfg, ws, session_id, delta, model)


def _fork_pool(max_workers: int, initializer):
    """A pool of ``max_workers`` forked processes, each running
    ``initializer`` first. ``multiprocessing`` and ``concurrent.futures``
    are imported here, so a process that never forks a pool loads
    neither."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=initializer,
    )


def _map(fn, items, jobs: int) -> None:
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        for item in items:
            fn(item)
        return
    # the pool starts all its workers at once: never more than the work.
    # Forked workers inherit the loaded modules, and any wrappers installed
    # on their functions (the benchmark's span tracer relies on that). No
    # thread outlives train_model, so each fork copies a one-thread process.
    with _fork_pool(min(jobs, len(items)), one_blas_thread) as pool:
        # list() propagates the first worker exception
        list(pool.map(fn, items))


def run_all(cfg: RunConfig, out_dir: str | Path, jobs: int = 1) -> list[Path]:
    """simulate (if needed) -> preprocess -> label -> split -> train ->
    eval per session, then one aggregated report. Sessions and runs spread
    over ``jobs`` processes, and each run trains on ``step_workers(jobs)``
    threads."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    one_blas_thread()
    ws = Workspace(out_dir)
    session_ids = ws.session_ids()
    if not session_ids:
        session_ids = stage_simulate(cfg, ws)
    _map(_per_session, [(cfg, ws.root, sid) for sid in session_ids], jobs)
    workers = step_workers(jobs)
    _map(_per_run, [(cfg, ws.root, *run, workers) for run in runs(cfg, session_ids)], jobs)
    return stage_report(cfg, ws)
