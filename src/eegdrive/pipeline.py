"""Pipeline stages over a fixed workspace layout.

Every stage communicates with its neighbours only through files in the
workspace, and run_all simply calls the stage functions in order. That is
what makes stage-by-stage execution byte-identical to run-all: there is no
in-memory shortcut to diverge from.

Workspace layout under the output directory:

    sessions/<id>/            raw session dirs (simulated or user-supplied)
    work/<id>/preprocessed/   cleaned recording in session-dir format
    work/<id>/preprocess_report.json
    work/<id>/labels/labels_<delta>.csv
    work/<id>/windows/<delta>/{train,test}.{f32,json} + split_stats.json
    work/<id>/runs/<model>_<delta>/{checkpoint.bin,loss.csv,score.json}
    report/                   metrics.csv, summary.csv, confusions, SVG

Per-run seeds derive from (global seed, session id, horizon, purpose), so
adding a session or horizon never disturbs the seeds of unrelated runs.
"""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import RunConfig, derive_seed
from .errors import ConfigError, DataError, EegDriveError
from .ingest import SessionDir, load_recording, load_session, write_session_dir
from .labels import LabeledSamples, label_at_horizon, read_labels_csv, write_labels_csv
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
from .report import RunScore, emit_report, read_run_score, write_run_score
from .session import NS_PER_S, N_CLASSES
from .splitting import build_split, windows_to_arrays
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

    def preprocessed_dir(self, session_id: str) -> Path:
        return self.work_dir(session_id) / PREPROCESSED_DIR

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
    """Clean one session; emits a session-dir copy plus the JSON report."""
    with _stage("preprocess", session_id):
        session = load_session(ws.session_dir(session_id))
        cleaned, report = preprocess_session(session.eeg, cfg.filters, cfg.bad_channels)
        out_dir = ws.preprocessed_dir(session_id)
        write_session_dir(out_dir, dataclasses.replace(session, eeg=cleaned))
        ws.preprocess_report(session_id).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        return out_dir


# ------------------------------------------------------------------ label


def stage_label(cfg: RunConfig, ws: Workspace, session_id: str) -> list[Path]:
    """Label the cleaned recording at every configured horizon.

    Samples within edge_trim_s of either end are dropped here: the
    zero-phase filters corrupt those stretches, so they must never reach
    the windowing stage.
    """
    with _stage("label", session_id):
        session = load_session(ws.preprocessed_dir(session_id))
        ts = session.eeg.timestamps
        trim_ns = int(round(cfg.filters.edge_trim_s * NS_PER_S))
        lo, hi = int(ts[0]) + trim_ns, int(ts[-1]) - trim_ns
        out_dir = ws.labels_csv(session_id, 0).parent
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for delta in cfg.horizons_ms:
            labelled = label_at_horizon(
                ts, session.joystick, cfg.label_rule, delta, cfg.alignment
            )
            keep = (labelled.t_ns >= lo) & (labelled.t_ns <= hi)
            trimmed = LabeledSamples(
                delta_ms=delta,
                indices=labelled.indices[keep],
                t_ns=labelled.t_ns[keep],
                labels=labelled.labels[keep],
            )
            written.append(write_labels_csv(ws.labels_csv(session_id, delta), trimmed))
        return written


# ------------------------------------------------------------------ split


def stage_split(cfg: RunConfig, ws: Workspace, session_id: str) -> None:
    with _stage("split", session_id):
        _, eeg = load_recording(ws.preprocessed_dir(session_id))
        for delta in cfg.horizons_ms:
            labels_path = ws.labels_csv(session_id, delta)
            if not labels_path.is_file():
                raise DataError(f"missing labels file {labels_path}; run label first")
            labelled = read_labels_csv(labels_path, delta, eeg.timestamps)
            ds = build_split(
                labelled, cfg.split, derive_seed(cfg.seed, session_id, delta, "split")
            )
            out_dir = ws.windows_dir(session_id, delta)
            out_dir.mkdir(parents=True, exist_ok=True)
            for partition, windows in (("train", ds.train), ("test", ds.test)):
                if len(windows) == 0:
                    raise DataError(
                        f"delta={delta}: the {partition} partition has no windows: "
                        f"no run of {cfg.split.window_len} gap-free samples "
                        f"(gap_break_ns={cfg.split.gap_break_ns}, "
                        f"n_chunks={cfg.split.n_chunks})"
                    )
                data, labels = windows_to_arrays(eeg.samples, windows)
                write_windows(
                    ws.windows_base(session_id, delta, partition),
                    data,
                    labels.tolist(),
                    delta,
                    partition,
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
            ws.split_stats(session_id, delta).write_text(
                json.dumps(stats, indent=2, sort_keys=True) + "\n"
            )


# ------------------------------------------------------------------ train


def _read_split_stats(path: Path) -> np.ndarray:
    """The pre-oversampling train window counts per class of a split."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and UTF-8
        raise DataError(f"{path}: cannot read split stats: {exc}") from exc
    counts = doc.get("pre_oversample_counts") if isinstance(doc, dict) else None
    if not (
        isinstance(counts, list)
        and len(counts) == N_CLASSES
        and all(type(v) is int and 0 <= v < 2**63 for v in counts)
        and any(counts)
    ):
        raise DataError(
            f"{path}: pre_oversample_counts must be {N_CLASSES} non-negative JSON "
            f"integers, at least one positive; got {counts!r}"
        )
    return np.asarray(counts, dtype=np.int64)


def stage_train(
    cfg: RunConfig, ws: Workspace, session_id: str, delta_ms: int, model_name: str
) -> Path:
    with _stage("train", f"{session_id} delta={delta_ms} model={model_name}"):
        base = ws.windows_base(session_id, delta_ms, "train")
        data, labels = read_windows(base, delta_ms)
        counts = _read_split_stats(ws.split_stats(session_id, delta_ms))
        weights = compute_class_weights(counts)
        n_channels, n_samples = data.shape[1], data.shape[2]
        model = build_model(model_name, n_channels, n_samples)
        seed = derive_seed(cfg.seed, session_id, delta_ms, model_name, "train")
        result = train_model(model, data, labels, weights, cfg.train, seed)

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
        (run_dir / LOSS_FILE).write_text("\n".join(loss_lines) + "\n")
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


def collect_scores(ws: Workspace) -> list[RunScore]:
    scores = []
    work_root = ws.root / WORK_DIR
    if work_root.is_dir():
        for path in sorted(work_root.glob(f"*/runs/*/{SCORE_FILE}")):
            scores.append(read_run_score(path))
    return scores


def stage_report(cfg: RunConfig, ws: Workspace) -> list[Path]:
    with _stage("report", str(ws.report_dir())):
        scores = collect_scores(ws)
        if not scores:
            raise DataError("no evaluation scores found; run eval first")
        return emit_report(scores, ws.report_dir())


# ---------------------------------------------------------------- run-all


def _per_session(args) -> None:
    cfg, root, session_id = args
    ws = Workspace(root)
    stage_preprocess(cfg, ws, session_id)
    stage_label(cfg, ws, session_id)
    stage_split(cfg, ws, session_id)


def _per_run(args) -> None:
    cfg, root, session_id, delta, model = args
    ws = Workspace(root)
    stage_train(cfg, ws, session_id, delta, model)
    stage_eval(cfg, ws, session_id, delta, model)


def _map(fn, items, jobs: int) -> None:
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        for item in items:
            fn(item)
        return
    # the pool starts all its workers at once: never more than the work
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        # list() propagates the first worker exception
        list(pool.map(fn, items))


def run_all(cfg: RunConfig, out_dir: str | Path, jobs: int = 1) -> list[Path]:
    """simulate (if needed) -> preprocess -> label -> split -> train ->
    eval per session, then one aggregated report."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    ws = Workspace(out_dir)
    session_ids = ws.session_ids()
    if not session_ids:
        session_ids = stage_simulate(cfg, ws)
    _map(_per_session, [(cfg, ws.root, sid) for sid in session_ids], jobs)
    runs = [
        (cfg, ws.root, sid, delta, model)
        for sid in session_ids
        for delta in cfg.horizons_ms
        for model in cfg.models
    ]
    _map(_per_run, runs, jobs)
    return stage_report(cfg, ws)
