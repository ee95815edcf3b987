"""Pipeline stages over a fixed workspace layout.

Every stage communicates with its neighbours only through files in the
workspace, and run_all simply calls the stage functions in order. That is
what makes stage-by-stage execution byte-identical to run-all. Its one
in-memory shortcut cannot diverge: within a session's ``ingest.parse_memo``
block, ``ingest`` hands label and split the columns its CSV writer stored
only while a file's bytes are still those it wrote, and they are exactly
what parsing those bytes gives.

``STAGE_FILES`` is the workspace layout: for each stage, the paths it reads
and writes for one subject, a session or a run, by role. Every stage, run-all
and the CLI take their workspace paths from it. Each fact of a session has
one file: cleaning changes only the samples, so preprocess writes only the
cleaned ``eeg.csv``, which later stages read with the session's own manifest.
Split writes each partition's window blob from blocks of
``splitting.WINDOW_BLOCK`` windows gathered from the float32 recording, so
it never holds a partition's (n, C, S) tensor.
``runs`` owns the run grid: run-all, the train and eval commands and the
report take their (session, horizon, model) runs from it, so the report
reads the scores of exactly those runs. ``subjects`` says which sessions or
runs each stage command runs on, and ``describe`` how errors name them.

Per-run seeds derive from (global seed, session id, horizon, purpose), so
adding a session or horizon never disturbs the seeds of unrelated runs.

Parallelism has two levels, and neither is inside a matrix product:
every process and thread runs numpy's OpenBLAS on one thread. Runs spread
over ``jobs`` worker processes, and within a run the chunks of each
training step spread over ``step_workers`` of the processes the runs
occupy, so that processes x threads fill the usable cores. Neither level
changes a byte of output. Each level imports its machinery when it first
starts: ``multiprocessing`` and ``concurrent.futures`` load only when
``_fork_pool`` forks a pool or a training step starts a helper thread, so
a ``--jobs 1`` run of the linear model loads neither.
"""

from __future__ import annotations

import ctypes
import dataclasses
import itertools
import os
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import RunConfig, derive_seed
from .errors import ConfigError, DataError, EegDriveError
from .ingest import EEG_NAME, JOYSTICK_NAME, MANIFEST_NAME, SessionDir, decode_json
from .ingest import load_recording, load_session
from .ingest import non_integers, parse_memo, write_eeg_csv, write_json, write_replacing
from .labels import label_at_horizon, read_labels_csv, write_labels_csv
from .metrics import confusion_matrix, metrics_from_confusion
from .models.nets import build_model
from .models.trainer import compute_class_weights, load_checkpoint, predict
from .models.trainer import save_checkpoint, train_model
from .preprocess import preprocess_session
from .report import RunScore, clear_report, emit_report, read_run_score, write_run_score
from .session import N_CLASSES
from .splitting import build_split, window_blocks
from .synth import TRUTH_NAME, SynthConfig, simulated_session_id, write_synthetic_session
from .tensorfile import read_windows, window_files, write_windows


def runs(cfg: RunConfig, session_ids: list[str]) -> list[tuple[str, int, str]]:
    """The (session, horizon, model) runs of ``cfg``, session-major."""
    return list(itertools.product(session_ids, cfg.horizons_ms, cfg.models))


# -------------------------------------------------------------------- table


class StageFiles(NamedTuple):
    """One stage's workspace paths for one subject, by role: a name, a
    (name, horizon) pair for a file of each horizon, or the run whose score
    report reads. ``report/`` stands for the files ``report`` names, and a
    window pair's base path for ``tensorfile.window_files``."""

    inputs: dict
    outputs: dict

    def make_parents(self) -> dict:
        """Create the directories the outputs go in; returns the outputs."""
        for path in self.outputs.values():
            path.parent.mkdir(parents=True, exist_ok=True)
        return self.outputs


def _sessions(root: Path) -> Path:
    return Path(root) / "sessions"


def _work(root: Path, session_id: str) -> Path:
    return Path(root) / "work" / session_id


def _simulate_files(cfg: RunConfig, root: Path, session_id: str) -> StageFiles:
    session = _sessions(root) / session_id
    return StageFiles({}, {"manifest": session / MANIFEST_NAME, "raw": session / EEG_NAME,
                           "joystick": session / JOYSTICK_NAME, "truth": session / TRUTH_NAME})


def _preprocess_files(cfg: RunConfig, root: Path, session_id: str) -> StageFiles:
    session = _simulate_files(cfg, root, session_id).outputs
    work = _work(root, session_id)
    return StageFiles({"manifest": session["manifest"], "raw": session["raw"]}, {
        "cleaned": work / "preprocessed" / EEG_NAME, "report": work / "preprocess_report.json"})


def _label_files(cfg: RunConfig, root: Path, session_id: str) -> StageFiles:
    session = _simulate_files(cfg, root, session_id).outputs
    cleaned = _preprocess_files(cfg, root, session_id).outputs["cleaned"]
    labels = _work(root, session_id) / "labels"
    return StageFiles(
        {"manifest": session["manifest"], "cleaned": cleaned, "joystick": session["joystick"]},
        {("labels", d): labels / f"labels_{d}.csv" for d in cfg.horizons_ms})


def _split_horizon(root: Path, session_id: str, delta: int) -> dict:
    """The files split writes for one horizon, by name."""
    windows = _work(root, session_id) / "windows" / str(delta)
    return {"train": windows / "train", "test": windows / "test",
            "stats": windows / "split_stats.json"}


def _split_files(cfg: RunConfig, root: Path, session_id: str) -> StageFiles:
    label = _label_files(cfg, root, session_id)
    recording = {role: label.inputs[role] for role in ("manifest", "cleaned")}
    return StageFiles({**recording, **label.outputs}, {
        (name, d): path for d in cfg.horizons_ms
        for name, path in _split_horizon(root, session_id, d).items()})


def _train_files(cfg: RunConfig, root: Path, run: tuple[str, int, str]) -> StageFiles:
    session_id, delta, model = run
    split = _split_horizon(root, session_id, delta)
    out = _work(root, session_id) / "runs" / f"{model}_{delta}"
    return StageFiles({"windows": split["train"], "stats": split["stats"]},
                      {"checkpoint": out / "checkpoint.bin", "loss": out / "loss.csv"})


def _eval_files(cfg: RunConfig, root: Path, run: tuple[str, int, str]) -> StageFiles:
    checkpoint = _train_files(cfg, root, run).outputs["checkpoint"]
    return StageFiles({"checkpoint": checkpoint, "windows": _split_horizon(root, *run[:2])["test"]},
                      {"score": checkpoint.with_name("score.json")})


def _report_files(cfg: RunConfig, root: Path, session_ids: list[str]) -> StageFiles:
    scores = {run: _eval_files(cfg, root, run).outputs["score"] for run in runs(cfg, session_ids)}
    return StageFiles(scores, {"report": Path(root) / "report"})


#: stage -> its paths as a function of (config, workspace root, subject).
#: The subject is a session id, a ``runs`` entry for train and eval, and the
#: session ids for report.
STAGE_FILES = {
    "simulate": _simulate_files,
    "preprocess": _preprocess_files,
    "label": _label_files,
    "split": _split_files,
    "train": _train_files,
    "eval": _eval_files,
    "report": _report_files,
}


def session_ids(root: Path) -> list[str]:
    """The ids of the workspace's session directories, sorted."""
    sessions = _sessions(root)
    if not sessions.is_dir():
        return []
    return sorted(p.name for p in sessions.iterdir() if p.is_dir())


def select_sessions(root: Path, wanted: list[str] | None = None) -> list[str]:
    """The sessions ``wanted``, by default every one in the workspace; an
    unknown id, or no session at all, is a DataError."""
    known = session_ids(root)
    if not wanted:
        if not known:
            raise DataError(f"no sessions under {_sessions(root)}")
        return known
    missing = sorted(set(wanted) - set(known))
    if missing:
        raise DataError(f"unknown session ids {missing}; have {known}")
    return sorted(set(wanted))


def _simulated(cfg: RunConfig) -> list[SynthConfig]:
    """The simulator's config of each session simulate writes: session i
    uses rng_seed = cfg.synth.rng_seed + i, so a config pins the whole batch."""
    first = cfg.synth.rng_seed
    return [dataclasses.replace(cfg.synth, rng_seed=first + i) for i in range(cfg.n_sessions)]


def subjects(stage: str, cfg: RunConfig, root: Path, wanted: list[str] | None = None) -> list:
    """The subjects the ``stage`` command runs on in the workspace at
    ``root``: the sessions simulate writes; the sessions ``wanted`` (default
    every one) for preprocess, label and split, and their ``runs`` for train
    and eval; for report, one subject, the ids of every session."""
    if stage == "simulate":
        return [simulated_session_id(synth) for synth in _simulated(cfg)]
    ids = select_sessions(root, wanted)
    if stage in ("train", "eval"):
        return runs(cfg, ids)
    return [ids] if stage == "report" else ids


def describe(subject: str | tuple[str, int, str]) -> str:
    """A session id, or a run as ``<id> delta=<d> model=<m>``: how errors
    and the CLI name a subject."""
    if isinstance(subject, str):
        return subject
    session_id, delta, model = subject
    return f"{session_id} delta={delta} model={model}"


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
def _stage(stage: str, subject: str | tuple[str, int, str]):
    """Error context: re-raise this package's errors with stage and subject."""
    try:
        yield
    except EegDriveError as exc:
        exc.args = (f"[{stage}] {describe(subject)}: {exc}",)
        raise


# ---------------------------------------------------------------- simulate


def stage_simulate(cfg: RunConfig, root: Path) -> list[str]:
    """Generate cfg.n_sessions synthetic sessions into the workspace; the
    simulator names each session after its seed."""
    _sessions(root).mkdir(parents=True, exist_ok=True)
    ids = []
    for synth in _simulated(cfg):
        session_id = simulated_session_id(synth)
        out = STAGE_FILES["simulate"](cfg, root, session_id).outputs
        with _stage("simulate", session_id):
            # the simulator's writer makes the session directory
            write_synthetic_session(out["manifest"].parent, synth)
        ids.append(session_id)
    return ids


# ---------------------------------------------------------------- validate


def stage_validate(session_path: Path) -> SessionDir:
    with _stage("validate", str(session_path)):
        return load_session(session_path)


# -------------------------------------------------------------- preprocess


def stage_preprocess(cfg: RunConfig, root: Path, session_id: str) -> None:
    """Clean one session's raw recording, read with its manifest alone;
    emits the cleaned ``eeg.csv`` plus the JSON report."""
    files = STAGE_FILES["preprocess"](cfg, root, session_id)
    with _stage("preprocess", session_id):
        # the only reference to the raw recording is passed on, so it is
        # freed as soon as the filter returns
        cleaned, report = preprocess_session(
            load_recording(files.inputs["manifest"].parent, files.inputs["raw"])[1], cfg.filters
        )
        out = files.make_parents()
        write_eeg_csv(out["cleaned"], cleaned)
        write_json(out["report"], report.to_dict())


# ------------------------------------------------------------------ label


def stage_label(cfg: RunConfig, root: Path, session_id: str) -> None:
    """Label the cleaned recording at every configured horizon under
    ``cfg.label_rule``."""
    files = STAGE_FILES["label"](cfg, root, session_id)
    with _stage("label", session_id):
        # ingest reads the joystick stream at the path the table declares
        session = load_session(files.inputs["manifest"].parent, files.inputs["cleaned"])
        out = files.make_parents()
        for delta in cfg.horizons_ms:
            labelled = label_at_horizon(
                session.eeg.timestamps, session.joystick, cfg.label_rule, delta
            )
            write_labels_csv(out["labels", delta], labelled)


# ------------------------------------------------------------------ split


def stage_split(cfg: RunConfig, root: Path, session_id: str) -> None:
    files = STAGE_FILES["split"](cfg, root, session_id)
    with _stage("split", session_id):
        _, eeg = load_recording(files.inputs["manifest"].parent, files.inputs["cleaned"])
        timestamps = eeg.timestamps
        samples = np.ascontiguousarray(eeg.samples, dtype=np.float32)
        # one copy of the samples, the float32 one, lives through the loop
        # (and, when the recording was recalled, the one ingest stored); it
        # is C-ordered because np.take copies any other array whole per block
        del eeg
        out = files.outputs
        for delta in cfg.horizons_ms:
            labels_path = files.inputs["labels", delta]
            if not labels_path.is_file():
                raise DataError(f"missing labels file {labels_path}; run label first")
            labelled = read_labels_csv(labels_path, timestamps)
            ds = build_split(
                labelled, cfg.split, derive_seed(cfg.seed, session_id, delta, "split")
            )
            stats_path = out["stats", delta]
            stats_path.parent.mkdir(parents=True, exist_ok=True)
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
                    out[partition, delta],
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
    cfg: RunConfig, root: Path, run: tuple[str, int, str], workers: int | None = None
) -> None:
    """Train one run; ``workers`` threads share each step (None: one per
    usable core)."""
    files = STAGE_FILES["train"](cfg, root, run)
    session_id, delta_ms, model_name = run
    with _stage("train", run):
        data, labels = read_windows(files.inputs["windows"], delta_ms)
        counts = _read_split_stats(files.inputs["stats"])
        weights = compute_class_weights(counts)
        n_channels, n_samples = data.shape[1], data.shape[2]
        model = build_model(model_name, n_channels, n_samples)
        seed = derive_seed(cfg.seed, session_id, delta_ms, model_name, "train")
        result = train_model(model, data, labels, weights, cfg.train, seed,
                             workers=step_workers(1) if workers is None else workers)

        out = files.make_parents()
        save_checkpoint(
            out["checkpoint"],
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
        write_replacing(out["loss"], [("\n".join(loss_lines) + "\n").encode()])


# ------------------------------------------------------------------- eval


def stage_eval(cfg: RunConfig, root: Path, run: tuple[str, int, str]) -> RunScore:
    files = STAGE_FILES["eval"](cfg, root, run)
    session_id, delta_ms, model_name = run
    with _stage("eval", run):
        ckpt, base = files.inputs["checkpoint"], files.inputs["windows"]
        model, params, _header = load_checkpoint(ckpt)
        data, labels = read_windows(base, delta_ms)
        if data.shape[1:] != (model.n_channels, model.n_samples):
            raise DataError(f"{window_files(base)[1]}: windows of {data.shape[1]} channels x "
                            f"{data.shape[2]} samples do not fit {ckpt}")
        pred = predict(model, params, data)
        result = metrics_from_confusion(confusion_matrix(labels, pred))
        score = RunScore(
            model=model_name, horizon_ms=delta_ms, run_id=session_id, result=result
        )
        write_run_score(files.make_parents()["score"], score)
        return score


# ----------------------------------------------------------------- report


def _read_score(path: Path, run: tuple[str, int, str]) -> RunScore:
    """The score stored at ``path`` for ``run``; another run's is a DataError."""
    if not path.is_file():
        raise DataError(f"{path}: no score; run eval for this model at this horizon first")
    score = read_run_score(path)
    if (score.run_id, score.horizon_ms, score.model) != run:
        raise DataError(f"{path}: holds the score of {score.model} {score.run_id} "
                        f"delta={score.horizon_ms}, not of this run")
    return score


def stage_report(cfg: RunConfig, root: Path) -> list[Path]:
    """Report every configured run of every session in the workspace."""
    ids = session_ids(root)
    files = STAGE_FILES["report"](cfg, root, ids)
    out = files.outputs["report"]
    with _stage("report", str(out)):
        clear_report(out)  # first, so that a failed report leaves none
        if not ids:
            raise DataError(f"no sessions under {_sessions(root)}")
        scores = [_read_score(path, run) for run, path in files.inputs.items()]
        return emit_report(scores, files.make_parents()["report"])


# ---------------------------------------------------------------- run-all


def _per_session(args) -> None:
    cfg, root, session_id = args
    # ingest stores the parse of each CSV this block writes, so label and
    # split recall the cleaned recording and the labels files while their
    # bytes are unchanged; every entry is dropped when split returns
    with parse_memo():
        stage_preprocess(cfg, root, session_id)
        stage_label(cfg, root, session_id)
        stage_split(cfg, root, session_id)


def _per_run(args) -> None:
    cfg, root, run, workers = args
    stage_train(cfg, root, run, workers)
    stage_eval(cfg, root, run)


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
    over ``jobs`` processes, and each run trains on its process's share of
    the cores: ``step_workers`` of the processes that the runs occupy."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    one_blas_thread()
    root = Path(out_dir)
    ids = session_ids(root) or stage_simulate(cfg, root)
    _map(_per_session, [(cfg, root, sid) for sid in ids], jobs)
    grid = runs(cfg, ids)
    workers = step_workers(min(jobs, len(grid)))
    _map(_per_run, [(cfg, root, run, workers) for run in grid], jobs)
    return stage_report(cfg, root)
