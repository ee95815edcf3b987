"""Correctness checks on a finished run-all workspace.

Every check reads the workspace files and recomputes its expectation with
code of its own, or tests a property the method must have; none of it
imports eegdrive. Each check returns a list of failure messages, empty when
the workspace passes.
"""

from __future__ import annotations

import filecmp
import json
import os
from pathlib import Path

import numpy as np

NS_PER_MS = 1_000_000
FORWARD, REVERSE, LEFT, RIGHT, STOP = range(5)


def read_joystick(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    return (
        np.array([r["t_ns"] for r in rows], dtype=np.int64),
        np.array([r["vx"] for r in rows], dtype=np.float64),
        np.array([r["wz"] for r in rows], dtype=np.float64),
    )


def read_recording(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(timestamps int64, samples (C, T) float64) from a session eeg.csv."""
    with path.open() as fh:
        fh.readline()
        table = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
    t = table[:, 0]
    if t.max() >= 2**53:  # above this float64 no longer holds every integer
        raise ValueError(f"{path}: timestamps too large to parse exactly")
    return t.astype(np.int64), table[:, 1:].T


def read_labels(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with path.open() as fh:
        if fh.readline().strip() != "t_ns,label_code":
            raise ValueError(f"{path}: unexpected header")
        table = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
    return table[:, 0], table[:, 1]


def expected_labels(
    eeg_t: np.ndarray,
    joy_t: np.ndarray,
    vx: np.ndarray,
    wz: np.ndarray,
    delta_ms: int,
    tau: float,
    max_gap_ms: float,
    edge_trim_s: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Label rule, from its definition.

    The command at t is read from the joystick tick nearest t + delta, ties
    going to the earlier tick, and only when that tick lies within
    ``max_gap_ms``. An axis counts as active only above ``tau`` in
    magnitude; both axes active is contradictory and drops the sample, as
    does no tick in range. Samples within ``edge_trim_s`` of either end of
    the recording are dropped.
    """
    target = eeg_t + delta_ms * NS_PER_MS
    after = np.searchsorted(joy_t, target, side="left")  # first tick >= target
    before = np.clip(after - 1, 0, len(joy_t) - 1)
    after = np.clip(after, 0, len(joy_t) - 1)
    d_before = np.abs(target - joy_t[before])
    d_after = np.abs(joy_t[after] - target)
    tick = np.where(d_before <= d_after, before, after)
    in_range = np.minimum(d_before, d_after) <= round(max_gap_ms * NS_PER_MS)

    v, w = vx[tick], wz[tick]
    v_idle, w_idle = np.abs(v) <= tau, np.abs(w) <= tau
    code = np.select(
        [v_idle & w_idle, w_idle & (v > tau), w_idle & (v < -tau),
         v_idle & (w > tau), v_idle & (w < -tau)],
        [STOP, FORWARD, REVERSE, LEFT, RIGHT],
        default=-1,
    )
    trim = round(edge_trim_s * 1e9)
    keep = (
        in_range & (code >= 0)
        & (eeg_t >= eeg_t[0] + trim) & (eeg_t <= eeg_t[-1] - trim)
    )
    return eeg_t[keep], code[keep]


def check_labels(
    labels_csv: Path, eeg_t, joystick, delta_ms: int, rule: dict
) -> list[str]:
    want_t, want_code = expected_labels(eeg_t, *joystick, delta_ms, **rule)
    got_t, got_code = read_labels(labels_csv)
    if len(got_t) != len(want_t):
        return [f"{labels_csv}: {len(got_t)} labels, recomputed {len(want_t)}"]
    bad = np.nonzero((got_t != want_t) | (got_code != want_code))[0]
    if len(bad):
        i = int(bad[0])
        return [
            f"{labels_csv}: {len(bad)} labels differ from the recomputed ones; "
            f"first at t={got_t[i]}: {got_code[i]} vs {want_code[i]}"
        ]
    return []


def check_zscore(samples: np.ndarray, where: str, tol: float = 1e-4) -> list[str]:
    mean = samples.mean(axis=1)
    var = samples.var(axis=1)  # population variance
    worst = max(float(np.abs(mean).max()), float(np.abs(var - 1.0).max()))
    if worst > tol:
        return [f"{where}: channel mean/variance off 0/1 by {worst:.3g}"]
    return []


def read_metrics_csv(path: Path) -> dict[tuple[str, int, str, str], float]:
    """{(model, horizon_ms, run_id, metric): value} from report/metrics.csv."""
    rows = {}
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    if lines[0] != "model,horizon_ms,run_id,metric,value":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    for line in lines[1:]:
        model, horizon, run_id, metric, value = line.split(",")
        rows[(model, int(horizon), run_id, metric)] = float(value)
    return rows


def macro_f1(confusion: np.ndarray) -> float:
    """Mean over classes present in the truth (rows) of 2TP / (row + col)."""
    tp = np.diag(confusion).astype(np.float64)
    rows, cols = confusion.sum(axis=1), confusion.sum(axis=0)
    present = rows > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        f1 = np.where(rows + cols > 0, 2.0 * tp / (rows + cols), 0.0)
    return float(f1[present].mean())


def check_macro_f1(ws: Path, expected_rows: int) -> list[str]:
    rows = read_metrics_csv(ws / "report" / "metrics.csv")
    f1_rows = {k: v for k, v in rows.items() if k[3] == "macro_f1"}
    errors = []
    if len(f1_rows) != expected_rows:
        errors.append(f"metrics.csv has {len(f1_rows)} macro_f1 rows, want {expected_rows}")
    for (model, horizon, run_id, _), value in sorted(f1_rows.items()):
        score = ws / "work" / run_id / "runs" / f"{model}_{horizon}" / "score.json"
        cm = np.asarray(json.loads(score.read_text())["confusion"], dtype=np.int64)
        want = macro_f1(cm)
        if abs(value - want) > 1e-9:
            errors.append(f"{score}: macro_f1 {value} in metrics.csv, recomputed {want}")
    return errors


def check_split(windows_dir: Path, runs_dir: Path, horizon: int, models,
                n_channels: int, window_len: int) -> list[str]:
    """Histograms, oversampling balance and tensor sizes of one horizon."""
    errors = []
    stats = json.loads((windows_dir / "split_stats.json").read_text())
    train_hist = np.asarray(stats["train_histogram"])
    present = train_hist[train_hist > 0]
    if len(present) == 0 or (present != present[0]).any():
        errors.append(f"{windows_dir}: oversampled train histogram {train_hist.tolist()} "
                      "is not balanced")
    for model in models:
        score = runs_dir / f"{model}_{horizon}" / "score.json"
        cm = np.asarray(json.loads(score.read_text())["confusion"], dtype=np.int64)
        if cm.sum(axis=1).tolist() != list(stats["test_histogram"]):
            errors.append(f"{score}: confusion row sums {cm.sum(axis=1).tolist()} != "
                          f"test_histogram {stats['test_histogram']}")
    for partition in ("train", "test"):
        sidecar = json.loads((windows_dir / f"{partition}.json").read_text())
        n = len(sidecar["labels"])
        size = os.path.getsize(windows_dir / f"{partition}.f32")
        if size != n * n_channels * window_len * 4:
            errors.append(f"{windows_dir}/{partition}.f32: {size} bytes for {n} windows "
                          f"of {n_channels}x{window_len} float32")
        if n != stats[f"n_{partition}"]:
            errors.append(f"{windows_dir}: {n} {partition} windows, split_stats says "
                          f"{stats[f'n_{partition}']}")
    return errors


def check_gap(ws: Path, horizon: int, min_gap: float) -> list[str]:
    """The conv net beats the linear baseline by min_gap in every session."""
    rows = read_metrics_csv(ws / "report" / "metrics.csv")
    errors = []
    for session in sorted(p.name for p in (ws / "sessions").iterdir()):
        shallow = rows.get(("shallow", horizon, session, "macro_f1"))
        linear = rows.get(("linear", horizon, session, "macro_f1"))
        if shallow is None or linear is None:
            errors.append(f"{session}: no macro_f1 for both models at {horizon} ms")
        elif shallow - linear < min_gap:
            errors.append(f"{session}: shallow {shallow:.3f} - linear {linear:.3f} "
                          f"< {min_gap} at {horizon} ms")
    return errors


def check_workspace(ws: Path, expect: dict) -> list[str]:
    """Every check that applies to one workspace.

    ``expect`` holds the workload's own knowledge: horizons, models, the
    label rule, the window shape, the dead channel if any, and the horizon
    and margin of the conv-vs-linear gap check if it applies.
    """
    ws = Path(ws)
    sessions = sorted(p.name for p in (ws / "sessions").iterdir())
    errors = []
    if len(sessions) != expect["n_sessions"]:
        errors.append(f"{len(sessions)} sessions, want {expect['n_sessions']}")
    for session in sessions:
        work = ws / "work" / session
        eeg_t, samples = read_recording(work / "preprocessed" / "eeg.csv")
        errors += check_zscore(samples, f"{work}/preprocessed/eeg.csv")
        if samples.shape[0] != expect["n_channels"]:
            errors.append(f"{session}: {samples.shape[0]} channels")
        joystick = read_joystick(ws / "sessions" / session / "joystick.jsonl")
        for horizon in expect["horizons"]:
            errors += check_labels(work / "labels" / f"labels_{horizon}.csv",
                                   eeg_t, joystick, horizon, expect["label_rule"])
            errors += check_split(work / "windows" / str(horizon), work / "runs", horizon,
                                  expect["models"], expect["n_channels"],
                                  expect["window_len"])
    for session, channel in expect.get("dead_channels", {}).items():
        report = json.loads((ws / "work" / session / "preprocess_report.json").read_text())
        if channel not in report["interpolated"]:
            errors.append(f"{session}: dead channel {channel} not interpolated "
                          f"({report['interpolated']})")
    errors += check_macro_f1(
        ws, len(sessions) * len(expect["horizons"]) * len(expect["models"])
    )
    if expect.get("gap") is not None:
        errors += check_gap(ws, expect["gap"]["horizon_ms"], expect["gap"]["min"])
    return errors


def compare_workspaces(a: Path, b: Path) -> list[str]:
    """Byte-for-byte comparison of two workspace trees."""
    def files(root):
        return {
            os.path.relpath(os.path.join(d, f), root)
            for d, _, fs in os.walk(root) for f in fs
        }

    fa, fb = files(a), files(b)
    errors = [f"only in {a}: {p}" for p in sorted(fa - fb)]
    errors += [f"only in {b}: {p}" for p in sorted(fb - fa)]
    errors += [
        f"differs: {p}" for p in sorted(fa & fb)
        if not filecmp.cmp(Path(a) / p, Path(b) / p, shallow=False)
    ]
    return errors
