"""Benchmark report emission: metrics tables, confusion matrices, F1 figure.

All emitted files are deterministic byte-for-byte given identical inputs:
rows are explicitly sorted, floats go through one fixed format, and the SVG
is assembled from literal strings with no library in the loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .metrics import EvalResult, mean_and_std, metrics_from_confusion
from .session import N_CLASSES

METRICS_CSV = "metrics.csv"
SUMMARY_CSV = "summary.csv"
F1_SVG = "f1_vs_horizon.svg"

# metric column order in metrics.csv, one row per metric per run
METRIC_NAMES = ("accuracy", "macro_precision", "macro_recall", "macro_f1")

_CONVENTION_NOTE = (
    "# macro metrics are unweighted means over classes present in the truth; "
    "zero-denominator precision/recall/F1 score 0; aggregates pool runs "
    "(sessions) per (model, horizon) with sample std (ddof=1, 0 for n=1)"
)


@dataclass(frozen=True)
class RunScore:
    """Evaluation of one (model, horizon, run) cell of the benchmark."""

    model: str
    horizon_ms: int
    run_id: str
    result: EvalResult

    def metric(self, name: str) -> float:
        return float(getattr(self.result, name))


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def write_run_score(path: Path, score: RunScore) -> None:
    """One score as JSON; the confusion matrix is the payload of record.

    Scalar metrics are re-derived on read so a hand-edited file cannot go
    internally inconsistent.
    """
    doc = {
        "model": score.model,
        "horizon_ms": score.horizon_ms,
        "run_id": score.run_id,
        "confusion": score.result.confusion.tolist(),
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_run_score(path: Path) -> RunScore:
    """Read one score: ``confusion`` must be N_CLASSES x N_CLASSES
    non-negative JSON integers and ``horizon_ms`` a JSON integer."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise DataError(f"{path}: cannot read run score: {exc}") from exc
    try:
        rows, horizon = doc["confusion"], doc["horizon_ms"]
        model, run_id = str(doc["model"]), str(doc["run_id"])
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path}: malformed run score: {exc!r}") from exc
    if type(horizon) is not int:  # bool and float refused
        raise DataError(f"{path}: horizon_ms must be a JSON integer, got {horizon!r}")
    square = isinstance(rows, list) and len(rows) == N_CLASSES and all(
        isinstance(row, list) and len(row) == N_CLASSES for row in rows
    )
    if not square:
        raise DataError(f"{path}: confusion must be a {N_CLASSES}x{N_CLASSES} list of rows")
    bad = [v for row in rows for v in row if type(v) is not int or v < 0]
    if bad:
        raise DataError(
            f"{path}: confusion counts must be non-negative JSON integers, got {bad[0]!r}"
        )
    total = sum(map(sum, rows))
    if total >= 2 ** 63:
        raise DataError(f"{path}: confusion total {total} does not fit int64")
    try:
        result = metrics_from_confusion(np.asarray(rows, dtype=np.int64))
    except ValueError as exc:
        raise DataError(f"{path}: malformed run score: {exc}") from exc
    return RunScore(model=model, horizon_ms=horizon, run_id=run_id, result=result)


def _sorted_runs(runs: list[RunScore]) -> list[RunScore]:
    return sorted(runs, key=lambda r: (r.model, r.horizon_ms, r.run_id))


def write_metrics_csv(path: Path, runs: list[RunScore]) -> None:
    if not runs:
        raise DataError("no evaluation runs to report")
    lines = [_CONVENTION_NOTE, "model,horizon_ms,run_id,metric,value"]
    for run in _sorted_runs(runs):
        for name in METRIC_NAMES:
            lines.append(
                f"{run.model},{run.horizon_ms},{run.run_id},{name},{_fmt(run.metric(name))}"
            )
    path.write_text("\n".join(lines) + "\n")


def write_summary_csv(path: Path, runs: list[RunScore]) -> None:
    """Mean and std across runs per (model, horizon, metric)."""
    if not runs:
        raise DataError("no evaluation runs to report")
    cells: dict[tuple[str, int], list[RunScore]] = {}
    for run in runs:
        cells.setdefault((run.model, run.horizon_ms), []).append(run)
    lines = [_CONVENTION_NOTE, "model,horizon_ms,n_runs,metric,mean,std"]
    for model, horizon in sorted(cells):
        group = cells[(model, horizon)]
        for name in METRIC_NAMES:
            mean, std = mean_and_std([r.metric(name) for r in group])
            lines.append(
                f"{model},{horizon},{len(group)},{name},{_fmt(mean)},{_fmt(std)}"
            )
    path.write_text("\n".join(lines) + "\n")


def confusion_csv_name(model: str, horizon_ms: int) -> str:
    return f"confusion_{model}_{horizon_ms}.csv"


def write_confusion_csvs(out_dir: Path, runs: list[RunScore]) -> list[Path]:
    """Per (model, horizon): confusion counts summed over runs."""
    cells: dict[tuple[str, int], np.ndarray] = {}
    for run in runs:
        key = (run.model, run.horizon_ms)
        cells[key] = cells.get(key, 0) + run.result.confusion
    written = []
    header = "true\\pred," + ",".join(str(c) for c in range(N_CLASSES))
    for model, horizon in sorted(cells):
        cm = cells[(model, horizon)]
        lines = ["# rows true class, columns predicted, summed over runs", header]
        for i in range(N_CLASSES):
            lines.append(f"{i}," + ",".join(str(int(v)) for v in cm[i]))
        path = out_dir / confusion_csv_name(model, horizon)
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written


_SVG_W, _SVG_H = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 30, 40, 60
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _svg_xy(h: float, f1: float, h_lo: float, h_hi: float) -> tuple[float, float]:
    span = max(h_hi - h_lo, 1.0)
    x = _MARGIN_L + (h - h_lo) / span * (_SVG_W - _MARGIN_L - _MARGIN_R)
    y = _SVG_H - _MARGIN_B - f1 * (_SVG_H - _MARGIN_T - _MARGIN_B)
    return x, y


def write_f1_svg(path: Path, runs: list[RunScore]) -> None:
    """Mean test macro-F1 against horizon, one polyline per model.

    Self-contained SVG, y axis fixed to [0, 1] so figures from different
    runs are visually comparable.
    """
    if not runs:
        raise DataError("no evaluation runs to plot")
    models = sorted({r.model for r in runs})
    horizons = sorted({r.horizon_ms for r in runs})
    h_lo, h_hi = float(horizons[0]), float(horizons[-1])

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.2f}" y="22" text-anchor="middle" font-size="14">'
        "test macro-F1 vs prediction horizon</text>",
    ]
    ax_l, ax_b = _MARGIN_L, _SVG_H - _MARGIN_B
    ax_r, ax_t = _SVG_W - _MARGIN_R, _MARGIN_T
    parts.append(
        f'<line x1="{ax_l}" y1="{ax_b}" x2="{ax_r}" y2="{ax_b}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{ax_l}" y1="{ax_b}" x2="{ax_l}" y2="{ax_t}" stroke="black"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        _, y = _svg_xy(h_lo, frac, h_lo, h_hi)
        parts.append(
            f'<line x1="{ax_l - 4}" y1="{y:.2f}" x2="{ax_l}" y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ax_l - 8}" y="{y + 4:.2f}" text-anchor="end">{frac:g}</text>'
        )
    for h in horizons:
        x, _ = _svg_xy(float(h), 0.0, h_lo, h_hi)
        parts.append(
            f'<line x1="{x:.2f}" y1="{ax_b}" x2="{x:.2f}" y2="{ax_b + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{ax_b + 18}" text-anchor="middle">{h}</text>'
        )
    parts.append(
        f'<text x="{(ax_l + ax_r) / 2:.2f}" y="{_SVG_H - 16}" text-anchor="middle">'
        "prediction horizon (ms)</text>"
    )
    parts.append(
        f'<text x="20" y="{(ax_t + ax_b) / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {(ax_t + ax_b) / 2:.2f})">mean test macro-F1</text>'
    )

    for mi, model in enumerate(models):
        color = _PALETTE[mi % len(_PALETTE)]
        pts = []
        for h in horizons:
            vals = [r.metric("macro_f1") for r in runs if r.model == model and r.horizon_ms == h]
            if not vals:
                continue
            mean, _ = mean_and_std(vals)
            pts.append(_svg_xy(float(h), mean, h_lo, h_hi))
        coord = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coord}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in pts:
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')
        ly = _MARGIN_T + 16 * mi
        parts.append(
            f'<line x1="{ax_r - 110}" y1="{ly}" x2="{ax_r - 90}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{ax_r - 84}" y="{ly + 4}">{model}</text>')

    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def emit_report(runs: list[RunScore], out_dir: Path) -> list[Path]:
    """Write every report artifact; returns the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [
        out_dir / METRICS_CSV,
        out_dir / SUMMARY_CSV,
        out_dir / F1_SVG,
    ]
    write_metrics_csv(written[0], runs)
    write_summary_csv(written[1], runs)
    write_f1_svg(written[2], runs)
    written.extend(write_confusion_csvs(out_dir, runs))
    return written
