"""Span tracing of eegdrive's public functions, installed from outside.

``Tracer.install`` replaces each target function or method with a wrapper
that records one span (name, start, end, parent, pid) plus the counts seen
at that boundary. Functions are replaced in their defining module and in
every loaded ``eegdrive`` module that imported them by reference, so calls
made through ``from .x import f`` are caught too. Nothing under ``src/`` is
edited.

Worker processes of ``run-all --jobs N`` are forked from the traced process
and inherit the wrappers. After a fork the child drops the spans it
inherited; at the end of each worker task it appends its own spans to
``<trace_dir>/spans-<pid>.jsonl``. The main process keeps its spans in
memory until ``dump`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path


SESSION_FILES = ("manifest.json", "eeg.csv", "joystick.jsonl")


def _session_bytes(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(Path(args[0]) / f) for f in SESSION_FILES)}


def _labels_counts(args, kwargs, result):
    return {"kept": len(result), "dropped": len(args[0]) - len(result)}


def _split_counts(args, kwargs, result):
    return {"train": len(result.train), "test": len(result.test)}


def _oversample_counts(args, kwargs, result):
    return {"before": len(args[0]), "after": len(result)}


def _interpolated(args, kwargs, result):
    return {"channels": len(set(args[1]))}


def _windows_bytes(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


def _train_windows(args, kwargs, result):
    # windows seen = training set size x epochs
    return {"windows": len(args[1]) * args[4].epochs}


def _by_model(prefix):
    return lambda args: f"{prefix}.{args[0].name}"


# (module, attribute path, span name or name(args), counts(args, kwargs, result))
TARGETS = [
    ("eegdrive.synth", "generate_session", "synth.generate_session", None),
    ("eegdrive.ingest", "write_session_dir", "ingest.write_session_dir", _session_bytes),
    ("eegdrive.ingest", "load_session", "ingest.load_session", _session_bytes),
    ("eegdrive.ingest", "align_nearest", "ingest.align_nearest", None),
    ("eegdrive.preprocess", "preprocess_session", "preprocess.preprocess_session", None),
    ("eegdrive.preprocess", "filter_zero_phase", "preprocess.filter_zero_phase", None),
    ("eegdrive.preprocess", "detect_bad_channels", "preprocess.detect_bad_channels", None),
    ("eegdrive.preprocess", "interpolate_channels", "preprocess.interpolate_channels", _interpolated),
    ("eegdrive.labels", "label_at_horizon", "labels.label_at_horizon", _labels_counts),
    ("eegdrive.labels", "write_labels_csv", "labels.write_labels_csv", None),
    ("eegdrive.labels", "read_labels_csv", "labels.read_labels_csv", None),
    ("eegdrive.splitting", "build_split", "splitting.build_split", _split_counts),
    ("eegdrive.splitting", "extract_windows", "splitting.extract_windows", None),
    ("eegdrive.splitting", "oversample_train", "splitting.oversample_train", _oversample_counts),
    ("eegdrive.splitting", "check_no_leakage", "splitting.check_no_leakage", None),
    ("eegdrive.splitting", "windows_to_arrays", "splitting.windows_to_arrays", None),
    ("eegdrive.tensorfile", "write_windows", "tensorfile.write_windows", _windows_bytes),
    ("eegdrive.tensorfile", "read_windows", "tensorfile.read_windows", None),
    ("eegdrive.models.nets", "LinearSoftmax.forward", "nets.linear.forward", None),
    ("eegdrive.models.nets", "LinearSoftmax.backward", "nets.linear.backward", None),
    ("eegdrive.models.nets", "ShallowConvNet.forward", "nets.shallow.forward", None),
    ("eegdrive.models.nets", "ShallowConvNet.backward", "nets.shallow.backward", None),
    ("eegdrive.models.trainer", "train_model", _by_model("trainer.train_model"), _train_windows),
    ("eegdrive.models.trainer", "Adam.step", "trainer.adam_step", None),
    ("eegdrive.models.trainer", "predict", "trainer.predict", None),
    ("eegdrive.models.trainer", "save_checkpoint", "trainer.save_checkpoint", None),
    ("eegdrive.models.trainer", "load_checkpoint", "trainer.load_checkpoint", None),
    ("eegdrive.report", "emit_report", "report.emit_report", None),
    ("eegdrive.pipeline", "stage_preprocess", "pipeline.stage_preprocess", None),
    ("eegdrive.pipeline", "stage_label", "pipeline.stage_label", None),
    ("eegdrive.pipeline", "stage_split", "pipeline.stage_split", None),
    ("eegdrive.pipeline", "stage_train", "pipeline.stage_train", None),
    ("eegdrive.pipeline", "stage_eval", "pipeline.stage_eval", None),
    ("eegdrive.pipeline", "stage_report", "pipeline.stage_report", None),
    # the two functions run_all hands to its process pool: a worker's
    # spans are written out when one of them returns
    ("eegdrive.pipeline", "_per_session", "pipeline.per_session", None),
    ("eegdrive.pipeline", "_per_run", "pipeline.per_run", None),
]
_TASK_ROOTS = ("pipeline.per_session", "pipeline.per_run")


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self, trace_dir: str | Path):
        self.trace_dir = Path(trace_dir)
        self.main_pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0

    def _after_fork(self) -> None:
        self.spans = []
        self._stack = []

    def _span(self, name, counts, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args)
            self._next_id += 1
            span_id = self._next_id
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
            record = {
                "id": span_id, "parent": parent, "name": span_name,
                "t0": t0, "t1": t1, "pid": os.getpid(),
            }
            if counts is not None:
                record["counts"] = counts(args, kwargs, result)
            self.spans.append(record)
            if span_name in _TASK_ROOTS and os.getpid() != self.main_pid:
                self.dump()
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; call after ``import eegdrive.cli``."""
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        os.register_at_fork(after_in_child=self._after_fork)
        loaded = [m for k, m in sys.modules.items() if k.startswith("eegdrive")]
        for module_name, path, name, counts in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._span(name, counts, original)
            setattr(owner, attr, wrapper)
            if outer:  # a method: every caller looks it up on the class
                continue
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self) -> None:
        """Append this process's spans to its file and forget them."""
        path = self.trace_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
        self.spans = []


def load_spans(trace_dir: str | Path) -> list[dict]:
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with path.open() as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


# span-name prefix -> layer, for self time
LAYERS = {
    "synth.": "synth",
    "ingest.": "ingest",
    "preprocess.": "preprocess",
    "labels.": "labels",
    "splitting.": "splitting",
    "tensorfile.": "tensorfile",
    "nets.": "models.nets",
    "trainer.": "models.trainer",
    "report.": "report",
    "pipeline.": "pipeline",
}
STAGES = ("preprocess", "label", "split", "train", "eval", "report")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith(".ms_p50"):
        return "ms"
    if metric.endswith(".mb"):
        return "MB"
    if ".windows_per_s." in metric:
        return "1/s"
    if metric.endswith((".s", "_s")) or ".s." in metric:
        return "s"
    if metric.endswith(("_factor", "_efficiency")):
        return "1"
    return "count"


def _layer(name: str) -> str:
    return next(layer for prefix, layer in LAYERS.items() if name.startswith(prefix))


def layer_metrics(spans: list[dict], jobs: int, wall_s: float) -> dict[str, float]:
    """Per-layer figures from one traced run's spans (all processes).

    ``X.s`` is the summed inclusive time of spans named X; ``self.<layer>.s``
    is the layer's summed self time: each span's duration minus the time its
    direct child spans cover.
    """
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name):
        return sum(s["t1"] - s["t0"] for s in by_name.get(name, ()))

    def count(name, key=None):
        group = by_name.get(name, ())
        return len(group) if key is None else sum(s["counts"][key] for s in group)

    def p50_ms(name):
        spans = by_name.get(name)
        return statistics.median((s["t1"] - s["t0"]) * 1e3 for s in spans) if spans else 0.0

    out: dict[str, float] = {}
    out["synth.generate_session.s"] = total("synth.generate_session")
    out["ingest.write_session_dir.s"] = total("ingest.write_session_dir")
    out["ingest.write_session_dir.mb"] = count("ingest.write_session_dir", "bytes") / 1e6
    out["ingest.load_session.s"] = total("ingest.load_session")
    out["ingest.load_session.calls"] = count("ingest.load_session")
    out["ingest.load_session.mb"] = count("ingest.load_session", "bytes") / 1e6
    for fn in ("preprocess_session", "filter_zero_phase", "detect_bad_channels",
               "interpolate_channels"):
        out[f"preprocess.{fn}.s"] = total(f"preprocess.{fn}")
    out["preprocess.detect_bad_channels.calls"] = count("preprocess.detect_bad_channels")
    out["preprocess.channels_interpolated"] = count(
        "preprocess.interpolate_channels", "channels"
    )
    out["labels.label_at_horizon.s"] = total("labels.label_at_horizon")
    out["ingest.align_nearest.s"] = total("ingest.align_nearest")
    out["labels.write_labels_csv.s"] = total("labels.write_labels_csv")
    out["labels.read_labels_csv.s"] = total("labels.read_labels_csv")
    out["labels.samples_kept"] = count("labels.label_at_horizon", "kept")
    out["labels.samples_dropped"] = count("labels.label_at_horizon", "dropped")
    for fn in ("build_split", "extract_windows", "oversample_train",
               "check_no_leakage", "windows_to_arrays"):
        out[f"splitting.{fn}.s"] = total(f"splitting.{fn}")
    out["splitting.train_windows"] = count("splitting.build_split", "train")
    out["splitting.test_windows"] = count("splitting.build_split", "test")
    before = count("splitting.oversample_train", "before")
    out["splitting.oversample_factor"] = (
        count("splitting.oversample_train", "after") / before if before else 0.0
    )
    out["tensorfile.write_windows.s"] = total("tensorfile.write_windows")
    out["tensorfile.write_windows.mb"] = count("tensorfile.write_windows", "bytes") / 1e6
    out["tensorfile.read_windows.s"] = total("tensorfile.read_windows")
    for model in ("shallow", "linear"):
        for step in ("forward", "backward"):
            name = f"nets.{model}.{step}"
            out[f"{name}.ms_p50"] = p50_ms(name)
            out[f"{name}.calls"] = count(name)
    for model in ("shallow", "linear"):
        out[f"trainer.train_model.s.{model}"] = total(f"trainer.train_model.{model}")
    shallow_ids = {(s["pid"], s["id"]) for s in by_name.get("trainer.train_model.shallow", ())}
    out["trainer.steps.shallow"] = sum(
        1 for s in by_name.get("trainer.adam_step", ())
        if (s["pid"], s["parent"]) in shallow_ids
    )
    shallow_s = out["trainer.train_model.s.shallow"]
    out["trainer.windows_per_s.shallow"] = (
        count("trainer.train_model.shallow", "windows") / shallow_s if shallow_s else 0.0
    )
    out["trainer.adam_step.ms_p50"] = p50_ms("trainer.adam_step")
    for fn in ("predict", "save_checkpoint", "load_checkpoint"):
        out[f"trainer.{fn}.s"] = total(f"trainer.{fn}")
    out["report.emit_report.s"] = total("report.emit_report")
    for stage in STAGES:
        out[f"pipeline.stage_{stage}.s"] = total(f"pipeline.stage_{stage}")
    stage_total = sum(out[f"pipeline.stage_{stage}.s"] for stage in STAGES)
    out["pipeline.stage_total_s"] = stage_total
    out["pipeline.jobs_x_wall_s"] = jobs * wall_s
    out["pipeline.parallel_efficiency"] = stage_total / (jobs * wall_s)

    self_s = {layer: 0.0 for layer in LAYERS.values()}
    child_s: dict[tuple[int, int], float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["pid"], s["parent"])
            child_s[key] = child_s.get(key, 0.0) + (s["t1"] - s["t0"])
    for s in spans:
        own = (s["t1"] - s["t0"]) - child_s.get((s["pid"], s["id"]), 0.0)
        self_s[_layer(s["name"])] += own
    for layer, value in self_s.items():
        out[f"self.{layer}.s"] = value
    return out
