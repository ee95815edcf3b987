"""eegdrive benchmark: run one workload (or all), check it, print metrics.

    python3 benchmark/run.py --workload grid-serial --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Each round starts a fresh Python
process (benchmark/child.py) on an empty workspace under benchmark/out/:
the process imports eegdrive, simulates the workload's sessions through
``eegdrive simulate`` (set-up), then runs ``eegdrive run-all`` over them.
Each workload has a fixed number of input sets, all made from --seed;
rounds cycle through them, and a run ends after the first whole cycle that
finishes once --seconds have passed. Every round's workspace is checked
(checks.py) before it is deleted. The last line of standard output
is one JSON object: correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones (medians over rounds; macro_f1_mean is
their mean). With --trace 1
each round is run twice, untraced and then traced, and the metrics are the
per-layer figures from the traced runs plus the tracing overhead; a traced
run repeats input set 0 only.

``--workload all`` runs every workload in turn for --seconds each and also
checks that grid-serial and grid-jobs2 leave byte-identical workspaces.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_workspace, compare_workspaces, read_metrics_csv
from tracing import layer_metrics, load_spans, unit_of

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
RUN_BUDGET_S = 150.0  # a workload's rounds must end within this; runs get 180 s

ALL_HORIZONS = (0, 300, 400, 500, 600, 700, 800, 900, 1000)
LABEL_RULE = {"tau": 0.1, "max_gap_ms": 100.0, "edge_trim_s": 1.0}  # program defaults
N_CHANNELS, WINDOW_LEN = 16, 125

# Share of schedule time per command (forward, reverse, left, right, stop).
# Fixed shares keep the labelled samples per class, and so the oversampled
# training set, the same size for every seed; the seed orders the segments.
# Each tuple is the mean of the sorted class shares of 2000 sessions (rng
# seeds 0-1999) under the program's own Markov walk at that session length
# (4 s mean dwell, next command uniform over the other four), given to the
# commands largest first: the imbalance of a typical default session.
SHARES_200S = (0.261, 0.225, 0.200, 0.174, 0.140)
SHARES_120S = (0.280, 0.234, 0.199, 0.165, 0.122)
DWELLS_S = (2.0, 3.0, 4.0, 5.0, 6.0)  # the Markov walk's 0.5-1.5 x 4 s
SCHEDULE_PAD_S = 4.0  # the schedule must outlast the recording by lag + 2 s

_GRID = {
    "input_sets": 3,
    "n_sessions": 2,
    "duration_s": 200.0,
    "class_shares": SHARES_200S,
    "horizons": (0, 300),
    "models": ("linear", "shallow"),
    "epochs": 30,
    "dead_channels": {},
    "gap": {"horizon_ms": 300, "min": 0.30},
}
WORKLOADS = {
    "grid-serial": dict(_GRID, jobs=1),
    "grid-jobs2": dict(_GRID, jobs=2),
    "horizons-prep": {
        "input_sets": 5,
        "n_sessions": 3,
        "duration_s": 120.0,
        "class_shares": SHARES_120S,
        "horizons": ALL_HORIZONS,
        "models": ("linear",),
        "epochs": 3,
        "dead_channels": {1: "C3"},  # session index -> channel zeroed by synth
        "gap": None,
        "jobs": 1,
    },
}
WARM_UP = """
import time
import numpy as np
import eegdrive.cli
x = np.ones((256, 256), np.float32)
end = time.monotonic() + 3.0
while time.monotonic() < end:
    x @ x
"""
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
)


def session_seed(seed: int, input_set: int, index: int) -> int:
    """synth.rng_seed of session ``index`` of an input set; the session is
    named synth-<this>."""
    return 100 * seed + 10 * input_set + index


def command_schedule(duration_s: float, shares: tuple, rng_seed: int) -> list[list]:
    """A seeded order of command segments with fixed time per command.

    Each command gets its share of the schedule in segments of 2-6 s;
    segments are drawn in random order, never two of one command in a row
    while another command is left.
    """
    rng = random.Random(rng_seed)
    pool = []
    for code, share in enumerate(shares):
        left = round(share * (duration_s + SCHEDULE_PAD_S), 1)
        while left > 0:
            length = min(left, rng.choice(DWELLS_S))
            pool.append([length, code])
            left = round(left - length, 1)
    out: list[list] = []
    while pool:
        other = [i for i, seg in enumerate(pool) if not out or seg[1] != out[-1][1]]
        out.append(pool.pop(rng.choice(other or range(len(pool)))))
    return out


def ops_per_round(w: dict) -> int:
    """Stage calls in one run-all: preprocess, label and split per session,
    train and eval per (session, horizon, model), and one report."""
    runs = w["n_sessions"] * len(w["horizons"]) * len(w["models"])
    return 3 * w["n_sessions"] + 2 * runs + 1


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class Runner:
    """Starts rounds in child processes and keeps to a deadline."""

    def __init__(self, root: Path, tag: str):
        self.root = root
        self.tag = tag
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else ""
        )
        self.n = 0

    def _spawn(self, argv: list[str], log: Path) -> int:
        with log.open("w") as err:
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=err, stderr=err, start_new_session=True,
            )
            try:
                return proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                print(f"killed past the deadline; see {log}", file=sys.stderr)
                return -signal.SIGKILL

    def warm_up(self) -> None:
        """Compile and cache the program's modules, then keep the cores busy
        for a few seconds, outside the timing. Without the busy spell the
        first round of a run measured about 20 % slower than the next ones
        on a 2-core VM (grid-serial run-all: 15.4 s against 12.3 s)."""
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        log = OUT_DIR / f"{self.tag}-warm.log"
        if self._spawn([sys.executable, "-c", WARM_UP], log) != 0:
            raise RuntimeError(f"warm-up failed (no eegdrive in ./src?); see {log}")
        log.unlink()

    def round(self, name: str, w: dict, seed: int, input_set: int, *,
              trace=False) -> tuple[Path, dict]:
        self.n += 1
        rdir = OUT_DIR / f"{self.tag}-{self.n}"
        shutil.rmtree(rdir, ignore_errors=True)
        rdir.mkdir(parents=True)
        sims = []
        for i in range(w["n_sessions"]):
            rng_seed = session_seed(seed, input_set, i)
            doc = {
                "n_sessions": 1,
                "synth": {
                    "duration_s": w["duration_s"],
                    "rng_seed": rng_seed,
                    "schedule": command_schedule(
                        w["duration_s"], w["class_shares"], rng_seed),
                    "corrupt_channel": w["dead_channels"].get(i),
                },
            }
            sims.append(rdir / f"simulate-{i}.json")
            sims[-1].write_text(json.dumps(doc))
        config = rdir / "run-all.json"
        config.write_text(json.dumps({
            "seed": seed,
            "horizons_ms": list(w["horizons"]),
            "models": list(w["models"]),
            "train": {"epochs": w["epochs"]},
        }))
        spec = {
            "workspace": str(rdir / "ws"),
            "simulate": [str(p) for p in sims],
            "config": str(config),
            "jobs": w["jobs"],
            "trace": trace,
            "trace_dir": str(rdir / "trace"),
        }
        (rdir / "spec.json").write_text(json.dumps(spec))
        t0 = time.monotonic()
        code = self._spawn(
            [sys.executable, str(BENCH_DIR / "child.py"), str(rdir / "spec.json")],
            rdir / "child.err",
        )
        result = json.loads((rdir / "result.json").read_text()) if code == 0 else {}
        if code != 0 or result["exit_code"] != 0:
            log = "".join(p.read_text() for p in (rdir / "child.err", rdir / "child.log")
                          if p.exists())
            print(f"{name}: round failed:\n{log[-2000:]}", file=sys.stderr)
            return rdir, {}
        result["setup_s"] = result["t_setup_end"] - t0
        return rdir, result


def dir_mb(root: Path) -> float:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(root) for f in fs
    ) / 1e6


def expectations(w: dict, seed: int, input_set: int) -> dict:
    return {
        "n_sessions": w["n_sessions"],
        "horizons": list(w["horizons"]),
        "models": list(w["models"]),
        "label_rule": LABEL_RULE,
        "n_channels": N_CHANNELS,
        "window_len": WINDOW_LEN,
        "dead_channels": {
            f"synth-{session_seed(seed, input_set, i):04d}": ch
            for i, ch in w["dead_channels"].items()
        },
        "gap": w["gap"],
    }


def run_workload(runner: Runner, name: str, seed: int, seconds: float, trace: bool,
                 keep_first: bool = False) -> dict:
    """Whole cycles of rounds until ``seconds`` have passed (a traced run
    repeats input set 0 instead); returns the workload's result. A round
    still running RUN_BUDGET_S after the workload started is killed, and
    its operations count as failed."""
    w = WORKLOADS[name]
    start = time.monotonic()
    runner.deadline = start + RUN_BUDGET_S
    rounds, traced, errors, kept = [], [], [], None
    attempted = failed = 0

    def measured(rdir: Path, result: dict, input_set: int) -> dict | None:
        nonlocal attempted, failed
        attempted += ops_per_round(w)
        if not result:
            failed += ops_per_round(w)
            return None
        ws = rdir / "ws"
        expect = expectations(w, seed, input_set)
        errors.extend(f"{name}: {e}" for e in check_workspace(ws, expect))
        f1 = [v for k, v in read_metrics_csv(ws / "report" / "metrics.csv").items()
              if k[3] == "macro_f1"]
        result["workspace_mb"] = dir_mb(ws)
        result["macro_f1_mean"] = sum(f1) / len(f1)
        return result

    n = 0
    while True:
        input_set = 0 if trace else n % w["input_sets"]
        rdir, plain = runner.round(name, w, seed, input_set)
        plain = measured(rdir, plain, input_set)
        if keep_first and kept is None:
            kept = rdir / "ws"
        else:
            shutil.rmtree(rdir)
        if trace:
            rdir, result = runner.round(name, w, seed, input_set, trace=True)
            result = measured(rdir, result, input_set)
            if result is not None and plain is not None:
                result["spans"] = load_spans(rdir / "trace")
                traced.append((plain, result))
            shutil.rmtree(rdir)
        if plain is not None:
            rounds.append(plain)
        n += 1
        if time.monotonic() - start >= seconds and (trace or n % w["input_sets"] == 0):
            break

    metrics: dict[str, dict] = {}
    if not rounds or (trace and not traced):
        pass  # every round failed: no figures, only the failed count
    elif trace:
        per_round = []
        for plain, tr in traced:
            figures = layer_metrics(tr["spans"], w["jobs"], tr["wall_s"])
            if w["jobs"] > 1 and len({s["pid"] for s in tr["spans"]}) < 2:
                errors.append(f"{name}: no spans from --jobs worker processes")
            figures["trace.overhead_s"] = tr["wall_s"] - plain["wall_s"]
            per_round.append(figures)
        for key in per_round[0]:
            metrics[key] = {"value": statistics.median([f[key] for f in per_round]),
                            "unit": unit_of(key)}
    else:
        for key, unit in (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
                          ("peak_rss_mb", "MB"), ("workspace_mb", "MB")):
            metrics[key] = {"value": statistics.median([r[key] for r in rounds]), "unit": unit}
        # every round has the same rows, so this is the mean over all of them
        metrics["macro_f1_mean"] = {
            "value": statistics.fmean([r["macro_f1_mean"] for r in rounds]), "unit": "1"}
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "errors": errors,
        "rounds": {k: [r[k] for r in rounds] for k in ("setup_s", "wall_s", "cpu_s")},
        "kept": kept,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    root = Path.cwd()
    if not (root / "src" / "eegdrive" / "__init__.py").is_file():
        print("run from the root of an eegdrive checkout: no src/eegdrive here",
              file=sys.stderr)
        return 2

    facts = machine_facts()
    print("machine: " + json.dumps(facts, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    runner = Runner(root, tag)
    runner.warm_up()
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                runner, name, args.seed, args.seconds, bool(args.trace),
                keep_first=args.workload == "all" and name.startswith("grid-"),
            )
        identical = []
        if args.workload == "all":
            identical = compare_workspaces(
                results["grid-serial"]["kept"], results["grid-jobs2"]["kept"]
            )
    finally:
        for r in results.values():
            if r["kept"] is not None:
                shutil.rmtree(r["kept"].parent, ignore_errors=True)

    for name, r in results.items():
        for e in r["errors"]:
            print(f"CHECK FAILED: {e}", file=sys.stderr)
        record = {k: v for k, v in r.items() if k != "kept"}
        print(f"{name}: " + json.dumps(record, sort_keys=True))
    for e in identical[:20]:
        print(f"CHECK FAILED: grid-serial vs grid-jobs2 workspace: {e}", file=sys.stderr)

    if len(names) == 1:
        r = results[names[0]]
        final = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()) and not identical,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"machine": facts, "args": vars(args), "result": final}, indent=1)
    )
    print(json.dumps(final))
    return 0 if all(r["metrics"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
