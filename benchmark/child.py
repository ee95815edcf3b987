"""One round of a workload, in a fresh process: set-up, then run-all.

Usage: python3 benchmark/child.py ROUND_SPEC.json

The spec (written by run.py) names an empty workspace, one simulate config
per session, the run-all config and the job count. The round runs the
program as its command line would: ``eegdrive simulate`` once per session
config, then ``eegdrive run-all`` over the sessions that exist, both through
``eegdrive.cli.main`` in this process. It writes ``result.json`` next to the
spec with the time set-up ended (CLOCK_MONOTONIC, comparable with the
parent's clock), the run-all wall and CPU time and the peak resident sets.
With ``"trace": true`` it installs the span tracer before the set-up.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def main(spec_path: str) -> int:
    spec_path = Path(spec_path)
    spec = json.loads(spec_path.read_text())
    import eegdrive.cli as cli

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer(spec["trace_dir"])
        tracer.install()

    out: dict = {"exit_code": 0}
    log = open(spec_path.with_name("child.log"), "w")
    with log, contextlib.redirect_stdout(log):
        for sim in spec["simulate"]:
            code = cli.main(["simulate", "--config", sim, "--out", spec["workspace"]])
            if code != 0:
                out["exit_code"] = code
                break
        out["t_setup_end"] = time.monotonic()
        if out["exit_code"] == 0:
            cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
            w0 = time.perf_counter()
            out["exit_code"] = cli.main([
                "run-all", "--config", spec["config"], "--out", spec["workspace"],
                "--jobs", str(spec["jobs"]),
            ])
            out["wall_s"] = time.perf_counter() - w0
            out["cpu_s"] = (
                _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
            )
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers reaped pool workers
    out["peak_rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) * 1024 / 1e6
    if tracer is not None:
        tracer.dump()
    spec_path.with_name("result.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
