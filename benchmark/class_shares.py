"""Measure the class imbalance of the program's own Markov schedules.

    PYTHONPATH=src python3 benchmark/class_shares.py

For each session length the benchmark uses, builds the default Markov walk
of 2000 sessions (rng seeds 0-1999), labels every EEG sample with the
command active label_lag_ms later (as the generator does), sorts each
session's five class shares from largest to smallest and prints their mean.
run.py's SHARES_200S and SHARES_120S are these means, rounded so each sums to 1.
"""

import numpy as np

from eegdrive import synth

N_SEEDS = 2000

for duration_s in (200.0, 120.0):
    rows = []
    for rng_seed in range(N_SEEDS):
        cfg = synth.SynthConfig(duration_s=duration_s, rng_seed=rng_seed)
        period_ns = round(1e9 / cfg.sample_rate_hz)
        t = np.arange(round(duration_s * cfg.sample_rate_hz), dtype=np.int64) * period_ns
        lag_ns = round(cfg.label_lag_ms * 1e6)
        starts, codes = synth._build_schedule(cfg, int(t[-1]) + lag_ns + 2 * 10**9)
        intent = synth._codes_at(starts, codes, t + lag_ns)
        rows.append(np.sort(np.bincount(intent, minlength=5) / len(t))[::-1])
    rows = np.array(rows)
    print(f"{duration_s:.0f} s: mean sorted shares {np.round(rows.mean(0), 4).tolist()}"
          f" (sd {np.round(rows.std(0), 4).tolist()})")
