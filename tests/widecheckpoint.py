"""A small, self-consistent ShallowConvNet checkpoint whose header spans a
window of 10**5 samples, and a child process capped in address space to
load it in, shared by the model and pipeline tests.

The file is 200,637 bytes and its tensors fit its header. A dense
(conv_len, n_frames) pooling matrix for its model would take 954 MiB as
bool and 7.5 GiB as float64, so code that builds one with the model fails
in the capped child instead of exhausting the machine.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

from eegdrive.session import N_CLASSES
from eegdrive.tensorfile import write_checkpoint

AS_LIMIT = 1_500_000_000  # bytes of address space for the child
WIDE_SIZE = 200_637  # bytes in the file write_wide_checkpoint writes


def write_wide_checkpoint(path) -> None:
    """One channel, 10**5 samples, one filter per stage, pool_len 2 at
    stride 10: 10,000 pooled frames and a (5, 10000) dense layer."""
    header = {
        "model": "shallow",
        "n_channels": 1,
        "n_samples": 100_000,
        "n_classes": N_CLASSES,
        "spec": {
            "n_temporal_filters": 1, "temporal_kernel": 1, "n_spatial_filters": 1,
            "pool_len": 2, "pool_stride": 10, "dropout_p": 0.5,
        },
        "extra": {},
    }
    shapes = {
        "w_temporal": (1, 1), "b_temporal": (1,), "w_spatial": (1, 1, 1),
        "b_spatial": (1,), "w_dense": (N_CLASSES, 10_000), "b_dense": (N_CLASSES,),
    }
    write_checkpoint(path, header, {k: np.zeros(v, np.float32) for k, v in shapes.items()})


def run_capped(script: str) -> subprocess.CompletedProcess:
    """Run Python ``script`` in a child that imports numpy, ``eegdrive.cli``
    and ``sys``, then caps its address space at AS_LIMIT before the script
    starts. The tests directory is importable in the child."""
    tests = Path(__file__).resolve().parent
    prelude = (
        "import resource, sys\n"
        f"sys.path[:0] = [{str(tests.parent / 'src')!r}, {str(tests)!r}]\n"
        "import numpy, eegdrive.cli\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({AS_LIMIT}, hard))\n"
    )
    return subprocess.run([sys.executable, "-c", prelude + script],
                          capture_output=True, text=True, timeout=300)
