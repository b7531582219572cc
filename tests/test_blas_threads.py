"""The pinned outputs do not depend on the BLAS thread count.

The pinned ``generate`` run (TestPinnedOutputs) and the benchmark's
``train`` run (TestPinnedTrainOutputs, "bench") run in a child pytest
process with ``OPENBLAS_NUM_THREADS`` at 1 and at 2; both must give the
pinned digests. OpenBLAS reads the variable once, when it loads, so each
count needs its own process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PINNED = (
    "tests/test_generator.py::TestPinnedOutputs::test_output_digests",
    "tests/test_scorers.py::TestPinnedTrainOutputs::test_output_digests[bench]",
)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_pinned_digests_at_blas_threads(threads):
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *PINNED],
        cwd=ROOT,
        env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:]
    assert "2 passed" in done.stdout
