"""Seeded outputs against the benchmark's recorded digests.

``perfbench/run.py`` checks every output of its reference pass against
``perfbench/digests.json``; this runs the same pass for each workload, so a
change to a seeded output fails here before the benchmark reads it.  The
digests hold floating-point output, so the check runs only on the library
versions that recorded them.
"""

import platform
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DIGEST_VERSIONS = ("3.11.7", "2.4.6", "1.17.1")

pytestmark = pytest.mark.skipif(
    (platform.python_version(), np.__version__, scipy.__version__) != DIGEST_VERSIONS,
    reason="digests were recorded with Python %s, numpy %s and scipy %s" % DIGEST_VERSIONS,
)


@pytest.mark.parametrize("name", ["large-run", "replica-sweep", "cli-pipeline"])
def test_reference_pass_matches_digests(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness
    import workloads

    tally = harness.Tally()
    harness.reference_pass(name, workloads.WORKLOADS[name], str(tmp_path), tally)
    assert tally.failed == 0, "\n".join(tally.problems)
    assert tally.attempted > 0
