"""Test-run state stays out of the working tree.

pytest's cache (``cache_dir`` in pyproject.toml reads HJSYS_TEST_STATE), the
hypothesis example database and constants cache, and pytest-benchmark's
storage go to one directory per checkout under the system temp dir.  This
file sits at the root so that it is loaded for every test directory.
"""

import hashlib
import os
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

_CHECKOUT = os.path.dirname(os.path.abspath(__file__))
STATE_DIR = os.environ.setdefault("HJSYS_TEST_STATE", os.path.join(
    tempfile.gettempdir(), "hjsys-tests-" + hashlib.sha256(_CHECKOUT.encode()).hexdigest()[:12]
))
set_hypothesis_home_dir(os.path.join(STATE_DIR, "hypothesis"))


def pytest_configure(config):
    if hasattr(config.option, "benchmark_storage"):
        config.option.benchmark_storage = "file://" + os.path.join(STATE_DIR, "benchmarks")
