"""The demo scripts run end to end on the current library.

Each demo exercises the public API the way a reader would; running them
here catches a refactor that breaks one.
"""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["design_walkthrough.py",
                                  "overlap_bounds.py",
                                  "rate_region_tour.py",
                                  "detection_walkthrough.py",
                                  "buffer_schedulers.py"])
def test_demo_exits_cleanly(name):
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          str(DEMOS / name)],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout
