"""Each demo script runs to completion as ``__main__``."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# formation_converse.py and majorization_sweep.py take about 1 s each; the
# library calls they make are exercised by acceptance criteria 2, 4 and 9
FAST_DEMOS = ("binary_mixing.py", "dilute_mixed.py", "dilute_pure.py",
              "entropy_tail_sums.py", "gibbs_continuity.py", "typical_sets.py")


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs_under_warning_filters(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue()
