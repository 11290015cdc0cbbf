"""The walkthrough scripts of ``demos/`` run to the end without a warning."""

from pathlib import Path
import runpy

import numpy as np
import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert [p.name for p in DEMOS] == [
        "classify_and_witness.py", "ep_scan.py", "specht_words.py"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, capsys):
    with np.printoptions():  # the demos set their own print options
        runpy.run_path(str(script), run_name="__main__")
    assert "===" in capsys.readouterr().out
