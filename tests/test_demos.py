"""Every demo script runs to completion and prints its recorded output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout; a demo prints the same text from any
# working directory, so a change to these is a change to what it shows
STDOUT_SHA256 = {
    "01_band_state_prediction": "7c5cfb0ba7cab23aef2b21f1e8ba8f3adf3dcc29f6b0f002a205ea4e90a797bd",
    "02_link_budget_and_rates": "5ea3c59e594afec8fa1f07fbff04e5513d663822382cd11889c6ec3ee59b3bbf",
    "03_aggregation_walkthrough": "4048f998314c9f4e9faf79e42824525c2fd81ef274b4f455a745ba3438286a65",
    "04_outage_comparison": "ee7d2e2784d31a5ca86bd17e3c49971ad2e17b82cf7bf41274f330e91d3b5a37",
    "05_sweeps_and_figures": "ad90256a88c32429f5564be461eab68b0d56dc3705b5956aa0490dce302a0c19",
}


def test_every_demo_has_a_recorded_output():
    assert sorted(STDOUT_SHA256) == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, tmp_path):
    # demos may write outputs into their working directory
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
