"""README's Quick start block and the demos run as written."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def _quick_start() -> str:
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.mark.parametrize(
    "args,expected",
    [
        pytest.param(["-c", _quick_start()], "", id="readme-quick-start"),
        pytest.param([str(DEMOS / "client_server_session.py")], "", id="client-server-session"),
        pytest.param([str(DEMOS / "capacity_staircase.py")], "", id="capacity-staircase"),
        pytest.param([str(DEMOS / "privacy_walkthrough.py")], "uniform: True", id="privacy-walkthrough"),
    ],
)
def test_quick_start_and_demos_run(args, expected):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout
