"""Smoke tests that run the maintenance scripts under scripts/ as a user would."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_oracle_validation_passes_on_every_family():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "oracle_validation.py"), "--samples", "40"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    for family in ("ksat3", "prop", "fol", "fol_english", "regex"):
        assert f"\n{family} " in done.stdout
    assert "harness validated" in done.stdout
