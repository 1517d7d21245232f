"""Smoke tests that run the maintenance scripts under scripts/ as a user would."""

import importlib.util
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


def test_make_replay_fixture_reproduces_the_committed_set(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "make_replay_fixture", SCRIPTS / "make_replay_fixture.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    committed = SCRIPTS.parent / "tests" / "data" / "replay"
    out = tmp_path / "replay"
    monkeypatch.setattr(script, "DATA_DIR", out)
    assert script.main() == 0
    names = sorted(p.name for p in committed.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (committed / name).read_bytes(), name
