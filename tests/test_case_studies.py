"""scripts/case_studies.py, run end to end as README documents it."""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ARTIFACTS = {
    "type_graph.dot",
    "speeding.dot",
    "speeding.json",
    "speeding_exposure_driver.json",
    "speeding_highlighted.dot",
    "uber.dot",
    "uber.json",
    "uber_exposure_passenger1.json",
    "uber_highlighted.dot",
}

# The artifacts the strict search feeds: the headline routes highlighted and
# the exposure reports.
PINNED = {
    "speeding_exposure_driver.json": "2c7a6e862f86a8d0b991461d524a296928264726c8437073e3fc105544a3d97e",
    "speeding_highlighted.dot": "fd8823ac7e65445474b7286012473169d5b9d7cc3d428d6c6ebb909dad866a4c",
    "uber_exposure_passenger1.json": "68ceaa9366aef19c4e0be3e5d6291e21c27815abc4abefb9e015b995ad65fedf",
    "uber_highlighted.dot": "c38c557c5c7c74b1b826ab7254b47f91faba49ebf74ec03296d3ca6ade5cf440",
}


def run_case_studies(out_dir: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "case_studies.py"), "--out-dir", str(out_dir)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return {path.name: path.read_bytes() for path in out_dir.iterdir()}


def test_case_studies_write_the_same_pinned_artifacts_twice(tmp_path):
    first = run_case_studies(tmp_path / "first")
    second = run_case_studies(tmp_path / "second")
    assert set(first) == ARTIFACTS
    assert first == second
    for name, digest in PINNED.items():
        assert hashlib.sha256(first[name]).hexdigest() == digest, name
