"""The same-seed digests of scripts/same_seed_digests.py are unchanged.

The script trains four fixed recipes through the command line and compares
the sha256 of what they write and print with scripts/same_seed_digests.txt,
so a change meant to leave behaviour alone is checked by the suite.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_same_seed_digests_match_the_recorded_ones(tmp_path):
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "same_seed_digests.py"),
         "--work", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
