import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
TOOL = ROOT / "tools" / "digests.py"


def test_against_head_reports_no_difference():
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode:
        pytest.skip("not a git checkout: --against has no commit to read")
    done = subprocess.run([sys.executable, str(TOOL), "--against", "HEAD", "--seeds", "1"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    summary = re.fullmatch(r"(\d+) keys compared against (\w+), 0 differ\n", done.stdout)
    assert summary and int(summary[1]) > 0 and summary[2] == head.stdout.strip()
