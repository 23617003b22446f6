"""The one writer of the ``BENCH_*.json`` summary artifacts.

Every benchmark module that reports numbers appends its sections through
:func:`record_artifact`, which also stamps the file with where the numbers
came from — git commit, Python version, core count — so two artifacts can
be compared knowing whether the machine or the code changed.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Optional

_REPO = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def _git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_REPO, capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def record_artifact(artifact: Path, section: str, payload) -> None:
    """Write ``payload`` under ``section`` of ``artifact``, keeping the
    file's other sections and refreshing its ``environment`` stamp."""
    data = {}
    if artifact.exists():
        try:
            data = json.loads(artifact.read_text())
        except (ValueError, OSError):
            data = {}
    data[section] = payload
    data["environment"] = {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    artifact.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
