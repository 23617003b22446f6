"""Starting, talking to, killing and reaping the child that holds the system.

Each child leads its own session, so one ``SIGKILL`` to the process group
takes the server and its shard workers down together — the crash the
recovery metrics start from.  The harness makes itself the sub-reaper of
its descendants, so the orphaned workers are waited for too and nothing
outlives a run.
"""

from __future__ import annotations

import ctypes
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux); without it they are polled for."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes of one process group, from ``/proc``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue
        # after the command name: state, ppid, pgrp, ...
        if int(fields[2]) == pgid and fields[0] != b"Z":
            members.append(int(entry))
    return members


class Child:
    """One fresh process holding the system under test."""

    def __init__(self, config: dict, ready_timeout: float = 120.0):
        self.config = config
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([environment["PYTHONPATH"]] if environment.get("PYTHONPATH") else [])
        )
        self._buffer = b""
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), json.dumps(config)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=environment,
            cwd=str(ROOT),
            start_new_session=True,
        )
        self.pgid = self.process.pid
        try:
            self.ready = self._read_json(ready_timeout)
        except BaseException:
            self.kill()
            raise
        #: child start -> ready for the first op, on the harness's clock
        self.setup_s = time.perf_counter() - started
        self.port: Optional[int] = self.ready.get("port")

    def _read_json(self, timeout: float) -> dict:
        deadline = time.perf_counter() + timeout
        descriptor = self.process.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError("the child did not answer in time")
            readable, _, _ = select.select([descriptor], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(descriptor, 1 << 20)
            if not chunk:
                raise RuntimeError(
                    f"the child exited with code {self.process.wait()} before answering"
                )
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def command(self, payload: dict, timeout: float = 60.0) -> dict:
        self.process.stdin.write(json.dumps(payload).encode() + b"\n")
        self.process.stdin.flush()
        return self._read_json(timeout)

    def peak_rss_mb(self) -> float:
        """Sum of the group's high-water marks: the server plus its workers."""
        total_kb = 0
        for pid in _group_members(self.pgid):
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0

    def quit(self, timeout: float = 30.0) -> None:
        """Ask the child to stop; kill the group if it does not."""
        if self.process.poll() is None:
            try:
                self.command({"cmd": "quit"}, timeout)
                self.process.wait(timeout)
            except (OSError, RuntimeError, TimeoutError, subprocess.TimeoutExpired):
                pass
        self.kill()

    def kill(self) -> float:
        """SIGKILL the whole group, wait until it is gone; returns the kill time."""
        killed_at = time.perf_counter()
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except OSError:
                pass
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline:
            try:
                # adopted orphans (the shard workers) are ours to reap
                while os.waitpid(-self.pgid, os.WNOHANG)[0]:
                    pass
            except ChildProcessError:
                pass
            if not _group_members(self.pgid):
                break
            time.sleep(0.005)
        return killed_at
