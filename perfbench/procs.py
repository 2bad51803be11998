"""Child processes of the benchmark: start, line channel with deadlines, stop."""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


class Channel:
    """JSON lines from a child's stdout, each read under a deadline."""

    def __init__(self, stream):
        self._fd = stream.fileno()
        self._buffer = bytearray()

    def read(self, timeout: float) -> dict | None:
        """The next message, or ``None`` when ``timeout`` seconds pass first."""
        deadline = time.monotonic() + timeout
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                return json.loads(line)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            ready, _, _ = select.select([self._fd], [], [], remaining)
            if not ready:
                return None
            chunk = os.read(self._fd, 1 << 20)
            if not chunk:
                raise EOFError("the child process closed its output")
            self._buffer += chunk


def python_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def spawn(root: str, script: str, args: list[str], log_path: str, stdin: bool) -> subprocess.Popen:
    """Start ``perfbench/<script>`` with the checkout's ``src`` importable."""
    log = open(log_path, "ab")
    try:
        return subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), *args],
            cwd=root,
            env=python_env(root),
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=log,
        )
    finally:
        log.close()


def stop(process: subprocess.Popen, timeout: float = 30.0) -> None:
    """Wait for ``process`` to end; kill it when it does not in time."""
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=timeout)
    for stream in (process.stdin, process.stdout):
        if stream is not None:
            stream.close()


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a live process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def log_tail(log_path: str, lines: int = 20) -> str:
    try:
        with open(log_path, encoding="utf-8", errors="replace") as handle:
            return "".join(handle.readlines()[-lines:])
    except OSError:
        return ""
