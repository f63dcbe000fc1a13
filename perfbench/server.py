"""The server under test as a child process, and what /proc says about it.

The server binds port 0 and the benchmark reads the bound port from its
``listening on host:port`` log line, so a run never reaches a foreign
listener. ``stop`` always terminates and reaps the process.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional

from punchcard import service
from punchcard.errors import WireError

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch_server.py")
_LISTENING = re.compile(r"listening on (\S+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    pass


class ServerProcess:
    def __init__(self, config_path: str, spans_path: Optional[str] = None):
        self.config_path = config_path
        self.spans_path = spans_path
        self.host = ""
        self.port = 0
        self.pk = b""
        self._proc: Optional[subprocess.Popen] = None
        self._log: List[str] = []
        self._listening = threading.Event()
        self._drain: Optional[threading.Thread] = None

    @property
    def pid(self) -> int:
        return self._proc.pid

    def start(self, timeout: float = 120.0) -> float:
        """Spawn the server; return seconds from spawn to the first PK_RESP."""
        cmd = [sys.executable, LAUNCHER, "--config", self.config_path]
        if self.spans_path:
            cmd += ["--spans", self.spans_path]
        t0 = time.perf_counter()
        self._proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self._drain = threading.Thread(target=self._read_log, daemon=True)
        self._drain.start()
        deadline = t0 + timeout
        while not self._listening.wait(0.001):
            if self._proc.poll() is not None or time.perf_counter() > deadline:
                raise ServerError("server did not start:\n" + self.log_tail())
        while True:
            try:
                with service.Client(self.host, self.port, timeout=timeout) as client:
                    self.pk = client.fetch_pk()
                break
            except (OSError, WireError):
                if self._proc.poll() is not None or time.perf_counter() > deadline:
                    raise ServerError("server did not answer:\n" + self.log_tail())
                time.sleep(0.001)
        return time.perf_counter() - t0

    def _read_log(self) -> None:
        for line in self._proc.stderr:
            self._log.append(line)
            if not self._listening.is_set():
                m = _LISTENING.search(line)
                if m:
                    self.host, self.port = m.group(1), int(m.group(2))
                    self._listening.set()

    def log_tail(self, lines: int = 20) -> str:
        return "".join(self._log[-lines:])

    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def cpu_seconds(self) -> float:
        """user + system CPU of the server so far."""
        with open(f"/proc/{self.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> Optional[float]:
        """Peak resident set size; None once the process has exited."""
        try:
            with open(f"/proc/{self.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024
        except FileNotFoundError:
            pass
        return None

    def stop(self) -> int:
        """SIGTERM, wait, SIGKILL if needed; always reaps. Returns the exit
        code (negative for a signal)."""
        proc = self._proc
        if proc is None:
            return 0
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=10)
        proc.stderr.close()
        return proc.returncode
