"""Child processes with their wall time, peak RSS and allocation report.

Every child is reaped with os.wait4, so its resource usage (ru_maxrss)
comes from the kernel; every wait is bounded by a deadline."""

import os
import signal
import subprocess
import threading
import time

from . import gcreport


class Deadline:
    """The time left before the run must end."""

    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return max(0.1, self.end - time.monotonic())


class Failed(RuntimeError):
    pass


class Outcome:
    def __init__(self, code, stdout, stderr, wall, rss_bytes):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.wall = wall
        self.rss_mb = rss_bytes / 1e6

    def words(self):
        return gcreport.allocated_words(self.stderr)


def gc_env():
    return dict(os.environ, OCAMLRUNPARAM=gcreport.ENV_SETTING)


def _reap(proc):
    """Wait for a child with os.wait4; returns (exit code, max RSS in bytes)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss * 1024


def _watchdog(proc, seconds):
    timer = threading.Timer(seconds, lambda: proc.poll() is None and proc.send_signal(signal.SIGKILL))
    timer.daemon = True
    timer.start()
    return timer


def run(argv, deadline, stderr_path, env=None):
    """Run a child to completion, capturing stdout; stderr goes to a file
    (the allocation report lands there)."""
    t0 = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
    timer = _watchdog(proc, deadline.left())
    try:
        stdout = proc.stdout.read()
        proc.stdout.close()
        code, rss = _reap(proc)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    with open(stderr_path, "rb") as f:
        stderr = f.read().decode("utf-8", "replace")
    return Outcome(code, stdout.decode("utf-8", "replace"), stderr, wall, rss)


class Daemon:
    """A `braidsim serve` child: started, then reaped after shutdown."""

    def __init__(self, argv, deadline, stderr_path, env=None):
        self.stderr_path = stderr_path
        with open(stderr_path, "wb") as err:
            self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        self.timer = _watchdog(self.proc, deadline.left())
        self.banner = self.proc.stdout.readline().decode("utf-8", "replace")
        if not self.banner:
            self.finish()
            raise Failed("daemon exited before listening: " + self.stderr())

    def stderr(self):
        with open(self.stderr_path, "rb") as f:
            return f.read().decode("utf-8", "replace")

    def finish(self):
        """Reap the daemon (after a shutdown request); returns an Outcome."""
        try:
            rest = self.proc.stdout.read()
            self.proc.stdout.close()
            code, rss = _reap(self.proc)
        finally:
            self.timer.cancel()
        return Outcome(code, self.banner + rest.decode("utf-8", "replace"), self.stderr(), 0.0, rss)

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.finish()
