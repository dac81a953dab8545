"""Derandomized hypothesis examples, and the evidence of a failing test session.

Every ``@given`` test draws the same examples on every run (the "seqvec"
profile: ``derandomize=True``, no deadline), so a failing example fails
again on the next run.

On a session's first failure this writes ``.test-failures/<UTC time>-<pid>.txt``
at the repository root (git-ignored): a fingerprint of the process taken
at session start and another taken at that failure, then the id and the
``longrepr`` of that failure and of every later one in the session. A
fingerprint is numpy's runtime (its SIMD dispatch), its build and BLAS
configuration, the CPU flags, the load average and the process's thread
count and memory from ``/proc/self/status``. The evidence changes nothing
that a test runs or asserts; a passing session writes nothing.
"""

import io
import os
import time
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
from hypothesis import settings

settings.register_profile("seqvec", derandomize=True, deadline=None)
settings.load_profile("seqvec")

_EVIDENCE = Path(__file__).resolve().parents[1] / ".test-failures"


def _read(path, keep=lambda line: True):
    try:
        with open(path) as fh:
            return "".join(line for line in fh if keep(line))
    except OSError as exc:
        return f"({exc})\n"


def _fingerprint():
    out = io.StringIO()
    with redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        np.show_runtime()
        np.show_config()
    cpu_flags = _read("/proc/cpuinfo", lambda line: line.startswith("flags"))
    return "".join([
        time.strftime("%Y-%m-%dT%H:%M:%SZ\n", time.gmtime()), out.getvalue(),
        cpu_flags.splitlines(keepends=True)[0] if cpu_flags else "(no cpu flags)\n",
        f"cpus usable {len(os.sched_getaffinity(0))}, loadavg ",
        _read("/proc/loadavg"),
        _read("/proc/self/status",
              lambda line: line.startswith(("Threads:", "VmHWM:", "VmRSS:"))),
    ])


class _Evidence:
    """The fingerprint of one session's start, and its failures once one occurs."""

    def __init__(self):
        self.start = _fingerprint()
        self.path = None

    def pytest_runtest_logreport(self, report):
        self._keep(report)

    def pytest_collectreport(self, report):
        self._keep(report)

    def _keep(self, report):
        if not report.failed:
            return
        try:
            if self.path is None:
                _EVIDENCE.mkdir(exist_ok=True)
                stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
                self.path = _EVIDENCE / f"{stamp}-{os.getpid()}.txt"
                self.path.write_text("== fingerprint at session start\n" + self.start
                                     + "== fingerprint at the first failure\n"
                                     + _fingerprint())
            with open(self.path, "a") as fh:
                when = getattr(report, "when", "collect")
                fh.write(f"== FAILED {report.nodeid} ({when})\n{report.longreprtext}\n")
        except OSError:  # the evidence is best effort; the session goes on as it would
            pass


def pytest_configure(config):
    config.pluginmanager.register(_Evidence(), "failure-evidence")
