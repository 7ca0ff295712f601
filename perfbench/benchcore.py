"""Shared pieces of the benchmark: span recording, statistics, provenance.

Spans are recorded from the benchmark's own code only: either around a call
the benchmark makes, or around an *instance-level* wrapper that shadows one
method of one object the benchmark built.  Nothing in ``src/`` is patched at
class or module level, so the untraced run executes exactly the program's
own code.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of a non-empty sample."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SpanRecorder:
    """In-memory span log with instance-level method wrappers.

    ``wrap(obj, attr, name)`` registers a wrapper for ``obj.attr``;
    ``attach()`` installs every registered wrapper as an instance attribute
    and ``detach()`` removes them again, so traced and untraced steps can be
    interleaved in one process.  Spans are ``(name, start, end, parent)``
    tuples, where ``parent`` is the index of the enclosing span or -1.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._wrapped: list[tuple] = []
        self._attached = False

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, obj, attr: str, name: str) -> None:
        """Register a span-recording wrapper for one object's method."""
        original = getattr(obj, attr)
        had_own = attr in vars(obj)
        span = self.span

        def wrapper(*args, **kwargs):
            with span(name):
                return original(*args, **kwargs)

        self._wrapped.append((obj, attr, wrapper, had_own, original))

    def attach(self) -> None:
        """Install every registered wrapper."""
        if not self._attached:
            for obj, attr, wrapper, _, _ in self._wrapped:
                setattr(obj, attr, wrapper)
            self._attached = True

    def detach(self) -> None:
        """Remove every installed wrapper, restoring the original lookups."""
        if self._attached:
            for obj, attr, _, had_own, original in self._wrapped:
                if had_own:
                    setattr(obj, attr, original)
                else:
                    delattr(obj, attr)
            self._attached = False

    # ------------------------------------------------------------------
    def inclusive(self) -> dict[str, float]:
        """Total seconds per span name (nested spans counted in full)."""
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_time(self) -> dict[str, float]:
        """Seconds per span name not covered by its direct child spans."""
        out = self.inclusive()
        for name, start, end, parent in self.spans:
            if parent >= 0:
                pname = self.spans[parent][0]
                out[pname] = out.get(pname, 0.0) - (end - start)
        return out

    def coverage(self, root: str) -> float:
        """Share of all ``root`` spans' wall time covered by their children."""
        total = sum(end - start for name, start, end, _ in self.spans if name == root)
        roots = {i for i, (name, *_) in enumerate(self.spans) if name == root}
        covered = sum(
            end - start for _, start, end, parent in self.spans if parent in roots
        )
        return covered / total if total > 0 else 0.0


def source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    """The checkout's commit, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def blas_build() -> str:
    """Name, version and configuration of the BLAS numpy was built against."""
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return " ".join(
        str(info.get(key, "")) for key in ("name", "version", "openblas configuration")
    ).strip()


def provenance(seed: int, samples: dict) -> dict:
    """Where and on what a result was measured.

    ``machine`` fingerprints everything that changes absolute timings, so
    two results are comparable only when their fingerprints are equal.
    """
    import numpy as np

    machine = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    fingerprint = hashlib.sha256(
        json.dumps(machine, sort_keys=True).encode()
    ).hexdigest()[:12]
    return {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "machine_fingerprint": fingerprint,
        "machine": machine,
        "argv": sys.argv[1:],
        "seed": seed,
        "samples": samples,
    }


def median(values) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))
