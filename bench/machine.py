"""The machine and build a benchmark result was measured on."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

from threads import BLAS_THREADS

OPENBLAS_THREAD_SYMBOLS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        return {"name": "unknown", "version": "unknown"}


def openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if one is loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def source_digest(src: Path) -> str:
    """sha256 over the package's files, so a result names the code it ran."""
    h = hashlib.sha256()
    for path in sorted(p for p in (src / "trainmem").rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_state(root: Path) -> tuple[str, bool | None]:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)", None
    try:
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
        status = subprocess.run(["git", "-C", str(root), "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git failed)", None
    return head.stdout.strip(), bool(status.stdout.strip())


def describe(root: Path) -> dict:
    commit, dirty = git_state(root)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": openblas_threads(),
        "git_commit": commit,
        "git_dirty": dirty,
        "src_sha256": source_digest(root / "src"),
    }
