"""The environment record that goes with every benchmark result.

Results from two machines, or from two BLAS thread settings, differ for
reasons outside rlab; the record makes that visible instead of silent.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import re
import subprocess

_THREAD_VAR = re.compile(r"THREAD|^OMP_|^OPENBLAS_|^MKL_|^BLIS_|^GOTO|^VECLIB_|^KMP_|^NUMEXPR_")


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest(src: str) -> str:
    """sha256 over the package's .py files, so a checkout without git is identified."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _blas() -> dict:
    """Name and version numpy was built against, and the threads the loaded library runs."""
    import numpy as np

    info: dict = {"name": None, "version": None, "threads": None, "library": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if getter is None:
                    continue
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                info["library"] = os.path.basename(path)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
                return info
    return info


def environment_record(root: str, workload: str, seed: int, workers: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "workers": workers,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(os.path.join(root, "src", "rlab")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if _THREAD_VAR.search(k)},
    }
