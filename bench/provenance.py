"""Where a benchmark result came from: machine, interpreter, numpy and its
BLAS, the BLAS thread setting, and the exact qrelay sources."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
from pathlib import Path

import numpy as np

QRELAY_SRC = Path(__file__).resolve().parent.parent / "src" / "qrelay"


def git_tree_hash(path: Path) -> str:
    """The object id git gives the tree at ``path``, computed from the files
    so that it also works outside a git checkout. Byte-code caches, which
    git ignores, are skipped."""
    entries = []
    for child in path.iterdir():
        if child.name == "__pycache__" or child.suffix == ".pyc":
            continue
        if child.is_dir():
            sort_key = child.name + "/"
            mode, digest = b"40000", bytes.fromhex(git_tree_hash(child))
        else:
            sort_key = child.name
            mode = b"100755" if os.access(child, os.X_OK) else b"100644"
            data = child.read_bytes()
            digest = hashlib.sha1(b"blob %d\0" % len(data) + data).digest()
        entries.append((sort_key.encode(), mode + b" " + child.name.encode() + b"\0" + digest))
    body = b"".join(entry for _, entry in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def blas_info() -> dict | None:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, ValueError):
        return None
    return {"name": deps.get("name"), "version": deps.get("version")}


def blas_runtime_threads() -> int | None:
    """Threads the loaded OpenBLAS reports using, when it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance(seed: int, thread_vars) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads_env": {var: os.environ.get(var) for var in thread_vars},
        "blas_threads_runtime": blas_runtime_threads(),
        "qrelay_src_tree": git_tree_hash(QRELAY_SRC),
        "seed": seed,
    }
