"""Build and load the C kernel: the split-flow network, ``_splitflow.c``,
the canonical form of small graphs, ``_canon.c``, and the residue
sampler's rejection loop with its verdicts, ``_residue.c``.

The sources are compiled on first use with the system C compiler into one
library in the per-user cache (``$XDG_CACHE_HOME/kronkit``, else
``~/.cache/kronkit``), under a name keyed by the sha256 of every source and
the compiler flags, so a changed kernel is never loaded from a stale build.
The compiler writes a temporary file that ``os.replace`` then moves into
place, so processes that build at the same time, such as pool workers, each
load a complete library.

:func:`library` returns None when a source, the compiler or the cache is
unusable; :mod:`kronkit.connectivity` then uses its Python network, which
gives the same flows, cuts and searches, :mod:`kronkit.corpus` its
isomorphism search, which keeps the same representatives, and
:mod:`kronkit.product_analysis` its numpy sampler and residue checks,
which draw the same removals and give the same verdicts.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import tempfile
from pathlib import Path

SOURCES = tuple(Path(__file__).with_name(name)
                for name in ("_splitflow.c", "_canon.c", "_residue.c"))
COMPILER = "cc"
FLAGS = ("-O2", "-shared", "-fPIC")

_WORDS = ctypes.POINTER(ctypes.c_uint64)


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "kronkit"


def _build(path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([COMPILER, *FLAGS, "-o", tmp, *map(str, SOURCES)],
                       check=True, capture_output=True, timeout=300)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def library_path() -> Path:
    """Where the build of the current sources and flags is cached."""
    digest = hashlib.sha256()
    for source in SOURCES:
        digest.update(source.name.encode() + b"\0" + source.read_bytes() + b"\0")
    digest.update(" ".join(FLAGS).encode())
    return _cache_dir() / f"kernel-{digest.hexdigest()[:16]}-{platform.machine()}.so"


@functools.cache
def library() -> ctypes.CDLL | None:
    """The loaded kernel, built first if the cache lacks it, or None."""
    try:
        path = library_path()
        if not path.exists():
            _build(path)
        lib = ctypes.CDLL(str(path))
    except (OSError, RuntimeError, subprocess.SubprocessError):
        return None
    lib.splitflow_init.argtypes = [_WORDS]
    lib.splitflow_init.restype = None
    lib.splitflow_max_flow.argtypes = [_WORDS, ctypes.c_int, ctypes.c_int,
                                       ctypes.c_int, _WORDS]
    lib.splitflow_max_flow.restype = ctypes.c_int
    lib.splitflow_min_separators.argtypes = [_WORDS, ctypes.c_int, ctypes.c_int,
                                             _WORDS, _WORDS, ctypes.c_int64]
    lib.splitflow_min_separators.restype = ctypes.c_int64
    lib.splitflow_min_cuts.argtypes = [_WORDS, ctypes.c_int, _WORDS, ctypes.c_int64]
    lib.splitflow_min_cuts.restype = ctypes.c_int64
    lib.canon_key.argtypes = [ctypes.c_int, _WORDS, _WORDS]
    lib.canon_key.restype = ctypes.c_int
    lib.canon_children.argtypes = [ctypes.c_int, _WORDS, ctypes.c_int, _WORDS]
    lib.canon_children.restype = ctypes.c_int
    lib.residue_choices.argtypes = [_WORDS, ctypes.c_int, ctypes.c_int,
                                    ctypes.c_int, _WORDS]
    lib.residue_choices.restype = ctypes.c_int
    lib.residue_sample.argtypes = [ctypes.c_int, _WORDS, ctypes.c_int, ctypes.c_int,
                                   _WORDS, ctypes.c_int, ctypes.c_int64,
                                   _WORDS, _WORDS, _WORDS]
    lib.residue_sample.restype = ctypes.c_int
    lib.residue_verdicts.argtypes = [ctypes.c_int, _WORDS, _WORDS, ctypes.c_int,
                                     _WORDS]
    lib.residue_verdicts.restype = ctypes.c_int
    return lib
