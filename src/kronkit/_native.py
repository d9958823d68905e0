"""Build and load the C kernel: the split-flow network, ``_splitflow.c``,
the canonical form of small graphs, ``_canon.c``, and the residue
sampler, ``_residue.c``: seeded PCG64 streams, the rejection loop and its
verdicts.

The sources are compiled on first use with the system C compiler into one
library in the per-user cache (``$XDG_CACHE_HOME/kronkit``, else
``~/.cache/kronkit``), under a name keyed by the sha256 of every source and
the compiler flags, so a changed kernel is never loaded from a stale build.
The compiler writes a temporary file that ``os.replace`` then moves into
place, so processes that build at the same time, such as pool workers, each
load a complete library.

:func:`library` raises :class:`~kronkit.errors.KernelBuildError`, naming
the compiler, the cache and the cause, when a source, the compiler or the
cache is unusable.  No computation falls back to Python then: the Python
twins serve only inputs past the kernel's 64-bit masks, and the residue
sampler has none.
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

from .errors import KernelBuildError

SOURCES = tuple(Path(__file__).with_name(name)
                for name in ("_splitflow.c", "_canon.c", "_residue.c"))
COMPILER = "cc"
FLAGS = ("-O2", "-shared", "-fPIC")

_WORDS = ctypes.POINTER(ctypes.c_uint64)
_UBYTES, _BYTES = ctypes.POINTER(ctypes.c_ubyte), ctypes.POINTER(ctypes.c_byte)
_INT, _INT64 = ctypes.c_int, ctypes.c_int64
# The return type, then the argument types, of each kernel entry point.
_ENTRIES = {
    "splitflow_init": (None, _WORDS),
    "splitflow_max_flow": (_INT, _WORDS, _INT, _INT, _INT, _WORDS),
    "splitflow_min_separators": (_INT64, _WORDS, _INT, _INT, _WORDS, _WORDS, _INT64),
    "splitflow_min_cuts": (_INT64, _WORDS, _INT, _WORDS, _INT64, _UBYTES, _BYTES),
    "canon_key": (_INT, _INT, _WORDS, _WORDS),
    "canon_children": (_INT, _INT, _WORDS, _INT, _WORDS),
    "residue_seed": (_INT, _WORDS, _INT, _WORDS),
    "residue_words": (None, _WORDS, _INT, _WORDS),
    "residue_choices": (_INT, _WORDS, _INT, _INT, _INT, _WORDS),
    "residue_sample": (_INT, _INT, _WORDS, _INT, _INT, _WORDS, _INT, _INT64,
                       _WORDS, _WORDS, _WORDS),
    "residue_verdicts": (_INT, _INT, _WORDS, _INT, _WORDS, _INT, _WORDS, _WORDS),
}


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "kronkit"


def _build(path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run([COMPILER, *FLAGS, "-o", tmp, *map(str, SOURCES)],
                              capture_output=True, errors="replace", timeout=300)
        if done.returncode:
            errors = [line for line in done.stderr.splitlines() if "error" in line]
            raise RuntimeError(f"the compiler exited with status {done.returncode}"
                               + "".join(f": {line}" for line in errors[:1]))
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
def library() -> ctypes.CDLL:
    """The loaded kernel, built first if the cache lacks it; raises
    :class:`KernelBuildError` when it can be neither built nor loaded."""
    cache = "the cache"  # Path.home() raises when there is no home directory
    try:
        cache = _cache_dir()
        path = library_path()
        if not path.exists():
            _build(path)
        lib = ctypes.CDLL(str(path))
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        raise KernelBuildError(f"cannot build the C kernel with {COMPILER!r} "
                               f"in {cache}: {exc}") from exc
    for name, (restype, *argtypes) in _ENTRIES.items():
        entry = getattr(lib, name)
        entry.restype, entry.argtypes = restype, argtypes
    return lib


def seeded_stream(*entropy: int) -> ctypes.Array:
    """The four words, the state's high and low halves and then the
    increment's, of ``PCG64(SeedSequence(list(entropy)))`` for one or two
    integers in ``0 .. 2**64 - 1``, seeded by the kernel."""
    stream = (ctypes.c_uint64 * 4)()
    library().residue_seed((ctypes.c_uint64 * 2)(*entropy), len(entropy), stream)
    return stream
