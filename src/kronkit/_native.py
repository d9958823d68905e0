"""Build and load the C kernel: the split-flow network, ``_splitflow.c``,
the canonical form of small graphs and the table of seen forms,
``_canon.c``, the residue sampler, ``_residue.c``: seeded PCG64 streams,
the rejection loop and its verdicts, and the graph6 payload reader,
``_graph6.c``.

The sources are compiled on first use with the system C compiler into one
library in the per-user cache (``$XDG_CACHE_HOME/kronkit``, else
``~/.cache/kronkit``), under a name keyed by the flags and by the sha256
of every source and the flags, so a changed kernel is never loaded from a
stale build.  The compiler writes a temporary file that ``os.replace`` then
moves into place, so processes that build at the same time, such as pool
workers, each load a complete library.  A build then deletes the cache's
other builds with its flags, so a source tree whose build was deleted, such
as a second checkout at another commit, builds again on its next run.

:func:`library` raises :class:`~kronkit.errors.KernelBuildError`, naming
the compiler, the cache and the cause, when a source, the compiler or the
cache is unusable.  No computation falls back to Python then: each of the
four computations has the kernel as its only route, at every input size.
Masks cross into the kernel as arrays of 64-bit words, lowest bits first,
a fixed number of words per mask (:func:`words` and :func:`masks`).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import platform
from pathlib import Path
from typing import Sequence

from .errors import KernelBuildError

SOURCES = tuple(Path(__file__).with_name(name)
                for name in ("_splitflow.c", "_canon.c", "_residue.c", "_graph6.c"))
COMPILER = "cc"
FLAGS = ("-O2", "-shared", "-fPIC")

_WORDS, _INTS = ctypes.POINTER(ctypes.c_uint64), ctypes.POINTER(ctypes.c_int)
_INT, _INT64 = ctypes.c_int, ctypes.c_int64
# The largest C int, so the largest size or count any entry takes.
INT_MAX = 2**31 - 1
# What an entry returns when it cannot allocate a buffer.
NO_MEMORY = -2
# The return type, then the argument types, of each kernel entry point.
_ENTRIES = {
    "splitflow_init": (None, _WORDS),
    "splitflow_product": (None, _WORDS, _INT, _WORDS, _INT),
    "splitflow_max_flow": (_INT, _WORDS, _INT, _INT, _INT),
    # A pointer to a pointer: where the kernel puts the block it allocates.
    "splitflow_min_cuts": (_INT64, _WORDS, _INT, ctypes.POINTER(_INTS)),
    "splitflow_pairs": (_INT, _WORDS, _INT, ctypes.POINTER(_INTS)),
    "splitflow_free": (None, ctypes.c_void_p),
    "canon_key": (_INT, _INT, _WORDS, _WORDS),
    "canon_seen_new": (ctypes.c_void_p,),
    "canon_new_children": (_INT, ctypes.c_void_p, _INT, _WORDS, _INT, _WORDS),
    "canon_seen_free": (None, ctypes.c_void_p),
    "residue_seed": (_INT, _WORDS, _INT, _WORDS),
    "residue_words": (None, _WORDS, _INT, _WORDS),
    "residue_choices": (_INT, _WORDS, _INT, _INT, _INT, _WORDS),
    "residue_sample": (_INT, _INT, _WORDS, _INT, _INT, ctypes.c_uint64, _INT, _INT64,
                       _WORDS, _WORDS, _WORDS),
    "residue_verdicts": (_INT, _INT, _WORDS, _INT, _WORDS, _INT, _WORDS, _WORDS),
    "graph6_adjacency": (None, ctypes.c_char_p, _INT, _INT, _WORDS),
}


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "kronkit"


def _build(path: Path) -> None:
    import subprocess  # only a build needs these, so they stay out of import
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    os.close(fd)
    try:
        try:
            done = subprocess.run([COMPILER, *FLAGS, "-o", tmp, *map(str, SOURCES)],
                                  capture_output=True, errors="replace", timeout=300)
        except subprocess.SubprocessError as exc:
            raise RuntimeError(str(exc)) from exc
        if done.returncode:
            errors = [line for line in done.stderr.splitlines() if "error" in line]
            raise RuntimeError(f"the compiler exited with status {done.returncode}"
                               + "".join(f": {line}" for line in errors[:1]))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # Superseded builds with these flags go, as do the old names: those of
    # the flow-only library and those without the flags' field.
    flags = path.name.split("-")[1]
    for pattern in (f"kernel-{flags}-*.so", f"kernel-{'[0-9a-f]' * 16}-*.so", "splitflow-*.so"):
        for stale in path.parent.glob(pattern):
            if stale != path:
                with contextlib.suppress(OSError):
                    stale.unlink()


def library_path() -> Path:
    """Where the build of the current sources and flags is cached."""
    flags, digest = " ".join(FLAGS).encode(), hashlib.sha256()
    for source in SOURCES:
        digest.update(source.name.encode() + b"\0" + source.read_bytes() + b"\0")
    digest.update(flags)
    return _cache_dir() / (f"kernel-{hashlib.sha256(flags).hexdigest()[:8]}-"
                           f"{digest.hexdigest()[:16]}-{platform.machine()}.so")


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
    except (OSError, RuntimeError) as exc:
        raise KernelBuildError(f"cannot build the C kernel with {COMPILER!r} "
                               f"in {cache}: {exc}") from exc
    for name, (restype, *argtypes) in _ENTRIES.items():
        entry = getattr(lib, name)
        entry.restype, entry.argtypes = restype, argtypes
    return lib


def words(masks: Sequence[int], width: int) -> ctypes.Array:
    """The kernel's array of ``masks``, ``width`` words each, low word first."""
    if width == 1:
        array = (ctypes.c_uint64 * len(masks))()
        array[:] = masks  # faster than the constructor's arguments
        return array
    raw = b"".join(m.to_bytes(8 * width, "little") for m in masks)
    return (ctypes.c_uint64 * (width * len(masks))).from_buffer_copy(raw)


def masks(words: ctypes.Array, width: int) -> list[int]:
    """The masks of consecutive groups of ``width`` words, low word first."""
    if width == 1:
        return words[:]  # a list of Python ints slices faster than ctypes
    raw, step = bytes(words), 8 * width
    return [int.from_bytes(raw[i:i + step], "little") for i in range(0, len(raw), step)]


def seeded_stream(*entropy: int) -> ctypes.Array:
    """The four words, the state's high and low halves and then the
    increment's, of ``PCG64(SeedSequence(list(entropy)))`` for one or two
    integers in ``0 .. 2**64 - 1``, seeded by the kernel."""
    stream = (ctypes.c_uint64 * 4)()
    library().residue_seed((ctypes.c_uint64 * 2)(*entropy), len(entropy), stream)
    return stream
