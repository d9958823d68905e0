"""Run the kernel's tests against a build with AddressSanitizer and
UndefinedBehaviorSanitizer, which stop the run at the first out-of-bounds
access, use after free or undefined operation in the C kernel.

The sanitized kernel is built like any other, on first use, into the
per-user cache, under a name keyed by its flags.  The sanitizer's runtime
must be loaded before the interpreter, so run this from the repository
root as

    LD_PRELOAD=$(cc -print-file-name=libasan.so) ASAN_OPTIONS=detect_leaks=0 \\
        PYTHONPATH=src python tests/sanitized.py

Further arguments go to pytest.  pytest captures output at the level of
Python's streams only, so that a sanitizer's report, which it writes to
file descriptor 2 just before it aborts the process, is not lost.
"""

import sys
from pathlib import Path

import pytest

from kronkit import _native

TESTS = Path(__file__).resolve().parent
FILES = ("test_native.py", "test_connectivity.py", "test_corpus.py",
         "test_product_analysis.py", "test_graphs.py")

if __name__ == "__main__":
    # Rebound before the first library() call, so every load builds with it.
    _native.FLAGS = (*_native.FLAGS, "-g", "-fsanitize=address,undefined",
                     "-fno-sanitize-recover=all")
    sys.exit(pytest.main([str(TESTS / name) for name in FILES]
                         + ["--capture=sys"] + sys.argv[1:]))
