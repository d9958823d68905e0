"""Core graph type, small-graph generators, and graph6 text I/O.

Vertices are dense integer ids ``0..order-1``.  Adjacency is one Python int
bitmask per vertex; arbitrary-precision ints cover every order this toolkit
targets while keeping neighborhood tests and traversals cheap for the flows,
the cut enumeration and the residue sampler.
"""

from __future__ import annotations

import binascii
import ctypes
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import _native
from .errors import Graph6Error, UnsupportedSizeError

# Largest order the 3-byte graph6 size field can express.
GRAPH6_MAX_ORDER = 258047
# A string of the graph6 alphabet, the characters 63 to 126.
_GRAPH6_TEXT = re.compile("[?-~]+")
# Each byte with its bits in reverse order, and base64's 64 digits mapped to
# the graph6 characters of the same 6-bit values.
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)))
# Payload bits that encode_graph6 packs into one integer before it sets the
# integer's whole bytes aside.
_FLUSH_BITS = 1 << 12


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..order-1``.

    ``adj[v]`` is the neighbor bitmask of vertex ``v``.  Instances are
    immutable and safe to share read-only across workers.
    """

    order: int
    adj: tuple[int, ...]

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    @property
    def min_degree(self) -> int:
        """Smallest vertex degree; 0 for the empty graph."""
        return min(map(int.bit_count, self.adj), default=0)

    def full_mask(self) -> int:
        return (1 << self.order) - 1


def make_complete(n: int) -> Graph:
    """Complete graph on ``n`` vertices."""
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def make_cycle(n: int) -> Graph:
    """Cycle on ``n >= 3`` vertices with edges {i, (i+1) mod n}."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    adj = [0] * n
    for i in range(n):
        j = (i + 1) % n
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def random_graph(order: int, edge_probability: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi graph: each pair is an edge with the given probability.

    The same ``(order, edge_probability, seed)`` always reproduces the same
    graph; pairs are drawn in fixed ``(u, v), u < v`` order, each against
    the next double of the PCG64 stream seeded with ``seed % 2**64``, read
    as ``Generator.random`` reads it off the stream's next word ``w``: ``(w
    >> 11) * 2**-53``.  The kernel steps the stream, a row's words at a time.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError(f"edge probability must be in [0,1], got {edge_probability}")
    stream = _native.seeded_stream(seed % 2**64)
    words = (ctypes.c_uint64 * order)()
    adj = [0] * order
    for u in range(order):
        _native.library().residue_words(stream, order - 1 - u, words)
        for v, w in zip(range(u + 1, order), words):
            if (w >> 11) * 2.0**-53 < edge_probability:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(order, tuple(adj))


# -- traversal ---------------------------------------------------------------

def reachable_mask(adj: Sequence[int], alive: int, start: int) -> int:
    """Bitmask of vertices reachable from ``start`` within the ``alive`` set.

    ``start`` must be a member of ``alive``.
    """
    reach = 1 << start
    frontier = reach
    while frontier:
        acc = 0
        m = frontier
        while m:
            low = m & -m
            acc |= adj[low.bit_length() - 1]
            m ^= low
        frontier = acc & alive & ~reach
        reach |= frontier
    return reach


def is_connected(g: Graph) -> bool:
    """True when ``g`` has one component (vacuously true for order <= 1)."""
    if g.order <= 1:
        return True
    full = g.full_mask()
    return reachable_mask(g.adj, full, 0) == full


# -- graph6 ------------------------------------------------------------------

def encode_graph6(g: Graph) -> str:
    """Standard header-less graph6 encoding of ``g``.

    Orders up to 62 use the one-byte size field, orders up to
    ``GRAPH6_MAX_ORDER`` the 3-byte extended field.  The payload's bits are
    packed into an integer, column by column, lowest bit first, whose whole
    bytes are set aside once it holds ``_FLUSH_BITS`` bits, so that each
    shift stays short and the encoding takes time linear in the payload.
    With the bits of each byte reversed the bytes are the payload's bit
    stream, whose base64 groups are its 6-bit groups, most significant bit
    first.
    """
    n = g.order
    if n > GRAPH6_MAX_ORDER:
        raise UnsupportedSizeError(
            f"graph6 supports order <= {GRAPH6_MAX_ORDER}, got {n}")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr((n >> 12 & 63) + 63) + chr((n >> 6 & 63) + 63) + chr((n & 63) + 63)
    packed = bytearray()
    stream = bits = 0
    for j, col in enumerate(g.adj):
        stream |= (col & ((1 << j) - 1)) << bits
        bits += j
        if bits >= _FLUSH_BITS:
            packed += (stream & ((1 << (bits & ~7)) - 1)).to_bytes(bits >> 3, "little")
            stream >>= bits & ~7
            bits &= 7
    packed += stream.to_bytes((bits + 7) // 8, "little")
    groups = binascii.b2a_base64(packed.translate(_REVERSED_BITS), newline=False)
    pairs = n * (n - 1) // 2
    return head + groups[:(pairs + 5) // 6].translate(_BASE64_TO_GRAPH6).decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Decode a one-line header-less graph6 string.

    Raises :class:`Graph6Error` with the byte offset of the defect for
    malformed input.  ``parse_graph6(encode_graph6(g)) == g`` for every graph,
    and re-encoding a canonical input reproduces it byte for byte.  The
    string is checked here; the kernel reads the edge payload.
    """
    s = text.rstrip("\r\n")
    if not _GRAPH6_TEXT.fullmatch(s):
        if s == "":
            raise Graph6Error("empty graph6 string", offset=0)
        pos, ch = next((pos, ch) for pos, ch in enumerate(s) if not "?" <= ch <= "~")
        raise Graph6Error(f"character {ch!r} outside graph6 alphabet", offset=pos)
    data = s.encode("ascii")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("8-byte size field is not supported", offset=1)
        if len(data) < 4:
            raise Graph6Error("truncated extended size field", offset=len(s))
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        body_offset = 4
    else:
        n = data[0] - 63
        body_offset = 1
    pair_bits = n * (n - 1) // 2
    want = (pair_bits + 5) // 6
    body = data[body_offset:]
    if len(body) < want:
        raise Graph6Error(
            f"edge payload truncated: order {n} needs {want} groups, got {len(body)}",
            offset=len(s))
    if len(body) > want:
        raise Graph6Error("trailing characters after edge payload",
                          offset=body_offset + want)
    if want and (body[-1] - 63) & ((1 << (6 * want - pair_bits)) - 1):
        raise Graph6Error("nonzero padding bits", offset=len(s) - 1)
    width = max(1, (n + 63) // 64)
    adj = (ctypes.c_uint64 * (n * width))()
    _native.library().graph6_adjacency(body, n, width, adj)
    return Graph(n, tuple(_native.masks(adj, width)))
