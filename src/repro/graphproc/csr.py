"""A CSR (compressed sparse row) graph with vectorized kernels.

The platform models of :mod:`repro.graphproc.platforms` capture
*modeled* cost differences; this module provides a *real* one:
PageRank on a cache-friendly CSR representation with numpy-vectorized
inner loops.  The ``test_exp_representation`` benchmark measures the
actual wall-clock gap against the dict-adjacency implementations —
the "platform" corner of the P-A-D triangle ([45]) made concrete in
this repository's own code.
"""

from __future__ import annotations

from itertools import chain

import numpy

from .algorithms import OpCount
from .graph import Graph

__all__ = ["CSRGraph", "pagerank_csr"]


class CSRGraph:
    """An immutable CSR snapshot of a :class:`~repro.graphproc.graph.Graph`.

    Vertices are re-indexed to dense integers ``0..n-1``;
    ``index_of`` / ``vertex_of`` map between the original ids and CSR
    positions.
    """

    def __init__(self, graph: Graph) -> None:
        vertices = list(graph.vertices())
        if not vertices:
            raise ValueError("empty graph")
        self.vertex_of = vertices
        self._index_of: dict | None = None
        n = len(vertices)
        # graph.vertices() iterates the adjacency dict, so its values
        # are the per-vertex neighbor dicts in exactly index order and
        # insertion order within each — one flattened sweep therefore
        # yields every edge at its final CSR position, with no per-edge
        # cursor arithmetic; the flattening itself runs in C iterators.
        adjacency = graph._adjacency.values()
        self.indptr = numpy.empty(n + 1, dtype=numpy.int64)
        self.indptr[0] = 0
        numpy.cumsum(numpy.fromiter(map(len, adjacency), dtype=numpy.int64,
                                    count=n), out=self.indptr[1:])
        m = int(self.indptr[-1])
        # Fast path: when vertex ids are already the dense indices
        # 0..n-1 (every built-in generator), the id->index map is the
        # identity and the flattened targets fill the array directly,
        # without materializing an intermediate list.
        if vertices == list(range(n)):
            self.indices = numpy.fromiter(chain.from_iterable(adjacency),
                                          dtype=numpy.int64, count=m)
        else:
            index_of = self.index_of
            self.indices = numpy.fromiter(
                (index_of[u] for row in adjacency for u in row),
                dtype=numpy.int64, count=m)
        self.weights = numpy.fromiter(
            chain.from_iterable(map(dict.values, adjacency)),
            dtype=numpy.float64, count=m)

    @property
    def index_of(self) -> dict:
        """Original-id -> CSR-position map (built on first use)."""
        if self._index_of is None:
            self._index_of = {v: i for i, v in enumerate(self.vertex_of)}
        return self._index_of

    @property
    def vertex_count(self) -> int:
        """Number of vertices."""
        return len(self.vertex_of)

    @property
    def directed_edge_count(self) -> int:
        """Stored (directed) adjacency entries."""
        return len(self.indices)

    def neighbors_of(self, index: int) -> numpy.ndarray:
        """CSR neighbor slice of one vertex position."""
        return self.indices[self.indptr[index]:self.indptr[index + 1]]


def pagerank_csr(csr: CSRGraph, damping: float = 0.85,
                 iterations: int = 20) -> tuple[dict[int, float], OpCount]:
    """PageRank over CSR with fully vectorized iterations.

    Matches :func:`repro.graphproc.algorithms.pagerank` (same damping,
    same dangling-mass redistribution) but runs the per-iteration
    scatter as one ``numpy.add.at`` call.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0, 1)")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    ops = OpCount()
    n = csr.vertex_count
    out_degree = numpy.diff(csr.indptr).astype(numpy.float64)
    dangling_mask = out_degree == 0
    # Source vertex of every CSR entry, precomputed once.
    sources = numpy.repeat(numpy.arange(n),
                           numpy.diff(csr.indptr).astype(numpy.int64))
    rank = numpy.full(n, 1.0 / n)
    for _ in range(iterations):
        ops.iterations += 1
        ops.vertices_touched += n
        ops.edges_scanned += csr.directed_edge_count
        dangling = float(rank[dangling_mask].sum())
        shares = numpy.zeros(n)
        safe_degree = numpy.where(dangling_mask, 1.0, out_degree)
        contributions = (rank / safe_degree)[sources]
        numpy.add.at(shares, csr.indices, contributions)
        base = (1.0 - damping) / n + damping * dangling / n
        rank = base + damping * shares
    return ({csr.vertex_of[i]: float(r) for i, r in enumerate(rank)}, ops)
