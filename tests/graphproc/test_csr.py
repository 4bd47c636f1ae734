"""Unit tests for the CSR representation: equivalence with dict kernels."""

import random

import pytest

from repro.graphproc import Graph, pagerank, random_graph
from repro.graphproc.csr import CSRGraph, pagerank_csr


def sample_graph(seed=1, n=150, p=0.05, directed=False):
    return random_graph(n, p, directed=directed, rng=random.Random(seed))


class TestCSRGraph:
    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(Graph())

    def test_structure_matches_source(self):
        graph = sample_graph()
        csr = CSRGraph(graph)
        assert csr.vertex_count == graph.vertex_count
        # Undirected graphs store both directions.
        assert csr.directed_edge_count == 2 * graph.edge_count
        for v in graph.vertices():
            index = csr.index_of[v]
            mine = {csr.vertex_of[u] for u in csr.neighbors_of(index)}
            assert mine == set(graph.neighbors(v))

    def test_directed_structure(self):
        graph = Graph(directed=True)
        graph.add_edge(0, 1)
        graph.add_edge(0, 2)
        csr = CSRGraph(graph)
        assert csr.directed_edge_count == 2
        assert len(csr.neighbors_of(csr.index_of[1])) == 0


class TestPageRankEquivalence:
    def test_matches_dict_pagerank(self):
        graph = sample_graph(seed=5)
        expected, _ = pagerank(graph, damping=0.85, iterations=25)
        actual, _ = pagerank_csr(CSRGraph(graph), damping=0.85,
                                 iterations=25)
        assert set(actual) == set(expected)
        for vertex, value in expected.items():
            assert actual[vertex] == pytest.approx(value, abs=1e-10)

    def test_dangling_vertices_match(self):
        graph = Graph(directed=True)
        graph.add_edge(0, 1)
        graph.add_edge(2, 1)
        expected, _ = pagerank(graph, iterations=40)
        actual, _ = pagerank_csr(CSRGraph(graph), iterations=40)
        for vertex, value in expected.items():
            assert actual[vertex] == pytest.approx(value, abs=1e-10)

    def test_validation(self):
        csr = CSRGraph(Graph.from_edges([(0, 1)]))
        with pytest.raises(ValueError):
            pagerank_csr(csr, damping=1.0)
        with pytest.raises(ValueError):
            pagerank_csr(csr, iterations=0)

    def test_ranks_sum_to_one(self):
        ranks, _ = pagerank_csr(CSRGraph(sample_graph(seed=6)),
                                iterations=30)
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-9)


def test_csr_pagerank_faster_on_large_graph():
    """The representation pays off for real: vectorized CSR PageRank
    beats the dict implementation on a non-trivial graph."""
    import time

    graph = random_graph(3000, p=0.004, rng=random.Random(7))
    csr = CSRGraph(graph)

    start = time.perf_counter()
    pagerank(graph, iterations=10)
    dict_seconds = time.perf_counter() - start

    start = time.perf_counter()
    pagerank_csr(csr, iterations=10)
    csr_seconds = time.perf_counter() - start

    assert csr_seconds < dict_seconds
