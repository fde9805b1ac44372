"""Influence-graph representation and neighbourhood averaging."""

import numpy as np
import pytest

from epigame import GraphError, InfluenceGraph


class TestComplete:
    def test_includes_self(self):
        g = InfluenceGraph.complete(4)
        assert g.is_complete
        np.testing.assert_array_equal(g.neighbors(2), [0, 1, 2, 3])
        np.testing.assert_array_equal(g.degrees, 4)

    def test_neighbor_mean_is_population_mean(self):
        g = InfluenceGraph.complete(5)
        v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        np.testing.assert_allclose(g.neighbor_mean(v), 3.0)

    def test_needs_two_nodes(self):
        with pytest.raises(GraphError):
            InfluenceGraph.complete(1)

    def test_no_quadratic_storage(self):
        # a million-node complete graph must construct instantly
        g = InfluenceGraph.complete(1_000_000)
        assert g.n == 1_000_000


class TestAdjacency:
    def test_neighbor_mean_row_normalised(self):
        g = InfluenceGraph.from_adjacency([[1, 2], [0], [0, 1]])
        v = np.array([10.0, 20.0, 30.0])
        np.testing.assert_allclose(g.neighbor_mean(v), [25.0, 10.0, 15.0])

    def test_directed_edges_are_respected(self):
        # 0 observes 1, but 1 observes only itself-equivalent 2
        g = InfluenceGraph.from_adjacency([[1], [2], [0]])
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(g.neighbor_mean(v), [2.0, 3.0, 1.0])

    def test_neighbours_sorted_and_deduplicated(self):
        g = InfluenceGraph.from_adjacency([[2, 1], [0], [0]])
        np.testing.assert_array_equal(g.neighbors(0), [1, 2])
        with pytest.raises(GraphError):
            InfluenceGraph.from_adjacency([[1, 1], [0]])

    @pytest.mark.parametrize(
        "lists",
        [
            [[1], []],          # out-degree zero
            [[1], [5]],         # index out of range
            [[1], [-1]],        # negative index
        ],
    )
    def test_structural_validation(self, lists):
        with pytest.raises(GraphError):
            InfluenceGraph.from_adjacency(lists)

    def test_vector_length_checked(self):
        g = InfluenceGraph.from_adjacency([[1], [0]])
        with pytest.raises(GraphError):
            g.neighbor_mean(np.zeros(3))


class TestSerialization:
    def test_complete_round_trip(self):
        g = InfluenceGraph.complete(7)
        assert InfluenceGraph.from_dict(g.to_dict()) == g

    def test_adjacency_round_trip(self):
        g = InfluenceGraph.from_adjacency([[1, 2], [0], [0, 1]])
        assert InfluenceGraph.from_dict(g.to_dict()) == g

    def test_unknown_type(self):
        with pytest.raises(GraphError):
            InfluenceGraph.from_dict({"type": "hypercube", "n": 8})

    @pytest.mark.parametrize("d", [{"type": "complete"}, {"type": "adjacency"}])
    def test_missing_size_or_lists(self, d):
        with pytest.raises(GraphError, match="needs"):
            InfluenceGraph.from_dict(d)

    def test_equality_distinguishes_structure(self):
        a = InfluenceGraph.from_adjacency([[1], [0]])
        b = InfluenceGraph.from_adjacency([[1], [1]])
        assert a != b
        assert a != InfluenceGraph.complete(2)
