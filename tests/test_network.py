"""Influence-graph representation and neighbourhood averaging."""

import numpy as np
import pytest
import scipy.sparse as sp

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

    def test_is_the_graph_without_adjacency_lists(self):
        assert InfluenceGraph(3) == InfluenceGraph.complete(3)
        assert InfluenceGraph(3).is_complete
        with pytest.raises(TypeError):
            InfluenceGraph(3, _complete=True)


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
            [["a"], [0]],       # not a number
        ],
    )
    def test_structural_validation(self, lists):
        with pytest.raises(GraphError):
            InfluenceGraph.from_adjacency(lists)

    @pytest.mark.parametrize("index", [1.7, 0.5, float("nan"), float("inf")])
    def test_non_integral_index_is_rejected(self, index):
        # an index is never truncated to the node it is not
        with pytest.raises(GraphError, match="node 0"):
            InfluenceGraph.from_adjacency([[index], [0]])

    def test_integral_float_index_reads_as_that_node(self):
        g = InfluenceGraph.from_adjacency([[2.0, 1], [0.0], [1]])
        np.testing.assert_array_equal(g.neighbors(0), [1, 2])
        assert g.neighbors(0).dtype == np.int64
        assert g == InfluenceGraph.from_adjacency([[1, 2], [0], [1]])

    def test_one_list_per_node(self):
        with pytest.raises(GraphError, match="count must equal n"):
            InfluenceGraph(3, [[1]])

    def test_matrix_keeps_the_graphs_own_indices(self):
        # the product matrix holds the neighbour indices once, as the graph's
        # read-only arrays, wherever scipy keeps their int64 dtype
        g = InfluenceGraph.from_adjacency([[1, 2], [0], [0, 1]])
        if g._w.indices.dtype != np.int64:
            pytest.skip("this scipy copies sparse indices to int32")
        assert np.shares_memory(g._w.indices, g.neighbors(0))
        assert np.shares_memory(g._w.indptr, g._indptr)

    def test_vector_length_checked(self):
        g = InfluenceGraph.from_adjacency([[1], [0]])
        with pytest.raises(GraphError):
            g.neighbor_mean(np.zeros(3))

    def test_every_reader_sees_the_one_adjacency(self):
        rng = np.random.default_rng(4)
        n = 50
        lists = [rng.choice(n, rng.integers(1, 12), replace=False).tolist() for _ in range(n)]
        g = InfluenceGraph.from_adjacency(lists)
        assert g.neighbor_lists() == [sorted(a) for a in lists]
        assert [g.neighbors(i).tolist() for i in range(n)] == g.neighbor_lists()
        # the product equals that of the matrix built from (row, column) pairs, bit for bit
        rows = np.repeat(np.arange(n), g.degrees)
        cols = np.concatenate([sorted(a) for a in lists])
        w = sp.csr_matrix((np.repeat(1.0 / g.degrees, g.degrees), (rows, cols)), shape=(n, n))
        v = rng.standard_normal(n)
        assert g.neighbor_mean(v).tolist() == (w @ v).tolist()
        with pytest.raises(GraphError, match="no neighbour lists"):
            InfluenceGraph.complete(3).neighbor_lists()
        with pytest.raises(ValueError, match="read-only"):
            g.neighbors(0)[0] = 0


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
        assert a.__eq__(5) is NotImplemented and a != 5
        # the same neighbours in the same order, split between nodes differently
        assert (InfluenceGraph.from_adjacency([[0], [1, 2], [2]])
                != InfluenceGraph.from_adjacency([[0, 1], [2], [2]]))
