"""Tests for part-wise aggregation and the Lemma-8 subgraph operations."""

import pytest

from repro.core.rounds import CostModel, RoundLedger
from repro.decomposition.vertex_cut import minimum_vertex_cut
from repro.errors import GraphError
from repro.graphs import generators
from repro.shortcuts.operations import SubgraphOperations
from repro.shortcuts.partition import SubgraphCollection
from repro.shortcuts.partwise import partwise_aggregate, partwise_minimum, partwise_sum


@pytest.fixture
def grid_collection():
    g = generators.grid_graph(4, 9)
    left = [(r, c) for r in range(4) for c in range(4)]
    right = [(r, c) for r in range(4) for c in range(5, 9)]
    return g, SubgraphCollection(g, [left, right])


class TestSubgraphCollection:
    def test_classification_disjoint(self, grid_collection):
        _, coll = grid_collection
        assert coll.is_vertex_disjoint()
        assert coll.classification() == "disjoint"
        assert coll.all_parts_connected()

    def test_near_disjoint_split_trees(self):
        g = generators.path_graph(9)
        # Two subpaths sharing only vertex 4 (their common root).
        coll = SubgraphCollection(g, [[0, 1, 2, 3, 4], [4, 5, 6, 7, 8]])
        assert not coll.is_vertex_disjoint()
        assert coll.is_near_disjoint()
        assert coll.classification() == "near_disjoint"
        assert coll.shared_vertices() == {4}
        assert coll.private_vertices(0) == {0, 1, 2, 3}

    def test_overlapping_collection_detected(self):
        g = generators.path_graph(6)
        coll = SubgraphCollection(g, [[0, 1, 2, 3], [2, 3, 4, 5]])
        assert coll.classification() == "overlapping"

    def test_empty_part_rejected(self):
        g = generators.path_graph(3)
        with pytest.raises(GraphError):
            SubgraphCollection(g, [[]])

    def test_foreign_vertices_rejected(self):
        g = generators.path_graph(3)
        with pytest.raises(GraphError):
            SubgraphCollection(g, [[0, 99]])

    def test_parts_of_and_subgraph(self, grid_collection):
        _, coll = grid_collection
        assert coll.parts_of((0, 0)) == [0]
        assert coll.subgraph(1).num_nodes() == 16
        assert coll.max_part_diameter() >= 3


class TestPartwiseAggregation:
    def test_sum_per_part(self, grid_collection):
        g, coll = grid_collection
        values = {v: 1 for v in g.nodes()}
        result = partwise_sum(coll, values)
        assert result == {0: 16, 1: 16}

    def test_minimum_per_part(self, grid_collection):
        _, coll = grid_collection
        values = {(r, c): r * 10 + c for r, c in coll.part(0) | coll.part(1)}
        result = partwise_minimum(coll, values)
        assert result[0] == 0
        assert result[1] == 5

    def test_missing_values_use_identity(self, grid_collection):
        _, coll = grid_collection
        result = partwise_aggregate(coll, {}, lambda a, b: a + b, identity=0)
        assert result == {0: 0, 1: 0}

    def test_overlapping_collection_rejected(self):
        g = generators.path_graph(6)
        coll = SubgraphCollection(g, [[0, 1, 2, 3], [2, 3, 4, 5]])
        with pytest.raises(GraphError):
            partwise_sum(coll, {v: 1 for v in g.nodes()})

    def test_rounds_charged(self, grid_collection):
        g, coll = grid_collection
        cm = CostModel(n=g.num_nodes(), diameter=11)
        ledger = RoundLedger()
        partwise_sum(coll, {v: 1 for v in g.nodes()}, width=4, cost_model=cm, ledger=ledger)
        assert ledger.total() == cm.partwise_aggregation(4)

    def test_near_disjoint_overhead_charged(self):
        g = generators.path_graph(9)
        coll = SubgraphCollection(g, [[0, 1, 2, 3, 4], [4, 5, 6, 7, 8]])
        cm = CostModel(n=9, diameter=8)
        ledger = RoundLedger()
        partwise_sum(coll, {v: 1 for v in g.nodes()}, width=1, cost_model=cm, ledger=ledger)
        assert ledger.total() == cm.partwise_aggregation(1) + 2


class TestSubgraphOperations:
    def test_rooted_spanning_trees(self, grid_collection):
        g, coll = grid_collection
        ops = SubgraphOperations(coll, width=4, cost_model=CostModel(n=36, diameter=11))
        trees = ops.rooted_spanning_trees({0: (0, 0), 1: (0, 5)})
        assert len(trees[0]) == 16
        assert trees[0][(0, 0)] is None
        assert ops.ledger.total() > 0

    def test_subtree_aggregate(self, grid_collection):
        g, coll = grid_collection
        ops = SubgraphOperations(coll, width=4)
        trees = ops.rooted_spanning_trees({0: (0, 0), 1: (0, 5)})
        sizes = ops.subtree_aggregate(trees, {v: 1 for v in g.nodes()})
        assert sizes[0][(0, 0)] == 16

    def test_elect_leaders(self, grid_collection):
        _, coll = grid_collection
        ops = SubgraphOperations(coll, width=4)
        leaders = ops.elect_leaders()
        assert leaders[0] in coll.part(0)
        with pytest.raises(GraphError):
            ops.elect_leaders(candidates={})

    def test_connected_components_after_removal(self, grid_collection):
        _, coll = grid_collection
        ops = SubgraphOperations(coll, width=4)
        removed = {(r, 1) for r in range(4)}
        comps = ops.connected_components(removed=removed)
        assert len(comps[0]) == 2
        assert len(comps[1]) == 1

    def test_broadcast_and_cost(self, grid_collection):
        g, coll = grid_collection
        cm = CostModel(n=36, diameter=11)
        ops = SubgraphOperations(coll, width=4, cost_model=cm)
        out = ops.broadcast({0: ["a", "b"], 1: ["c"]})
        assert out[0] == ["a", "b"]
        assert ops.ledger["bct"] == cm.broadcast_multi(4, 2)

    def test_minimum_vertex_cuts_in_parts(self, grid_collection):
        _, coll = grid_collection
        ops = SubgraphOperations(coll, width=4, cost_model=CostModel(n=36, diameter=11))
        left_col = {(r, 0) for r in range(4)}
        right_col = {(r, 3) for r in range(4)}
        cuts = ops.minimum_vertex_cuts([(0, left_col, right_col)], limit=4)
        assert cuts[0] is not None and len(cuts[0]) == 4
        # Requests with vertices outside the part yield None.
        cuts2 = ops.minimum_vertex_cuts([(1, left_col, right_col)], limit=4)
        assert cuts2[0] is None

    def test_minimum_vertex_cuts_induce_each_part_once(self, grid_collection, monkeypatch):
        _, coll = grid_collection
        cm = CostModel(n=36, diameter=11)
        ops = SubgraphOperations(coll, width=4, cost_model=cm)
        requests = [
            (1, {(0, 5)}, {(3, 8)}),
            (0, {(r, 0) for r in range(4)}, {(r, 3) for r in range(4)}),
            (1, {(0, 5), (0, 0)}, {(0, 8)}),
            (0, {(0, 0)}, {(0, 8)}),  # U2 outside the part
            (0, {(0, 0)}, {(3, 3)}),
            (1, {(1, 6)}, {(1, 7)}),  # adjacent: infinite cut
        ]
        expected = [
            minimum_vertex_cut(coll.subgraph(idx), a & set(coll.parts[idx]), b & set(coll.parts[idx]), limit=3)
            if a & set(coll.parts[idx]) and b & set(coll.parts[idx])
            else None
            for idx, a, b in requests
        ]
        induced = []
        subgraph = coll.subgraph
        monkeypatch.setattr(coll, "subgraph", lambda idx: induced.append(idx) or subgraph(idx))
        cuts = ops.minimum_vertex_cuts(requests, limit=3)
        assert cuts == expected
        assert [c is None for c in cuts] == [False, True, False, True, False, True]
        assert sorted(induced) == [0, 1]
        assert ops.ledger["mvc"] == cm.min_vertex_cut_multi(4, len(requests), 3)
