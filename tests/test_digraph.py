"""Unit tests for the weighted directed multigraph structure."""

import random

import pytest

from repro.errors import GraphError
from repro.graphs.digraph import Edge, WeightedDiGraph
from repro.graphs.graph import Graph
from repro.graphs import generators


class TestEdges:
    def test_add_edge_returns_distinct_ids(self):
        g = WeightedDiGraph()
        e1 = g.add_edge("a", "b", weight=2)
        e2 = g.add_edge("a", "b", weight=3)
        assert e1 != e2
        assert g.num_edges() == 2
        assert g.max_multiplicity() == 2

    def test_negative_weight_rejected(self):
        g = WeightedDiGraph()
        with pytest.raises(GraphError):
            g.add_edge(1, 2, weight=-1)

    def test_duplicate_edge_id_rejected(self):
        g = WeightedDiGraph()
        g.add_edge(1, 2, eid=5)
        with pytest.raises(GraphError):
            g.add_edge(2, 3, eid=5)

    def test_remove_edge(self):
        g = WeightedDiGraph()
        eid = g.add_edge(1, 2)
        g.remove_edge(eid)
        assert g.num_edges() == 0
        with pytest.raises(GraphError):
            g.remove_edge(eid)

    def test_set_label(self):
        g = WeightedDiGraph()
        eid = g.add_edge(1, 2, label="red")
        g.set_label(eid, "blue")
        assert g.edge(eid).label == "blue"
        assert g.edge(eid).weight == 1.0

    def test_edge_relabeled_preserves_identity(self):
        e = Edge(3, "u", "v", 2.5, "x")
        e2 = e.relabeled("y")
        assert e2.eid == 3 and e2.weight == 2.5 and e2.label == "y"
        assert e.label == "x"

    def test_add_undirected_edge_creates_pair(self):
        g = WeightedDiGraph()
        e1, e2 = g.add_undirected_edge(1, 2, weight=4)
        assert g.edge(e1).endpoints() == (1, 2)
        assert g.edge(e2).endpoints() == (2, 1)
        assert g.edge(e1).weight == g.edge(e2).weight == 4


class TestQueries:
    def test_out_in_edges_and_degrees(self):
        g = WeightedDiGraph()
        g.add_edge(1, 2)
        g.add_edge(1, 3)
        g.add_edge(3, 1)
        assert g.out_degree(1) == 2
        assert g.in_degree(1) == 1
        assert g.successors(1) == {2, 3}
        assert g.predecessors(1) == {3}

    def test_missing_node_queries_raise(self):
        g = WeightedDiGraph()
        with pytest.raises(GraphError):
            g.out_edges("nope")
        with pytest.raises(GraphError):
            g.edge(99)

    def test_total_weight(self):
        g = WeightedDiGraph()
        g.add_edge(1, 2, weight=2)
        g.add_edge(2, 3, weight=3)
        assert g.total_weight() == 5


class TestDerivedGraphs:
    def test_reverse_swaps_endpoints(self):
        g = WeightedDiGraph()
        g.add_edge("a", "b", weight=2, label="L")
        r = g.reverse()
        e = r.edges()[0]
        assert e.tail == "b" and e.head == "a" and e.weight == 2 and e.label == "L"

    def test_subgraph_preserves_edge_ids(self):
        g = WeightedDiGraph()
        kept = g.add_edge(1, 2)
        g.add_edge(2, 3)
        sub = g.subgraph([1, 2])
        assert sub.num_edges() == 1
        assert sub.edge(kept).endpoints() == (1, 2)

    def test_underlying_graph_drops_direction_weight_multiplicity(self):
        g = WeightedDiGraph()
        g.add_edge(1, 2, weight=5)
        g.add_edge(2, 1, weight=7)
        g.add_edge(1, 2, weight=9)
        g.add_edge(3, 3)  # self loop dropped
        u = g.underlying_graph()
        assert u.num_edges() == 1
        assert u.has_edge(1, 2)
        assert u.has_node(3)

    def test_underlying_weighted_graph_keeps_min_weight(self):
        g = WeightedDiGraph()
        g.add_edge(1, 2, weight=5)
        g.add_edge(2, 1, weight=3)
        u = g.underlying_weighted_graph()
        assert u.weight(1, 2) == 3

    def test_from_undirected_round_trip(self):
        base = generators.with_random_weights(generators.cycle_graph(6), 1, 5, seed=1)
        inst = WeightedDiGraph.from_undirected(base)
        assert inst.num_edges() == 2 * base.num_edges()
        assert set(inst.underlying_graph().edges()) == set(base.edges())

    def test_from_edge_list_directed_and_undirected(self):
        directed = WeightedDiGraph.from_edge_list([(1, 2, 3.0), (2, 3)])
        assert directed.num_edges() == 2
        undirected = WeightedDiGraph.from_edge_list([(1, 2)], directed=False)
        assert undirected.num_edges() == 2

    def test_copy_is_independent(self):
        g = WeightedDiGraph()
        g.add_edge(1, 2)
        h = g.copy()
        h.add_edge(2, 3)
        assert g.num_edges() == 1
        assert h.num_edges() == 2


def _reference_subgraph(g, nodes):
    """The full-scan induced subgraph: filter every parent edge in insertion order."""
    keep = set(nodes)
    sub = WeightedDiGraph(keep)
    for e in g.edges():
        if e.tail in keep and e.head in keep:
            sub._edges[e.eid] = e
            sub._out[e.tail].append(e.eid)
            sub._in[e.head].append(e.eid)
    sub._next_eid = g._next_eid
    return sub


def _assert_same_subgraph(got, want):
    assert set(got.nodes()) == set(want.nodes())
    assert got.edges() == want.edges()
    for u in want.nodes():
        assert [e.eid for e in got.out_edges(u)] == [e.eid for e in want.out_edges(u)]
        assert [e.eid for e in got.in_edges(u)] == [e.eid for e in want.in_edges(u)]
    assert got._next_eid == want._next_eid


def _random_multigraph(rng, n, m, explicit_eids, removals):
    """Parallel edges, self-loops, optional out-of-order explicit ids, then removals."""
    g = WeightedDiGraph(range(n))
    for _ in range(m):
        eid = None
        if explicit_eids and rng.random() < 0.3:
            eid = rng.randrange(3 * m + 1)
            if eid in g._edges:
                eid = None
        g.add_edge(rng.randrange(n), rng.randrange(n), weight=rng.randint(0, 9), eid=eid)
    for eid in rng.sample(sorted(g._edges), min(removals, g.num_edges())):
        g.remove_edge(eid)
    return g


def _derive(g, how, rng):
    if how == "reverse":
        return g.reverse()
    if how == "copy":
        return g.copy()
    if how == "subgraph":
        return g.subgraph(rng.sample(g.nodes(), max(1, len(g) * 2 // 3)))
    return g


class TestSubgraphEquivalence:
    """``subgraph`` equals the full-scan reference in nodes, every order, and next id."""

    @pytest.mark.parametrize("how", ["self", "reverse", "copy", "subgraph"])
    @pytest.mark.parametrize("explicit_eids", [False, True])
    def test_seeded_multigraphs(self, master_seed, how, explicit_eids):
        rng = random.Random(master_seed)
        for _ in range(20):
            n = rng.randint(1, 12)
            g = _random_multigraph(rng, n, rng.randint(0, 40), explicit_eids, rng.randint(0, 5))
            parent = _derive(g, how, rng)
            # Deriving by "subgraph" makes this a nested subgraph.
            for size in (0, 1, len(parent) // 2, len(parent)):
                nodes = rng.sample(parent.nodes(), size)
                _assert_same_subgraph(parent.subgraph(nodes), _reference_subgraph(parent, nodes))

    def test_out_of_order_eids_keep_insertion_order(self):
        g = WeightedDiGraph()
        g.add_edge(0, 1, eid=5)
        g.add_edge(1, 2, eid=2)
        g.add_edge(2, 0)
        g.add_edge(1, 1, eid=0)
        for parent in (g, g.copy(), g.reverse(), g.subgraph([0, 1, 2])):
            sub = parent.subgraph([0, 1, 2])
            assert [e.eid for e in sub.edges()] == [5, 2, 7, 0]
            _assert_same_subgraph(sub, _reference_subgraph(parent, [0, 1, 2]))

    def test_subgraph_is_independent_of_parent(self):
        g = WeightedDiGraph.from_edge_list([(0, 1), (1, 2), (2, 0)])
        sub = g.subgraph([0, 1])
        sub.add_edge(1, 0)
        sub.remove_edge(0)
        assert g.num_edges() == 3
        assert [e.eid for e in g.out_edges(0)] == [0]
        assert [e.eid for e in g.in_edges(0)] == [2]


class _NoScanDict(dict):
    """An edge dict that fails on any whole-dict iteration."""

    def _scan(self, *args, **kwargs):
        raise AssertionError("subgraph scanned the parent's whole edge dict")

    __iter__ = keys = values = items = _scan


class TestSubgraphCost:
    def test_small_subgraph_does_not_scan_parent_edges(self):
        g = WeightedDiGraph.from_undirected(generators.grid_graph(30, 30))
        g._edges = _NoScanDict(g._edges)
        nodes = [(0, 0), (0, 1), (1, 1), (5, 5)]
        sub = g.subgraph(nodes)
        assert sub.num_nodes() == 4
        assert sub.num_edges() == 4
        assert sub.subgraph(nodes[:2]).num_edges() == 2

    def test_out_of_order_parent_falls_back_to_scan(self):
        g = WeightedDiGraph()
        g.add_edge(0, 1, eid=3)
        g.add_edge(1, 0, eid=1)
        g._edges = _NoScanDict(g._edges)
        with pytest.raises(AssertionError, match="scanned"):
            g.subgraph([0, 1])
