"""Tests for minimum U1-U2 vertex cuts."""

import random
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SeparatorParams
from repro.core.rounds import CostModel
from repro.decomposition import separator
from repro.decomposition.separator import BalancedSeparator
from repro.decomposition.vertex_cut import VertexCutNetwork, is_vertex_cut, minimum_vertex_cut
from repro.errors import GraphError, SeparatorFailure
from repro.graphs import generators
from repro.graphs.graph import Graph

_INF_CAP = 1 << 30


# --------------------------------------------------------------------------- #
# Reference oracle: a dict-based Edmonds-Karp that builds a fresh node-split
# network on every call.  Independent of VertexCutNetwork's flat arrays, BFS
# order and per-pair capacity reset.
# --------------------------------------------------------------------------- #
class _ReferenceFlowNetwork:
    def __init__(self) -> None:
        self.cap: Dict[Tuple[int, int], int] = {}
        self.adj: Dict[int, List[int]] = {}

    def add_arc(self, u: int, v: int, capacity: int) -> None:
        if (u, v) not in self.cap:
            self.adj.setdefault(u, []).append(v)
            self.adj.setdefault(v, []).append(u)
            self.cap[(u, v)] = 0
            self.cap.setdefault((v, u), 0)
        self.cap[(u, v)] += capacity

    def bfs_augment(self, source: int, sink: int) -> int:
        parent: Dict[int, int] = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in self.adj.get(u, ()):
                if v not in parent and self.cap.get((u, v), 0) > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return 0
        bottleneck = _INF_CAP
        v = sink
        while v != source:
            u = parent[v]
            bottleneck = min(bottleneck, self.cap[(u, v)])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            self.cap[(u, v)] -= bottleneck
            self.cap[(v, u)] += bottleneck
            v = u
        return bottleneck

    def reachable_from(self, source: int) -> Set[int]:
        seen = {source}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in self.adj.get(u, ()):
                if v not in seen and self.cap.get((u, v), 0) > 0:
                    seen.add(v)
                    queue.append(v)
        return seen


def reference_minimum_vertex_cut(graph, side_a, side_b, limit=None) -> Optional[Set]:
    """The pre-network ``minimum_vertex_cut``: same contract, fresh network per call."""
    a = set(side_a)
    b = set(side_b)
    if not a or not b:
        raise GraphError("both terminal sets must be non-empty")
    for u in a | b:
        if not graph.has_node(u):
            raise GraphError(f"terminal {u!r} not in graph")
    if a & b:
        return None
    for u in a:
        for v in graph.neighbors(u):
            if v in b:
                return None
    if limit is None:
        limit = graph.num_nodes()

    nodes = sorted(graph.nodes(), key=str)
    index = {u: i for i, u in enumerate(nodes)}
    net = _ReferenceFlowNetwork()
    source = 2 * len(nodes)
    sink = source + 1
    for u in nodes:
        i = index[u]
        net.add_arc(2 * i, 2 * i + 1, _INF_CAP if (u in a or u in b) else 1)
    for u, v in graph.edges():
        iu, iv = index[u], index[v]
        net.add_arc(2 * iu + 1, 2 * iv, _INF_CAP)
        net.add_arc(2 * iv + 1, 2 * iu, _INF_CAP)
    for u in a:
        net.add_arc(source, 2 * index[u], _INF_CAP)
    for v in b:
        net.add_arc(2 * index[v] + 1, sink, _INF_CAP)

    flow = 0
    while flow <= limit:
        pushed = net.bfs_augment(source, sink)
        if pushed == 0:
            break
        flow += pushed
    if flow > limit:
        return None
    reachable = net.reachable_from(source)
    cut: Set = set()
    for u in nodes:
        i = index[u]
        if u in a or u in b:
            continue
        if 2 * i in reachable and 2 * i + 1 not in reachable:
            cut.add(u)
    return cut


class TestBasicCuts:
    def test_path_cut_is_single_middle_vertex(self):
        g = generators.path_graph(5)
        cut = minimum_vertex_cut(g, {0}, {4})
        assert cut is not None
        assert len(cut) == 1
        assert is_vertex_cut(g, {0}, {4}, cut)

    def test_cycle_requires_two_vertices(self):
        g = generators.cycle_graph(8)
        cut = minimum_vertex_cut(g, {0}, {4})
        assert cut is not None and len(cut) == 2
        assert is_vertex_cut(g, {0}, {4}, cut)

    def test_adjacent_terminals_have_infinite_cut(self):
        g = generators.path_graph(3)
        assert minimum_vertex_cut(g, {0}, {1}) is None

    def test_overlapping_terminals_have_infinite_cut(self):
        g = generators.cycle_graph(5)
        assert minimum_vertex_cut(g, {0, 1}, {1, 3}) is None

    def test_limit_respected(self):
        g = generators.complete_graph(6)
        # Separating two vertices of K6 needs 4 vertices; a limit of 2 fails.
        assert minimum_vertex_cut(g, {0}, {1}) is None  # adjacent
        g.remove_edge(0, 1)
        assert minimum_vertex_cut(g, {0}, {1}, limit=2) is None
        cut = minimum_vertex_cut(g, {0}, {1}, limit=4)
        assert cut is not None and len(cut) == 4

    def test_set_terminals(self):
        g = generators.grid_graph(3, 7)
        left = {(r, 0) for r in range(3)}
        right = {(r, 6) for r in range(3)}
        cut = minimum_vertex_cut(g, left, right)
        assert cut is not None
        assert len(cut) == 3  # a full column
        assert is_vertex_cut(g, left, right, cut)

    def test_empty_terminals_raise(self):
        g = generators.path_graph(3)
        with pytest.raises(GraphError):
            minimum_vertex_cut(g, set(), {2})

    def test_unknown_terminal_raises(self):
        g = generators.path_graph(3)
        with pytest.raises(GraphError):
            minimum_vertex_cut(g, {99}, {2})

    def test_disconnected_sides_have_empty_cut(self):
        g = Graph(edges=[(0, 1), (2, 3)])
        cut = minimum_vertex_cut(g, {0}, {3})
        assert cut == set()


class TestCutValidity:
    def test_is_vertex_cut_rejects_cut_containing_terminals(self):
        g = generators.path_graph(4)
        assert not is_vertex_cut(g, {0}, {3}, {0})

    def test_is_vertex_cut_rejects_non_separating_set(self):
        g = generators.cycle_graph(6)
        assert not is_vertex_cut(g, {0}, {3}, {1})


@given(
    st.integers(min_value=8, max_value=30),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_cut_size_bounded_by_treewidth_structure(n, k, seed, limit):
    """Property: in a partial k-tree, the cut is a minimum one and respects ``limit``."""
    g = generators.partial_k_tree(n, k, seed=seed)
    nodes = sorted(g.nodes())
    s, t = nodes[0], nodes[-1]
    a, b = {s}, {t}
    cut = minimum_vertex_cut(g, a, b, limit=n)
    if g.has_edge(s, t):
        assert cut is None
        return
    assert cut is not None
    assert is_vertex_cut(g, a, b, cut)
    assert not (cut & (a | b))
    nxg = nx.Graph(g.edges())
    nxg.add_nodes_from(g.nodes())
    connectivity = nx.node_connectivity(nxg, s, t)
    assert len(cut) == connectivity
    limited = minimum_vertex_cut(g, a, b, limit=limit)
    assert (limited is None) == (connectivity > limit)
    if limited is not None:
        assert limited == cut


# --------------------------------------------------------------------------- #
# Equivalence with the reference oracle
# --------------------------------------------------------------------------- #
def _family_graph(family: str, size: int, seed: int) -> Graph:
    if family == "ktree":
        return generators.partial_k_tree(size + 6, 1 + seed % 4, seed=seed)
    if family == "grid":  # tuple node ids
        return generators.grid_graph(2 + size % 5, 2 + (size + seed) % 6)
    if family == "strings":
        base = generators.partial_k_tree(size + 6, 2 + seed % 3, seed=seed)
        g = Graph(nodes=[f"v{u}" for u in base.nodes()])
        for u, v in base.edges():
            g.add_edge(f"v{u}", f"v{v}")
        return g
    # "disconnected": two partial k-trees side by side plus an isolated vertex.
    g = generators.partial_k_tree(size // 2 + 4, 2, seed=seed)
    other = generators.partial_k_tree(size // 2 + 4, 3, seed=seed + 1)
    offset = 1000
    for u in other.nodes():
        g.add_node(u + offset)
    for u, v in other.edges():
        g.add_edge(u + offset, v + offset)
    g.add_node(-1)
    return g


@st.composite
def _terminal_request(draw, nodes):
    picked = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=6, unique=True))
    split = draw(st.integers(min_value=1, max_value=len(picked) - 1))
    return set(picked[:split]), set(picked[split:])


@st.composite
def _cut_instances(draw, max_requests: int = 1):
    family = draw(st.sampled_from(["ktree", "grid", "strings", "disconnected"]))
    g = _family_graph(family, draw(st.integers(0, 26)), draw(st.integers(0, 10_000)))
    nodes = g.nodes()
    requests = []
    for _ in range(draw(st.integers(1, max_requests))):
        a, b = draw(_terminal_request(nodes))
        true_cut = reference_minimum_vertex_cut(g, a, b)
        offset = draw(st.sampled_from([-1, 0, 1, None]))
        if offset is None:
            limit = None
        elif true_cut is None:
            limit = max(0, draw(st.integers(0, 3)) + offset)
        else:
            limit = max(0, len(true_cut) + offset)  # below / at / above the cut
        requests.append((a, b, limit))
    return g, requests


def _assert_same_cut(got, want):
    assert got == want
    if got is not None:
        # Same insertion order too, so callers iterate the cut identically.
        assert list(got) == list(want)


@given(_cut_instances())
@settings(max_examples=50, deadline=None)
def test_matches_reference_oracle(instance):
    g, [(a, b, limit)] = instance
    _assert_same_cut(minimum_vertex_cut(g, a, b, limit=limit), reference_minimum_vertex_cut(g, a, b, limit))


@given(_cut_instances(max_requests=8))
@settings(max_examples=25, deadline=None)
def test_reused_network_matches_reference_oracle(instance):
    """Many pairs on one network: the per-pair reset leaves no residual flow behind."""
    g, requests = instance
    network = VertexCutNetwork(g)
    for a, b, limit in requests + requests:
        _assert_same_cut(network.minimum_cut(a, b, limit), reference_minimum_vertex_cut(g, a, b, limit))


@pytest.mark.fuzz
@given(_cut_instances())
@settings(max_examples=500, deadline=None)
def test_matches_reference_oracle_sweep(instance):
    g, [(a, b, limit)] = instance
    _assert_same_cut(minimum_vertex_cut(g, a, b, limit=limit), reference_minimum_vertex_cut(g, a, b, limit))


@pytest.mark.fuzz
@given(_cut_instances(max_requests=20))
@settings(max_examples=200, deadline=None)
def test_reused_network_matches_reference_oracle_sweep(instance):
    g, requests = instance
    network = VertexCutNetwork(g)
    for a, b, limit in requests + requests[::-1]:
        _assert_same_cut(network.minimum_cut(a, b, limit), reference_minimum_vertex_cut(g, a, b, limit))


class TestNetworkReuse:
    def test_saturating_pair_leaves_no_residue(self):
        g = generators.grid_graph(4, 6)
        network = VertexCutNetwork(g)
        left = {(r, 0) for r in range(4)}
        right = {(r, 5) for r in range(4)}
        # A pair whose flow saturates a whole column, then a rejected one.
        assert len(network.minimum_cut(left, right)) == 4
        assert network.minimum_cut(left, right, limit=3) is None
        assert network.minimum_cut({(0, 0)}, {(3, 5)}) == reference_minimum_vertex_cut(g, {(0, 0)}, {(3, 5)})
        assert len(network.minimum_cut(left, right)) == 4

    def test_network_validates_like_the_function(self):
        network = VertexCutNetwork(generators.path_graph(4))
        with pytest.raises(GraphError):
            network.minimum_cut(set(), {2})
        with pytest.raises(GraphError):
            network.minimum_cut({99}, {2})
        assert network.minimum_cut({0, 1}, {1, 3}) is None
        assert network.minimum_cut({0}, {1}) is None
        assert network.minimum_cut({0}, {3}, limit=0) is None
        assert network.minimum_cut({0}, {3}, limit=-1) is None


class TestSeparatorCutCost:
    def test_one_network_per_sep_trial(self, monkeypatch):
        built: List[Graph] = []
        queries: List[int] = []

        class CountingNetwork(VertexCutNetwork):
            def __init__(self, graph):
                built.append(graph)
                super().__init__(graph)

            def minimum_cut(self, side_a, side_b, limit=None):
                queries.append(1)
                return super().minimum_cut(side_a, side_b, limit)

        monkeypatch.setattr(separator, "VertexCutNetwork", CountingNetwork)
        g = generators.grid_graph(12, 13)
        params = SeparatorParams.practical().with_overrides(num_sampled_pairs=40)
        sep = BalancedSeparator(params=params, rng=random.Random(0))
        trials = 0
        for _ in range(3):
            built.clear()
            queries.clear()
            try:
                sep._sep_once(g, None, 2, separator.RoundLedger())
            except SeparatorFailure:
                pass
            trials += 1
            assert len(queries) > 40
            assert built == [g]
        assert trials == 3

    def test_separator_matches_reference_oracle(self, monkeypatch):
        g = generators.grid_graph(12, 13)

        def find(seed):
            sep = BalancedSeparator(rng=random.Random(seed), cost_model=CostModel(n=156, diameter=23))
            r = sep.find(g)
            return list(r.separator), r.method, r.attempts, r.rounds

        expected = [find(seed) for seed in range(2)]

        class OracleNetwork:
            def __init__(self, graph):
                self.graph = graph

            def minimum_cut(self, side_a, side_b, limit=None):
                return reference_minimum_vertex_cut(self.graph, side_a, side_b, limit)

        monkeypatch.setattr(separator, "VertexCutNetwork", OracleNetwork)
        assert [find(seed) for seed in range(2)] == expected
