"""Minimum U₁-U₂ vertex cuts.

The ``Sep`` algorithm (paper §3.2–3.3) repeatedly asks for a minimum
*vertex* cut separating the vertex sets of two split trees, rejecting the cut
if it exceeds the width guess ``t``.  The paper's definition (§3.2): a
U₁-U₂ vertex cut is a set ``Z ⊆ V(G) \\ (U₁ ∪ U₂)`` whose removal leaves U₁
and U₂ in different connected components; if U₁ and U₂ intersect or are
joined by an edge, the minimum cut size is defined to be ∞.

The implementation is the classical node-splitting reduction to edge
connectivity: every cuttable vertex ``v`` becomes an arc ``v_in → v_out`` of
capacity 1, original edges get infinite capacity, and a BFS-augmenting
(Edmonds–Karp) max-flow bounded by ``limit + 1`` augmentations decides whether
a cut of size ≤ ``limit`` exists and extracts it from the residual graph.

:class:`VertexCutNetwork` holds that split network in flat arrays, built once
per graph in O(n + m) from the cached CSR view (:meth:`Graph.to_indexed`).
Each U₁-U₂ query then costs an O(n + m) capacity reset plus at most
``limit + 1`` BFS augmentations of O(n + m) each, so the many cuts ``Sep``
asks of one graph share one network.  The cut is the set of vertices whose
in-node but not out-node is reachable in the final residual graph; that set
is the same after every maximum flow (the source-minimal minimum cut), so it
does not depend on which augmenting paths the BFS happens to find.

In the distributed algorithm this is the MVC(t) primitive of Lemma 8, costing
Õ(t) part-wise aggregations; the cost accounting lives in
:mod:`repro.shortcuts.operations`.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Set

from repro.errors import GraphError
from repro.graphs.graph import Graph

NodeId = Hashable

#: Sentinel capacity for arcs that must never be saturated (graph edges and
#: terminal vertices).  Any value larger than |V| works for vertex cuts.
_INF_CAP = 1 << 30


class VertexCutNetwork:
    """The node-split flow network of one graph, reusable across terminal pairs.

    Node index ``i`` of the CSR view becomes the in-node ``2i`` and the
    out-node ``2i + 1``.  Arcs come in pairs ``e`` / ``e ^ 1`` (an arc and its
    residual reverse) stored in the flat ``head``/capacity lists: arc ``2i``
    is the vertex arc ``in → out`` of node ``i`` (capacity 1) and arc
    ``2i + 1`` its reverse, and every CSR arc ``i → j`` adds the edge arc
    ``out_i → in_j`` (capacity ∞) and its reverse.  A query sends flow from
    U₁'s in-nodes to U₂'s in-nodes, so no extra source or sink node is needed.
    The network is a snapshot of the graph at construction.
    """

    __slots__ = ("_node_ids", "_index_of", "_indptr", "_indices", "_head", "_arcs", "_base_cap")

    def __init__(self, graph: Graph) -> None:
        csr = graph.to_indexed()
        n = csr.num_nodes
        indptr, indices = csr.indptr, csr.indices
        num_vertex_arcs = 2 * n
        head: List[int] = []
        arcs: List[List[int]] = []
        for i in range(n):
            head += (2 * i + 1, 2 * i)
            arcs += ([2 * i], [2 * i + 1])
        for i in range(n):
            out_arcs = arcs[2 * i + 1]
            for p in range(indptr[i], indptr[i + 1]):
                j = indices[p]
                e = num_vertex_arcs + 2 * p
                head += (2 * j, 2 * i + 1)
                out_arcs.append(e)
                arcs[2 * j].append(e + 1)
        self._node_ids = csr.node_ids
        self._index_of = csr.index_of
        self._indptr = indptr
        self._indices = indices
        self._head = head
        self._arcs = arcs
        self._base_cap = [1, 0] * n + [_INF_CAP, 0] * len(indices)

    def minimum_cut(
        self,
        side_a: Iterable[NodeId],
        side_b: Iterable[NodeId],
        limit: Optional[int] = None,
    ) -> Optional[Set[NodeId]]:
        """:func:`minimum_vertex_cut` of the network's graph (same contract)."""
        a = set(side_a)
        b = set(side_b)
        if not a or not b:
            raise GraphError("both terminal sets must be non-empty")
        index_of = self._index_of
        for u in a | b:
            if u not in index_of:
                raise GraphError(f"terminal {u!r} not in graph")
        if a & b:
            return None
        num_nodes = len(self._node_ids)
        is_sink = bytearray(2 * num_nodes)
        for v in b:
            is_sink[2 * index_of[v]] = 1
        sources = [2 * index_of[u] for u in a]
        indptr, indices = self._indptr, self._indices
        for s in sources:
            i = s >> 1
            for p in range(indptr[i], indptr[i + 1]):
                if is_sink[2 * indices[p]]:
                    return None

        if limit is None:
            limit = num_nodes

        # Per-pair reset: fresh unit vertex arcs, terminals made uncuttable.
        cap = self._base_cap[:]
        for s in sources:
            cap[s] = _INF_CAP
        for v in b:
            cap[2 * index_of[v]] = _INF_CAP

        flow = 0
        while flow <= limit:
            pushed, parent, reached = self._augment(cap, sources, is_sink)
            if pushed == 0:
                break
            flow += pushed
        if flow > limit:
            return None

        # The last, failed BFS visited exactly the residual-reachable nodes.
        # Terminals never qualify: U₁'s out-nodes hang off ∞ arcs and U₂'s
        # in-nodes are unreachable once the flow is maximum.
        cut = [v >> 1 for v in reached if not v & 1 and parent[v + 1] == -1]
        # Insert in str order of the ids (ties in graph order), so the
        # returned set iterates the same way however the flow was found.
        node_ids = self._node_ids
        return {node_ids[i] for i in sorted(sorted(cut), key=lambda i: str(node_ids[i]))}

    def _augment(self, cap: List[int], sources: List[int], is_sink: bytearray):
        """One multi-source BFS from ``sources`` that stops at the first sink.

        If a sink is reached, the bottleneck capacity is pushed along the BFS
        path.  Returns ``(pushed, parent, reached)``: the amount pushed (0 if
        no sink is reachable), the parent arc of every node (-1 unvisited, -2
        source) and the visited nodes in BFS order.
        """
        head, arcs = self._head, self._arcs
        parent = [-1] * len(arcs)
        for s in sources:
            parent[s] = -2
        reached = list(sources)
        for u in reached:  # the loop also visits the nodes appended below
            for e in arcs[u]:
                if cap[e]:
                    v = head[e]
                    if parent[v] == -1:
                        parent[v] = e
                        if is_sink[v]:
                            return self._push(cap, parent, v), parent, reached
                        reached.append(v)
        return 0, parent, reached

    def _push(self, cap: List[int], parent: List[int], sink: int) -> int:
        head = self._head
        bottleneck = _INF_CAP
        e = parent[sink]
        while e >= 0:
            bottleneck = min(bottleneck, cap[e])
            e = parent[head[e ^ 1]]
        e = parent[sink]
        while e >= 0:
            cap[e] -= bottleneck
            cap[e ^ 1] += bottleneck
            e = parent[head[e ^ 1]]
        return bottleneck


def minimum_vertex_cut(
    graph: Graph,
    side_a: Iterable[NodeId],
    side_b: Iterable[NodeId],
    limit: Optional[int] = None,
) -> Optional[Set[NodeId]]:
    """Return a minimum U₁-U₂ vertex cut of size ≤ ``limit``, or ``None``.

    ``None`` is returned both when the minimum cut exceeds ``limit`` and when
    the cut size is ∞ by definition (U₁ ∩ U₂ ≠ ∅ or an edge joins U₁ and U₂),
    mirroring the "output −1" convention of the MVC task in Lemma 8.
    With ``limit=None`` the true minimum cut is returned whenever it is finite.

    The cut never contains vertices of U₁ or U₂.  Callers with many pairs on
    one graph should build one :class:`VertexCutNetwork` and query it.
    """
    return VertexCutNetwork(graph).minimum_cut(side_a, side_b, limit)


def is_vertex_cut(graph: Graph, side_a: Iterable[NodeId], side_b: Iterable[NodeId], cut: Iterable[NodeId]) -> bool:
    """Check that removing ``cut`` disconnects every vertex of U₁ from every vertex of U₂."""
    a = set(side_a)
    b = set(side_b)
    cut_set = set(cut)
    if cut_set & (a | b):
        return False
    remaining = graph.without_nodes(cut_set)
    for comp in remaining.connected_components():
        if comp & a and comp & b:
            return False
    return True
