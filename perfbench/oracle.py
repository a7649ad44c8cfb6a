"""The independent oracle: networkx Dijkstra on a copy of each instance.

It shares no code with the library's own ``repro.graphs.properties``
shortest paths, so a wrong answer cannot be masked by the same bug on both
sides.  All of it runs outside the timed ops and outside ``setup_s``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable

import networkx as nx

INF = float("inf")


def to_networkx(instance) -> "nx.DiGraph":
    """A simple digraph keeping the lightest of any parallel arcs."""
    g = nx.DiGraph()
    g.add_nodes_from(instance.nodes())
    for e in instance.edges():
        w = float(e.weight)
        if not g.has_edge(e.tail, e.head) or w < g[e.tail][e.head]["weight"]:
            g.add_edge(e.tail, e.head, weight=w)
    return g


class Oracle:
    """Distances from and to a set of sources, computed once each."""

    def __init__(self, instance) -> None:
        self.graph = to_networkx(instance)
        self._reverse = self.graph.reverse(copy=True)
        self._from: Dict[Hashable, Dict[Hashable, float]] = {}
        self._to: Dict[Hashable, Dict[Hashable, float]] = {}

    def dist_from(self, s) -> Dict[Hashable, float]:
        row = self._from.get(s)
        if row is None:
            row = nx.single_source_dijkstra_path_length(self.graph, s, weight="weight")
            self._from[s] = row
        return row

    def dist_to(self, s) -> Dict[Hashable, float]:
        row = self._to.get(s)
        if row is None:
            row = nx.single_source_dijkstra_path_length(self._reverse, s, weight="weight")
            self._to[s] = row
        return row

    def vector_mismatches(self, s, got: Dict[Hashable, float], nodes: Iterable) -> int:
        """How many of ``nodes`` have a distance from ``s`` other than ``got``'s."""
        row = self.dist_from(s)
        return sum(
            1 for v in nodes if float(got.get(v, INF)) != float(row.get(v, INF))
        )
