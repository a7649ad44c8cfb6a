"""Subgraph operations (Lemma 8) and their scheduled multi-instance variants.

:class:`SubgraphOperations` bundles the toolbox the paper's algorithms are
written in: per-part rooted spanning trees (RST), subtree aggregation (STA),
leader election (SLE), connected-component detection (CCD), broadcast (BCT)
and minimum vertex cuts (MVC), plus the scheduled BCT(h) and MVC(h, t) of
Corollaries 2–3.  Each call performs the logical computation on the base
graph and charges the corresponding closed-form round cost to a shared
:class:`~repro.core.rounds.RoundLedger`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.rounds import CostModel, RoundLedger
from repro.decomposition.vertex_cut import VertexCutNetwork
from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.graphs.properties import tree_subtree_sizes
from repro.shortcuts.partition import SubgraphCollection

NodeId = Hashable


class SubgraphOperations:
    """The Lemma-8 operation toolbox over a collection of subgraphs.

    Parameters
    ----------
    collection:
        The (near-)disjoint collection of connected subgraphs to operate on.
    width:
        The treewidth parameter τ (or the current width guess t) used by the
        round-cost formulas.
    cost_model / ledger:
        Round accounting; either may be ``None`` to disable accounting.
    """

    def __init__(
        self,
        collection: SubgraphCollection,
        width: int,
        cost_model: Optional[CostModel] = None,
        ledger: Optional[RoundLedger] = None,
    ) -> None:
        self.collection = collection
        self.width = max(1, width)
        self.cost_model = cost_model
        self.ledger = ledger if ledger is not None else RoundLedger()

    # ------------------------------------------------------------------ #
    def _charge(self, phase: str, rounds: int) -> None:
        if self.cost_model is not None:
            self.ledger.charge(phase, rounds)

    def _op_cost(self) -> int:
        return self.cost_model.subgraph_operation(self.width) if self.cost_model else 0

    # ------------------------------------------------------------------ #
    # RST: rooted spanning tree per part
    # ------------------------------------------------------------------ #
    def rooted_spanning_trees(
        self, roots: Mapping[int, NodeId]
    ) -> Dict[int, Dict[NodeId, Optional[NodeId]]]:
        """RST: a BFS spanning tree (child → parent map) per part, rooted as requested."""
        out: Dict[int, Dict[NodeId, Optional[NodeId]]] = {}
        for idx in range(len(self.collection)):
            root = roots.get(idx)
            sub = self.collection.subgraph(idx)
            if root is None:
                root = min(sub.nodes(), key=str)
            if not sub.has_node(root):
                raise GraphError(f"root {root!r} not in part {idx}")
            out[idx] = sub.spanning_tree(root=root)
        self._charge("rst", self._op_cost())
        return out

    # ------------------------------------------------------------------ #
    # STA: subtree aggregation
    # ------------------------------------------------------------------ #
    def subtree_aggregate(
        self,
        trees: Mapping[int, Dict[NodeId, Optional[NodeId]]],
        values: Mapping[NodeId, int],
    ) -> Dict[int, Dict[NodeId, int]]:
        """STA: for every tree node, the sum of ``values`` over its subtree."""
        out: Dict[int, Dict[NodeId, int]] = {}
        for idx, parent in trees.items():
            weight = {v: values.get(v, 0) for v in parent}
            out[idx] = tree_subtree_sizes(parent, weight)
        self._charge("sta", self._op_cost())
        return out

    # ------------------------------------------------------------------ #
    # SLE: leader election per part
    # ------------------------------------------------------------------ #
    def elect_leaders(
        self, candidates: Optional[Mapping[NodeId, bool]] = None
    ) -> Dict[int, NodeId]:
        """SLE: elect the smallest candidate (by string order) in every part."""
        out: Dict[int, NodeId] = {}
        for idx in range(len(self.collection)):
            part = self.collection.part(idx)
            eligible = [
                v for v in part if candidates is None or candidates.get(v, False)
            ]
            if not eligible:
                raise GraphError(f"part {idx} has no leader candidates")
            out[idx] = min(eligible, key=str)
        self._charge("sle", self._op_cost())
        return out

    # ------------------------------------------------------------------ #
    # CCD: connected component detection of a sub-subgraph
    # ------------------------------------------------------------------ #
    def connected_components(
        self, removed: Optional[Set[NodeId]] = None
    ) -> Dict[int, List[Set[NodeId]]]:
        """CCD: connected components of each part after removing ``removed`` vertices."""
        removed = removed or set()
        out: Dict[int, List[Set[NodeId]]] = {}
        for idx in range(len(self.collection)):
            part = set(self.collection.part(idx)) - removed
            if not part:
                out[idx] = []
                continue
            sub = self.collection.base.subgraph(part)
            out[idx] = sub.connected_components()
        self._charge("ccd", self._op_cost())
        return out

    # ------------------------------------------------------------------ #
    # BCT / BCT(h): broadcast within parts
    # ------------------------------------------------------------------ #
    def broadcast(self, messages: Mapping[int, Sequence[Any]]) -> Dict[int, List[Any]]:
        """BCT(h): every part broadcasts its list of messages to all its nodes.

        ``h`` is the maximum number of messages per part; the cost follows
        Corollary 3 (Õ(τD + hτ)).  The return value is what every node of the
        part ends up knowing (the full message list).
        """
        h = max((len(msgs) for msgs in messages.values()), default=1)
        out = {idx: list(msgs) for idx, msgs in messages.items()}
        if self.cost_model is not None:
            self._charge("bct", self.cost_model.broadcast_multi(self.width, h))
        return out

    # ------------------------------------------------------------------ #
    # MVC / MVC(h, t): minimum vertex cuts
    # ------------------------------------------------------------------ #
    def minimum_vertex_cuts(
        self,
        requests: Sequence[Tuple[int, Set[NodeId], Set[NodeId]]],
        limit: int,
    ) -> List[Optional[Set[NodeId]]]:
        """MVC(h, t): solve ``h`` vertex-cut instances, one per request.

        Each request is ``(part index, U1, U2)``; the cut is computed inside
        the part's induced subgraph.  Cuts larger than ``limit`` (or infinite
        by definition) yield ``None``, mirroring the "-1" output of Lemma 8.
        Cost follows Corollary 2 (Õ(tτD + htτ)).  Each part is induced once
        and gets one flow network, shared by all of its requests.
        """
        results: List[Optional[Set[NodeId]]] = [None] * len(requests)
        by_part: Dict[int, List[int]] = {}
        for pos, (part_idx, _, _) in enumerate(requests):
            by_part.setdefault(part_idx, []).append(pos)
        for part_idx, positions in by_part.items():
            sub = self.collection.subgraph(part_idx)
            network: Optional[VertexCutNetwork] = None
            for pos in positions:
                _, side_a, side_b = requests[pos]
                a = {u for u in side_a if sub.has_node(u)}
                b = {v for v in side_b if sub.has_node(v)}
                if not a or not b:
                    continue
                if network is None:
                    network = VertexCutNetwork(sub)
                results[pos] = network.minimum_cut(a, b, limit=limit)
        if self.cost_model is not None:
            h = max(1, len(requests))
            self._charge(
                "mvc", self.cost_model.min_vertex_cut_multi(self.width, h, limit)
            )
        return results
