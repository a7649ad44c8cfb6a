"""The ``Sep`` balanced-separator algorithm (paper §3.3, Lemma 1).

``Sep`` computes an (X, α)-balanced separator of size O(t²) of a connected
graph, given a width guess ``t ≥ τ + 1``; a doubling loop over ``t`` removes
the need to know τ.  The structure follows the paper exactly:

1. If μ(G) ≤ c·t², output X (trivial separator) and halt.
2. For î = ⌈iterations_factor·t⌉ iterations: split a spanning tree of the
   current residual graph G_i into split trees of μ-size ≈ μ(G)/t (the
   ``Split`` procedure); if the accumulated split-tree roots R* already form a
   balanced separator, output them.  Otherwise recurse into the heaviest
   component of G_i − R_i.
3. Otherwise, sample random ordered pairs of split trees from each iteration
   and compute minimum V(T₁)-V(T₂) vertex cuts of size ≤ t; the union Z of the
   small cuts found is output if it is a balanced separator.
4. If all retries fail, conclude t ≤ τ and double t.

The balancedness of every candidate output is *checked*, never assumed, so
the returned separator is always valid regardless of the randomization.

Round accounting follows Appendix B.2: steps 1–3 are Õ(1) subgraph operations
per iteration (Õ(t·τ·D) total) and step 4 is one BCT(O(t²)) plus one
MVC(O(t), t+1), for a total of Õ(τ²D + τ³) once the doubling loop finishes at
t = Θ(τ).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.config import SeparatorParams
from repro.core.rounds import CostModel, RoundLedger
from repro.decomposition.split import SplitTree, split_graph, split_tree_roots
from repro.decomposition.vertex_cut import VertexCutNetwork
from repro.errors import DecompositionError, GraphError, SeparatorFailure
from repro.graphs.graph import Graph

NodeId = Hashable


def _mu(focus: Optional[Set[NodeId]], vertices: Iterable[NodeId]) -> int:
    """μ_X weight of a vertex collection (|collection ∩ X|, or |collection| if X is None)."""
    if focus is None:
        return sum(1 for _ in vertices)
    return sum(1 for v in vertices if v in focus)


def is_mu_balanced(
    graph: Graph,
    separator: Set[NodeId],
    focus: Optional[Set[NodeId]],
    alpha: float,
    total_mu: Optional[int] = None,
) -> bool:
    """Check that ``separator`` is an (X, α)-balanced separator of ``graph``.

    Every connected component of ``graph − separator`` must carry at most
    ``α · μ_X(graph)`` focus weight.
    """
    if total_mu is None:
        total_mu = _mu(focus, graph.nodes())
    if total_mu == 0:
        return True
    remaining = graph.without_nodes(separator)
    threshold = alpha * total_mu
    for comp in remaining.connected_components():
        if _mu(focus, comp) > threshold:
            return False
    return True


@dataclass
class SeparatorResult:
    """Outcome of one balanced-separator computation.

    Attributes
    ----------
    separator:
        The separator vertex set S.
    width_guess:
        The final value of the doubling parameter ``t`` that produced S.
    method:
        Which exit produced S: ``"trivial"`` (step 1), ``"roots"`` (step 3) or
        ``"cuts"`` (step 4).
    balance:
        The achieved balance: the largest component μ-fraction after removing S.
    attempts:
        Total number of Sep trials executed (over all values of t).
    rounds:
        Charged CONGEST rounds (0 if no cost model was supplied).
    ledger:
        Per-phase round breakdown.
    """

    separator: Set[NodeId]
    width_guess: int
    method: str
    balance: float
    attempts: int
    rounds: int
    ledger: RoundLedger = field(default_factory=RoundLedger)

    def size(self) -> int:
        return len(self.separator)


class BalancedSeparator:
    """Stateful wrapper around ``Sep`` with doubling width estimation.

    Parameters
    ----------
    params:
        Constants of the algorithm (see :class:`SeparatorParams`).
    rng:
        Source of randomness for pair sampling.
    cost_model:
        Optional :class:`CostModel` used to charge CONGEST rounds; when
        ``None`` the separator is still computed but ``rounds`` is 0.
    """

    def __init__(
        self,
        params: Optional[SeparatorParams] = None,
        rng: Optional[random.Random] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.params = params or SeparatorParams.practical()
        self.params.validate()
        self.rng = rng or random.Random(0)
        self.cost_model = cost_model

    # ------------------------------------------------------------------ #
    def find(
        self,
        graph: Graph,
        focus: Optional[Set[NodeId]] = None,
        initial_t: int = 2,
        max_t: Optional[int] = None,
        known_width: Optional[int] = None,
    ) -> SeparatorResult:
        """Compute an (X, α)-balanced separator with doubling width estimation.

        Parameters
        ----------
        graph:
            A connected graph.
        focus:
            The focus set X (``None`` = all vertices).
        initial_t:
            Starting width guess.
        max_t:
            Safety cap on the doubling loop (default: number of nodes).
        known_width:
            If provided, skip the doubling loop and start at this guess
            (used when an upper bound on τ is already known, e.g. in the
            recursive decomposition where the first level fixed t).
        """
        if graph.num_nodes() == 0:
            return SeparatorResult(set(), initial_t, "trivial", 0.0, 0, 0)
        if not graph.is_connected():
            raise GraphError("Sep requires a connected input graph")
        n = graph.num_nodes()
        cap = max_t if max_t is not None else max(2, n)
        t = max(1, known_width if known_width is not None else initial_t)
        attempts = 0
        ledger = RoundLedger()
        while True:
            for _ in range(self.params.max_retries):
                attempts += 1
                try:
                    sep, method = self._sep_once(graph, focus, t, ledger)
                except SeparatorFailure:
                    continue
                balance = self._achieved_balance(graph, sep, focus)
                rounds = ledger.total()
                return SeparatorResult(
                    separator=sep,
                    width_guess=t,
                    method=method,
                    balance=balance,
                    attempts=attempts,
                    rounds=rounds,
                    ledger=ledger,
                )
            if t >= cap:
                raise DecompositionError(
                    f"Sep failed to find a balanced separator up to width guess {t}"
                )
            t = min(cap, 2 * t)

    # ------------------------------------------------------------------ #
    def _achieved_balance(
        self, graph: Graph, separator: Set[NodeId], focus: Optional[Set[NodeId]]
    ) -> float:
        total = _mu(focus, graph.nodes())
        if total == 0:
            return 0.0
        remaining = graph.without_nodes(separator)
        worst = 0
        for comp in remaining.connected_components():
            worst = max(worst, _mu(focus, comp))
        return worst / total

    # ------------------------------------------------------------------ #
    def _charge(self, ledger: RoundLedger, phase: str, rounds: int) -> None:
        if self.cost_model is not None:
            ledger.charge(phase, rounds)

    def _sep_once(
        self,
        graph: Graph,
        focus: Optional[Set[NodeId]],
        t: int,
        ledger: RoundLedger,
    ) -> Tuple[Set[NodeId], str]:
        """One trial of Sep with width guess ``t``; raises SeparatorFailure on failure."""
        params = self.params
        cm = self.cost_model
        total_mu = _mu(focus, graph.nodes())
        alpha = params.balance_fraction

        # Step 1: trivial separator for small focus weight.
        self._charge(ledger, "sep/step1_count", cm.partwise_aggregation(t) if cm else 0)
        if total_mu <= params.size_threshold_factor * t * t:
            if focus is None:
                sep = set(graph.nodes())
            else:
                sep = {v for v in graph.nodes() if v in focus}
            return sep, "trivial"

        iterations = max(1, math.ceil(params.iterations_factor * t))
        all_tree_sets: List[List[SplitTree]] = []
        accumulated_roots: Set[NodeId] = set()
        current = graph

        # Steps 2-3: iterative splitting and root accumulation.
        for _ in range(iterations):
            if current.num_nodes() == 0 or _mu(focus, current.nodes()) == 0:
                break
            trees = split_graph(
                current,
                None if focus is None else (focus & set(current.nodes())),
                t,
                lower_divisor=params.split_lower_divisor,
            )
            all_tree_sets.append(trees)
            roots = split_tree_roots(trees)
            accumulated_roots |= roots
            if cm:
                # Split = O(log t) subgraph operations; CCD + PA for the balance check.
                split_cost = max(1, math.ceil(math.log2(t + 1))) * cm.subgraph_operation(t)
                self._charge(ledger, "sep/split", split_cost)
                self._charge(ledger, "sep/balance_check", cm.subgraph_operation(t))
            if is_mu_balanced(graph, accumulated_roots, focus, alpha, total_mu):
                return set(accumulated_roots), "roots"
            remaining = current.without_nodes(roots)
            comps = remaining.connected_components()
            if not comps:
                break
            heaviest = max(comps, key=lambda c: (_mu(focus, c), len(c)))
            current = remaining.subgraph(heaviest)

        # Step 4: sampled pairwise vertex cuts, all on one reusable network.
        cut_union: Set[NodeId] = set()
        num_pairs_total = 0
        network: Optional[VertexCutNetwork] = None
        for trees in all_tree_sets:
            if len(trees) < 2:
                continue
            for _ in range(params.num_sampled_pairs):
                t1, t2 = self.rng.sample(range(len(trees)), 2)
                a = set(trees[t1].vertices)
                b = set(trees[t2].vertices)
                shared = a & b
                a -= shared
                b -= shared
                if not a or not b:
                    continue
                num_pairs_total += 1
                if network is None:
                    network = VertexCutNetwork(graph)
                cut = network.minimum_cut(a, b, limit=t)
                if cut is not None:
                    cut_union |= cut
        if cm:
            h = max(1, num_pairs_total)
            self._charge(ledger, "sep/pair_broadcast", cm.broadcast_multi(t, h))
            self._charge(ledger, "sep/vertex_cuts", cm.min_vertex_cut_multi(t, h, t + 1))
        candidate = cut_union | accumulated_roots
        if cut_union and is_mu_balanced(graph, cut_union, focus, alpha, total_mu):
            return cut_union, "cuts"
        if candidate and is_mu_balanced(graph, candidate, focus, alpha, total_mu):
            # The union of roots and cuts is still O(t²) vertices and is how
            # the distributed implementation combines steps 3 and 4.
            return candidate, "cuts"
        raise SeparatorFailure(f"Sep trial failed for width guess t={t}")


def find_balanced_separator(
    graph: Graph,
    focus: Optional[Set[NodeId]] = None,
    params: Optional[SeparatorParams] = None,
    seed: Optional[int] = 0,
    cost_model: Optional[CostModel] = None,
    initial_t: int = 2,
    known_width: Optional[int] = None,
) -> SeparatorResult:
    """Convenience wrapper: compute an (X, α)-balanced separator of ``graph``.

    See :class:`BalancedSeparator` for parameter semantics.
    """
    sep = BalancedSeparator(
        params=params, rng=random.Random(seed), cost_model=cost_model
    )
    return sep.find(graph, focus=focus, initial_t=initial_t, known_width=known_width)
