"""The benchmark's workloads: seeded inputs, one op, and its oracle check.

Each workload drives public entry points only, with the library's
defaults.  It passes inputs (graph, source, fault model, corpus, query
pairs, and the seed that makes them) and never a keyword that selects a
tier or backend; see ``README.md`` for the rule and the reason.

The driver (:mod:`perfbench.bench`) calls ``setup`` several times (each one
timed, the last one kept), ``warm``, then ``op(k)`` on inputs
``k = 0, 1, ...`` with ``record(k, out)`` after each, and ``verify()`` once
at the end.  Inputs repeat: input ``k`` is slot ``slot(k)``.  ``record``
keeps the first output of each slot and requires every later op on the
slot to give the same output and the same exact counts; ``verify`` then
checks the first outputs against the networkx oracle, so every op's answers
are checked while memory stays flat however many ops a run makes.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import Callable, Dict, List, Optional

from repro.congest.bellman_ford import distributed_bellman_ford
from repro.congest.faults import Churn
from repro.core.api import LowTreewidthSolver
from repro.graphs.generators import grid_graph, partial_k_tree, to_directed_instance
from repro.labeling.packed import PackedLabeling
from repro.serving.client import QueryClient
from repro.serving.server import ServerPool
from repro.serving.store import LabelStore

from perfbench.oracle import Oracle
from perfbench.tracing import NULL_TRACER, layer_median

#: Instance sizes.  ``tiny`` is the self-test smoke scale.
SCALES: Dict[str, Dict[str, object]] = {
    "full": {
        "ktree_n": 2000, "grid": (20, 21), "sssp_grid": (20, 60), "source_blocks": (4, 8),
        "serve_n": 1000, "sources": 32, "pairs": 8192, "batch": 1000, "batches": 16,
        "point_trace_ops": 20000, "batch_trace_ops": 200,
    },
    "tiny": {
        "ktree_n": 60, "grid": (4, 5), "sssp_grid": (3, 8), "source_blocks": (1, 4),
        "serve_n": 60, "sources": 4, "pairs": 64, "batch": 16, "batches": 4,
        "point_trace_ops": 50, "batch_trace_ops": 4,
    },
}

#: Integer weights, drawn independently per direction.
WEIGHTS = (1, 9)


def directed(graph, seed: int):
    return to_directed_instance(
        graph, weight_range=WEIGHTS, orientation="asymmetric", seed=seed
    )


#: Seed of the partial 3-trees' shape.  Their label sizes, and so build and
#: query times, differed by up to 30% from shape to shape at n=1000; with
#: one shape, as with the grids, ``--seed`` draws the weights and the
#: queries and the spread between runs is the program's and the host's.
KTREE_SHAPE_SEED = 0


def partial_3_tree(n: int, seed: int):
    return directed(partial_k_tree(n, 3, 0.6, seed=KTREE_SHAPE_SEED), seed + 1)


class Workload:
    name = ""
    why = ""
    #: Ops the timed phase runs even when ``--seconds`` has passed.
    min_ops = 3
    #: Ops a traced run traces, replaying inputs ``0 .. trace_ops - 1``.
    trace_ops = 3
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 15
    #: Wrappers (``Class.method``) a traced run must see called.
    expected_wrappers: tuple = ()

    def __init__(self, scale: str, workdir: str) -> None:
        self.cfg = SCALES[scale]
        self.workdir = workdir
        self.first_out: Dict[int, object] = {}
        self.first_counts: Dict[int, dict] = {}

    def setup(self, seed: int, tracer) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        pass

    def op(self, k: int, tracer):
        """Run the op on input ``k`` and return its output."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def slot(self, k: int) -> int:
        return 0

    def record(self, k: int, out) -> Optional[str]:
        """Keep or compare op output ``out``; an error string fails the op."""
        raise NotImplementedError

    def keep(self, k: int, value, counts: Optional[dict] = None,
             same: Callable[[object, object], bool] = lambda a, b: a == b) -> Optional[str]:
        slot = self.slot(k)
        first = self.first_out.setdefault(slot, value)
        if first is not value and not same(first, value):
            return "output differs from an earlier op on the same input"
        if counts is not None:
            expected = self.first_counts.setdefault(slot, counts)
            if counts != expected:
                return f"exact counts {counts} differ from an earlier op's {expected}"
        return None

    def check(self, oracle: Oracle, slot: int, value) -> Optional[str]:
        """Compare one slot's first output with the oracle."""
        raise NotImplementedError

    def verify(self) -> Dict[int, str]:
        """Oracle verdicts ``{slot: error}`` for the slots that are wrong."""
        oracle = Oracle(self.instance)
        bad = {}
        for slot, value in self.first_out.items():
            error = self.check(oracle, slot, value)
            if error:
                bad[slot] = error
        return bad

    def begin_traced_phase(self) -> None:
        pass

    def layer_metrics(self, summary, op_p50_ns: float) -> dict:
        """Per-layer metrics; ``op_p50_ns`` is the traced phase's op p50,
        the op time taken closest to any in-process timing made here."""
        return {}


# --------------------------------------------------------------------------- #
# Label builds
# --------------------------------------------------------------------------- #
def _same_packed(a: PackedLabeling, b: PackedLabeling) -> bool:
    return a.ids == b.ids and all(
        (x == y).all() for x, y in (
            (a.offsets, b.offsets), (a.hubs, b.hubs),
            (a.to_hub, b.to_hub), (a.from_hub, b.from_hub),
        )
    )


class BuildWorkload(Workload):
    """One op = full labeling build: decomposition, labeling and pack."""

    expected_wrappers = (
        "WeightedDiGraph.subgraph", "Graph.subgraph", "PackedLabeling.from_labeling",
    )
    oracle_sources = 4

    def make_instance(self, seed: int):
        raise NotImplementedError

    def warm_instance(self):
        raise NotImplementedError

    def setup(self, seed: int, tracer) -> None:
        self.seed = seed
        self.instance = self.make_instance(seed)
        self.nodes = sorted(self.instance.nodes())
        self.sources = random.Random(seed).sample(self.nodes, self.oracle_sources)

    def warm(self) -> None:
        self._build(self.warm_instance(), NULL_TRACER)

    def _build(self, instance, tracer):
        solver = LowTreewidthSolver(instance, seed=self.seed)
        with tracer.span("graphs.diameter"):
            solver.cost_model
        with tracer.span("decomposition.build"):
            dec = solver.tree_decomposition()
        with tracer.span("labeling.construct"):
            lab = solver.distance_labeling()
        return dec, lab, PackedLabeling.from_labeling(lab.labeling)

    def op(self, k: int, tracer):
        return self._build(self.instance, tracer)

    def record(self, k: int, out) -> Optional[str]:
        dec, lab, packed = out
        td = dec.decomposition
        return self.keep(k, packed, {
            "decomposition.width": td.width(),
            "decomposition.bags": td.num_bags(),
            "decomposition.rounds": dec.rounds,
            "labeling.rounds": lab.rounds,
            "labeling.entries": packed.total_entries,
            "labeling.max_entries": packed.max_entries,
        }, same=_same_packed)

    def check(self, oracle: Oracle, slot: int, packed) -> Optional[str]:
        """All distances from and to a few seeded sources."""
        nodes, wrong = self.nodes, 0
        for s in self.sources:
            got_from = packed.query([s] * len(nodes), nodes)
            got_to = packed.query(nodes, [s] * len(nodes))
            row_from, row_to = oracle.dist_from(s), oracle.dist_to(s)
            for v, a, b in zip(nodes, got_from, got_to):
                wrong += float(a) != row_from[v]
                wrong += float(b) != row_to[v]
        return f"{wrong} label distances differ from the oracle" if wrong else None

    def layer_metrics(self, summary, op_p50_ns) -> dict:
        s = 1e-9
        return {
            "graphs.subgraph_s": layer_median(summary, "graphs.subgraph") * s,
            "graphs.subgraph_calls": layer_median(summary, "graphs.subgraph", 2),
            "graphs.diameter_s": layer_median(summary, "graphs.diameter") * s,
            "decomposition.build_s": layer_median(summary, "decomposition.build") * s,
            "labeling.construct_s": layer_median(summary, "labeling.construct") * s,
            "labeling.construct_self_s": layer_median(summary, "labeling.construct", 1) * s,
            "labeling.pack_s": layer_median(summary, "labeling.pack") * s,
            **self.first_counts[0],
        }


class BuildKtree(BuildWorkload):
    name = "build_ktree"
    why = ("Many small bags: subgraph scans and leaf APSP dominate the build, "
           "the decomposition does little.")

    def make_instance(self, seed: int):
        return partial_3_tree(int(self.cfg["ktree_n"]), seed)

    def warm_instance(self):
        return partial_3_tree(40, 0)


class BuildGrid(BuildWorkload):
    name = "build_grid"
    why = ("Few large bags (20x21 grid, treewidth 20): vertex-cut decomposition "
           "and the label merge dominate, subgraph does little.")
    min_ops = 5
    trace_ops = 2

    def make_instance(self, seed: int):
        rows, cols = self.cfg["grid"]
        return directed(grid_graph(rows, cols), seed)

    def warm_instance(self):
        return directed(grid_graph(4, 5), 0)


# --------------------------------------------------------------------------- #
# CONGEST Bellman-Ford
# --------------------------------------------------------------------------- #
class SsspWorkload(Workload):
    """One op = one ``distributed_bellman_ford`` run from a seeded source."""

    expected_wrappers = ("CongestNetwork.__init__", "CongestNetwork.run")

    def fault_model(self, slot: int):
        return None

    @property
    def trace_ops(self) -> int:
        """One pass over the source pool; the timed phase makes one too."""
        block_rows, block_cols = self.cfg["source_blocks"]
        return block_rows * block_cols

    @property
    def min_ops(self) -> int:
        return self.trace_ops

    def setup(self, seed: int, tracer) -> None:
        rows, cols = self.cfg["sssp_grid"]
        self.instance = directed(grid_graph(rows, cols), seed)
        self.nodes = sorted(self.instance.nodes())
        # One seeded source per block of the grid, so every seed's pool
        # mixes central and peripheral sources alike.
        rng = random.Random(seed)
        block_rows, block_cols = self.cfg["source_blocks"]
        self.sources = [
            (rng.randrange(i * rows // block_rows, (i + 1) * rows // block_rows),
             rng.randrange(j * cols // block_cols, (j + 1) * cols // block_cols))
            for i in range(block_rows) for j in range(block_cols)
        ]
        self.fault_seeds = [rng.randrange(1 << 30) for _ in self.sources]

    def warm(self) -> None:
        self.op(0, NULL_TRACER)

    def slot(self, k: int) -> int:
        return k % len(self.sources)

    def op(self, k: int, tracer):
        slot = self.slot(k)
        faults = self.fault_model(slot)
        if faults is None:
            return distributed_bellman_ford(self.instance, self.sources[slot])
        return distributed_bellman_ford(
            self.instance, self.sources[slot], fault_schedule=faults
        )

    def record(self, k: int, out) -> Optional[str]:
        sim = out.simulation
        verdict = sim.fault_verdict
        return self.keep(k, out.distances, {
            "congest.rounds": out.rounds,
            "congest.messages": out.messages,
            "congest.async_events": (sim.async_stats or {}).get("events_processed", 0),
            "congest.faults_injected": verdict.faults_injected if verdict else 0,
            "congest.payloads_dropped": verdict.payloads_dropped if verdict else 0,
            "congest.rounds_to_reconverge": verdict.rounds_to_reconverge if verdict else 0,
        })

    def check(self, oracle: Oracle, slot: int, distances) -> Optional[str]:
        wrong = oracle.vector_mismatches(self.sources[slot], distances, self.nodes)
        return f"{wrong} distances differ from the oracle" if wrong else None

    def layer_metrics(self, summary, op_p50_ns) -> dict:
        """Counts are per-op means over one pass of the source pool."""
        s = 1e-9
        per_op = [self.first_counts[self.slot(k)] for k in range(self.trace_ops)]
        metrics = {key: sum(c[key] for c in per_op) / len(per_op) for key in per_op[0]}
        run_s = sum(r.get("congest.run", [0])[0] for r in summary["op"]) * s
        metrics.update({
            "congest.network_s": layer_median(summary, "congest.network") * s,
            "congest.run_s": layer_median(summary, "congest.run") * s,
            "congest.messages_per_s": sum(c["congest.messages"] for c in per_op) / run_s,
            "congest.events_per_s": sum(c["congest.async_events"] for c in per_op) / run_s,
        })
        return metrics


class SsspSync(SsspWorkload):
    name = "sssp_sync"
    why = ("The default synchronous CONGEST tier on a long-diameter grid "
           "(20x60): Bellman-Ford from seeded sources, no faults.")


class SsspChurn(SsspWorkload):
    name = "sssp_churn"
    why = ("The same instance and sources under a seeded Churn fault model, which "
           "implies the async tier: the only run of the scheduler and fault layers.")

    def fault_model(self, slot: int):
        return Churn(seed=self.fault_seeds[slot])


# --------------------------------------------------------------------------- #
# Label serving
# --------------------------------------------------------------------------- #
GRAPH = "ktree"


class ServeWorkload(Workload):
    """A 1-worker ``ServerPool`` over a one-graph ``LabelStore``, driven
    closed-loop over one ``QueryClient`` connection."""

    expected_wrappers = ("WeightedDiGraph.subgraph", "PackedLabeling.from_labeling")
    setup_repeats = 3

    def __init__(self, scale: str, workdir: str) -> None:
        super().__init__(scale, workdir)
        self.pool = self.client = None
        self.timings: List[tuple] = []

    def setup(self, seed: int, tracer) -> None:
        self.close()
        self.instance = partial_3_tree(int(self.cfg["serve_n"]), seed)
        t0 = time.perf_counter()
        with tracer.span("serving.store_build"):
            store = LabelStore.build({GRAPH: self.instance}, os.path.join(self.workdir, "store"))
        t1 = time.perf_counter()
        with tracer.span("serving.pool_start"):
            self.pool = ServerPool(store.directory, num_workers=1)
        self.timings.append((t1 - t0, time.perf_counter() - t1))
        self.store_dir = store.directory
        self.client = QueryClient(self.pool.addresses[0])
        self._make_queries(seed)
        for u, v in self.pairs[:200]:
            self.client.point(GRAPH, u, v)
        self.client.query(GRAPH, *self.batches[0])

    def _make_queries(self, seed: int) -> None:
        """Pairs from or to seeded sources, so the oracle needs few rows."""
        rng = random.Random(seed)
        nodes = sorted(self.instance.nodes())
        sources = rng.sample(nodes, int(self.cfg["sources"]))
        self.pairs, self.expect = [], []
        for _ in range(int(self.cfg["pairs"])):
            s, v = rng.choice(sources), rng.choice(nodes)
            forward = rng.random() < 0.5
            self.pairs.append((s, v) if forward else (v, s))
            self.expect.append((s, v, forward))
        size, total = int(self.cfg["batch"]), len(self.pairs)
        self.batch_index = [
            [i % total for i in range(b * size, (b + 1) * size)]
            for b in range(int(self.cfg["batches"]))
        ]
        self.batches = [
            ([self.pairs[i][0] for i in index], [self.pairs[i][1] for i in index])
            for index in self.batch_index
        ]

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def record(self, k: int, out) -> Optional[str]:
        return self.keep(k, out)

    def expected(self, oracle: Oracle, pair: int) -> float:
        s, v, forward = self.expect[pair]
        return (oracle.dist_from(s) if forward else oracle.dist_to(s))[v]

    def begin_traced_phase(self) -> None:
        self.stats_before = self.client.server_stats()

    def layer_metrics(self, summary, op_p50_ns) -> dict:
        s = 1e-9
        after = self.client.server_stats()
        c0, c1 = self.stats_before["counters"], after["counters"]
        packed = LabelStore(self.store_dir).get(GRAPH)
        decode_us = self._decode_us(packed)
        batch_ns = self._kernel_batch_ns(packed)
        inprocess_us = self.inprocess_op_us(decode_us, batch_ns)
        return {
            "serving.store_build_s": statistics.median(t[0] for t in self.timings),
            "serving.pool_start_s": statistics.median(t[1] for t in self.timings),
            "serving.wire_overhead_us": op_p50_ns / 1e3 - inprocess_us,
            "serving.requests": c1["requests"] - c0["requests"],
            "serving.ticks": c1["ticks"] - c0["ticks"],
            "serving.batch_calls": c1["batch_calls"] - c0["batch_calls"],
            "serving.max_batch": c1["max_batch"],
            "serving.dropped_clients": c1["dropped_clients"],
            "serving.malformed_requests": c1["malformed_requests"],
            "serving.mapped_bytes": after["store"]["mapped_bytes"],
            "serving.copied_label_bytes": after["store"]["copied_label_bytes"],
            "serving.server_rss_mb": after["rss_kb"] / 1024,
            "labeling.pack_s": layer_median(summary, "labeling.pack") * s,
            "graphs.subgraph_s": layer_median(summary, "graphs.subgraph") * s,
            "graphs.subgraph_calls": layer_median(summary, "graphs.subgraph", 2),
            "labeling.point_decode_us": decode_us,
            "labeling.kernel_pairs_per_s": int(self.cfg["batch"]) / (batch_ns * s),
            "labeling.entries": packed.total_entries,
            "labeling.max_entries": packed.max_entries,
        }

    def _decode_us(self, packed) -> float:
        """In-process ``PackedLabeling.distance`` on the served (mapped) file."""
        pairs = self.pairs[:5000]
        runs = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for u, v in pairs:
                packed.distance(u, v)
            runs.append((time.perf_counter_ns() - t0) / len(pairs))
        return statistics.median(runs) / 1e3

    def _kernel_batch_ns(self, packed) -> float:
        """In-process ``PackedLabeling.query`` time of one served batch."""
        runs = []
        for _ in range(3):
            for us, vs in self.batches:
                t0 = time.perf_counter_ns()
                packed.query(us, vs)
                runs.append(time.perf_counter_ns() - t0)
        return statistics.median(runs)


class ServePoints(ServeWorkload):
    name = "serve_points"
    why = ("Point-query round trips, closed loop on one connection to a "
           "1-worker pool: mostly wire overhead, so protocol gains show here.")

    @property
    def trace_ops(self) -> int:
        return int(self.cfg["point_trace_ops"])

    def slot(self, k: int) -> int:
        return k % len(self.pairs)

    def op(self, k: int, tracer):
        u, v = self.pairs[self.slot(k)]
        return self.client.point(GRAPH, u, v)

    def check(self, oracle: Oracle, slot: int, got) -> Optional[str]:
        want = self.expected(oracle, slot)
        return None if float(got) == want else f"point {self.pairs[slot]}: {got} != {want}"

    def inprocess_op_us(self, decode_us: float, batch_ns: float) -> float:
        return decode_us


class ServeBatches(ServeWorkload):
    name = "serve_batches"
    why = ("1000-pair query batches on the same server and connection: mostly "
           "kernel time, so kernel gains show here and not on serve_points.")

    @property
    def trace_ops(self) -> int:
        return int(self.cfg["batch_trace_ops"])

    def slot(self, k: int) -> int:
        return k % len(self.batches)

    def op(self, k: int, tracer):
        us, vs = self.batches[self.slot(k)]
        return self.client.query(GRAPH, us, vs)

    def check(self, oracle: Oracle, slot: int, got) -> Optional[str]:
        index = self.batch_index[slot]
        if len(got) != len(index):
            return f"{len(got)} answers for {len(index)} pairs"
        wrong = sum(float(g) != self.expected(oracle, j) for g, j in zip(got, index))
        return f"{wrong} of {len(index)} batch answers differ from the oracle" if wrong else None

    def inprocess_op_us(self, decode_us: float, batch_ns: float) -> float:
        return batch_ns / 1e3


WORKLOADS = {
    cls.name: cls
    for cls in (BuildKtree, BuildGrid, SsspSync, SsspChurn, ServePoints, ServeBatches)
}
