"""Tests for the message-level CONGEST primitives (BFS, broadcast, convergecast, leader election)."""

import pytest

from repro.congest.network import CongestNetwork
from repro.congest import primitives
from repro.errors import GraphError
from repro.graphs import generators, properties


def test_broadcast_none_payload_terminates():
    """Regression: broadcasting ``None`` over a cyclic graph must not livelock
    (duplicate deliveries used to look like a first receipt)."""
    for engine in ("fast", "legacy"):
        net = CongestNetwork(generators.cycle_graph(6))
        values, result = primitives.broadcast(net, 0, None, max_rounds=100, engine=engine)
        assert result.halted
        assert set(values) == set(range(6))
        assert all(v is None for v in values.values())


class TestBFSTree:
    def test_bfs_depths_match_bfs_layers(self):
        g = generators.partial_k_tree(40, 3, seed=1)
        net = CongestNetwork(g)
        parent, depth, result = primitives.build_bfs_tree(net, 0)
        layers = g.bfs_layers(0)
        assert depth == layers
        assert parent[0] is None
        # Rounds ≈ eccentricity of the root (plus the delivery round).
        ecc = max(layers.values())
        assert ecc <= result.rounds <= ecc + 2

    def test_bfs_parent_edges_exist(self):
        g = generators.grid_graph(4, 5)
        net = CongestNetwork(g)
        parent, _, _ = primitives.build_bfs_tree(net, (0, 0))
        for child, par in parent.items():
            if par is not None:
                assert g.has_edge(child, par)

    def test_bfs_missing_root_raises(self):
        net = CongestNetwork(generators.path_graph(3))
        with pytest.raises(GraphError):
            primitives.build_bfs_tree(net, 99)


class TestBroadcast:
    def test_everyone_receives_value(self):
        g = generators.cycle_graph(12)
        net = CongestNetwork(g)
        values, result = primitives.broadcast(net, 0, ("hello", 7))
        assert all(v == ("hello", 7) for v in values.values())
        assert result.rounds <= properties.diameter(g) + 2

    def test_broadcast_rounds_scale_with_diameter(self):
        short = CongestNetwork(generators.star_graph(20))
        long = CongestNetwork(generators.path_graph(20))
        _, r_short = primitives.broadcast(short, 0, 1)
        _, r_long = primitives.broadcast(long, 0, 1)
        assert r_long.rounds > r_short.rounds


class TestConvergecast:
    def test_sum_over_tree(self):
        g = generators.random_tree(25, seed=2)
        net = CongestNetwork(g)
        parent = g.spanning_tree(root=0)
        values = {u: 1 for u in g.nodes()}
        total, result = primitives.convergecast_sum(net, parent, values)
        assert total == 25
        assert result.rounds <= 25

    def test_custom_combine_max(self):
        g = generators.path_graph(6)
        net = CongestNetwork(g)
        parent = g.spanning_tree(root=0)
        values = {u: u * 10 for u in g.nodes()}
        best, _ = primitives.convergecast_sum(net, parent, values, combine=max)
        assert best == 50

    def test_missing_root_raises(self):
        net = CongestNetwork(generators.path_graph(3))
        with pytest.raises(GraphError):
            primitives.convergecast_sum(net, {0: 1, 1: 0}, {})


class TestLeaderElection:
    def test_minimum_id_wins(self):
        g = generators.partial_k_tree(30, 2, seed=3)
        net = CongestNetwork(g)
        leader, result = primitives.elect_leader(net)
        assert leader == 0
        assert result.rounds <= properties.diameter(g) + 3

    def test_disconnected_rejected(self):
        from repro.graphs.graph import Graph

        g = Graph(edges=[(1, 2), (3, 4)])
        net = CongestNetwork(g)
        with pytest.raises(GraphError):
            primitives.elect_leader(net)


# --------------------------------------------------------------------------- #
# One option contract for every CONGEST entry point
# --------------------------------------------------------------------------- #
# Each entry point keeps its protocol arguments and forwards every other
# keyword to CongestNetwork.run.  The cases below drive all seven through
# the same checks: the shared fault prelude, implied async tier, options
# reaching run, and run's own keyword validation.
class _EntryPoint:
    """One entry point on a small shared instance.

    ``call(**run_options)`` returns ``(outputs, simulation_result)`` where
    ``outputs`` is the protocol's logical result; ``required`` is a node the
    protocol needs to recover from any crash.
    """

    def __init__(self, name, call, required):
        self.name = name
        self.call = call
        self.required = required

    def __repr__(self):
        return self.name


def _entry_points():
    from repro.congest.bellman_ford import distributed_bellman_ford
    from repro.labeling.construction import build_distance_labeling
    from repro.labeling.sssp import measured_label_broadcast

    g = generators.partial_k_tree(14, 2, seed=3)
    instance = generators.to_directed_instance(
        g, weight_range=(1, 9), orientation="asymmetric", seed=4
    )
    labeling = build_distance_labeling(instance).labeling
    tree, _, _ = primitives.build_bfs_tree(CongestNetwork(g), 0, engine="fast")
    values = {u: u + 1 for u in g.nodes()}

    def bfs_tree(**kw):
        _, depth, sim = primitives.build_bfs_tree(CongestNetwork(g), 0, **kw)
        return depth, sim

    def flood(**kw):
        return primitives.broadcast(CongestNetwork(g), 0, ("v", 7), **kw)

    def chunks(**kw):
        return primitives.flood_chunks(CongestNetwork(g), 0, [1, 2, 3], **kw)

    def convergecast(**kw):
        return primitives.convergecast_sum(CongestNetwork(g), tree, values, **kw)

    def leader(**kw):
        return primitives.elect_leader(CongestNetwork(g), **kw)

    def bellman_ford(**kw):
        res = distributed_bellman_ford(instance, 0, **kw)
        return res.distances, res.simulation

    def label_broadcast(**kw):
        net = CongestNetwork(instance.underlying_graph(), words_per_message=16)
        sim = measured_label_broadcast(net, labeling, 0, **kw)
        return sim.outputs, sim

    return [
        _EntryPoint("build_bfs_tree", bfs_tree, 0),
        _EntryPoint("broadcast", flood, 0),
        _EntryPoint("flood_chunks", chunks, 0),
        _EntryPoint("convergecast_sum", convergecast, 0),
        _EntryPoint("elect_leader", leader, 5),
        _EntryPoint("distributed_bellman_ford", bellman_ford, 0),
        _EntryPoint("measured_label_broadcast", label_broadcast, 0),
    ]


_ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize("entry", _ENTRY_POINTS, ids=repr)
class TestEntryPointOptions:
    def test_permanent_crash_of_required_node_rejected_before_any_round(
        self, entry, monkeypatch
    ):
        from repro.congest.faults import FaultEvent, FaultSchedule
        from repro.errors import FaultInjectionError

        def no_run(*args, **kwargs):
            raise AssertionError("a round ran before the schedule was rejected")

        monkeypatch.setattr(CongestNetwork, "run", no_run)
        dead = FaultSchedule([FaultEvent(3, "node_down", entry.required)])
        with pytest.raises(FaultInjectionError, match="no recovery"):
            entry.call(fault_schedule=dead)

    def test_seeded_churn_implies_async_and_reconverges(self, entry):
        from repro.congest.faults import Churn

        clean, _ = entry.call(engine="fast")
        outputs, sim = entry.call(
            fault_schedule=Churn(cycles=3, period=5, outage=2, start=3, seed=2)
        )
        assert sim.engine == "async"
        assert sim.fault_verdict is not None
        assert sim.fault_verdict.faults_injected > 0
        assert outputs == clean

    def test_misspelt_run_keyword_raises_type_error(self, entry):
        with pytest.raises(TypeError):
            entry.call(engin="fast")


def test_broadcast_forwards_sharded_options_and_falls_back_once():
    import warnings

    from repro.congest.engine import EngineFallbackWarning

    net = CongestNetwork(generators.cycle_graph(9))
    ref, _ = primitives.broadcast(net, 0, "x", engine="fast")
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        values, sim = primitives.broadcast(
            net, 0, "x", engine="sharded", num_shards=2
        )
    fallbacks = [w for w in rec if issubclass(w.category, EngineFallbackWarning)]
    assert sim.engine == "fast"
    assert len(fallbacks) == 1
    assert "no RoundKernel" in str(fallbacks[0].message)
    assert values == ref


def test_label_broadcast_forwards_scheduler():
    label_broadcast = next(
        e for e in _ENTRY_POINTS if e.name == "measured_label_broadcast"
    )
    heap_out, heap = label_broadcast.call(engine="async", scheduler="heap")
    bucket_out, bucket = label_broadcast.call(engine="async")
    assert heap.engine == bucket.engine == "async"
    assert heap_out == bucket_out
    assert (heap.rounds, heap.messages_sent, heap.words_sent, heap.virtual_time) == (
        bucket.rounds, bucket.messages_sent, bucket.words_sent, bucket.virtual_time
    )
