"""Tests for the sharded tier's socket transport (``repro.congest.transport``).

Every sharded run moves its boundary exchange over localhost TCP
(length-prefixed frames; workers hold no shared memory).  This file covers:

* the sharded tier against the fast reference at every shard count in
  ``{1, 2, 4, 7}`` — results, ledger and traces — plus the wire accounting
  of ``shard_stats`` (per-peer and control-plane bytes);
* the run-header ingest fix: per-worker header payload bytes shrink as
  ~1/num_shards for Bellman-Ford (``RoundKernel.slice_for_shard``);
* the peer-mesh dial retry;
* the sharded-only run options: rejected on other engines and checked for
  range (``num_shards`` an int >= 1, ``barrier_timeout`` > 0);
* failure paths — a worker hard-killed mid-round raises a clean
  :class:`SimulationError` and the pool recovers; an unbindable listener
  falls back to ``vectorized`` with a single
  :class:`EngineFallbackWarning` naming the bind error;
* ``ConvergenceError`` keeps the pool warm.
"""

from __future__ import annotations

import warnings

import pytest

from repro.congest.engine import (
    EngineFallbackWarning,
    ShardPool,
    SimulationTrace,
    run_sharded,
    sharded_available,
)
from repro.congest.network import CongestNetwork
from repro.errors import SimulationError
from repro.graphs import generators

needs_sharded = pytest.mark.skipif(
    not sharded_available(), reason="numpy unavailable"
)

SHARD_COUNTS = (1, 2, 4, 7)


class SocketSuicidalKernel:
    """Hard-kills the shard-1 worker mid-round (module-level so it ships to
    pool workers by pickle).  Defined lazily as a real kernel subclass below
    because :mod:`repro.congest.kernels` needs numpy at class-build time."""


if sharded_available():
    from repro.congest.kernels import FloodingKernel

    class SocketSuicidalKernel(FloodingKernel):  # noqa: F811
        def round(self, state, inbox, inbox_senders, csr, shard):
            if shard.index == 1:
                import os
                import signal

                os.kill(os.getpid(), signal.SIGKILL)
            return super().round(state, inbox, inbox_senders, csr, shard)


def _bf_instance(master_seed, n=48):
    graph = generators.partial_k_tree(n, 3, seed=master_seed)
    return generators.to_directed_instance(
        graph, weight_range=(1, 9), orientation="asymmetric", seed=master_seed
    )


def _assert_same_run(ref, run):
    assert run.rounds == ref.rounds
    assert run.outputs == ref.outputs
    assert run.messages_sent == ref.messages_sent
    assert run.words_sent == ref.words_sent
    assert run.max_words_per_edge_round == ref.max_words_per_edge_round
    assert run.max_message_words == ref.max_message_words
    assert run.halted == ref.halted


class TestRunOptionValidation:
    """Argument plumbing that must work with or without numpy installed."""

    @pytest.mark.parametrize(
        "engine, options, match",
        [
            ("fast", {"num_shards": 3}, "engine='sharded'"),
            ("vectorized", {"shard_pool": object()}, "engine='sharded'"),
            ("legacy", {"barrier_timeout": 5.0}, "engine='sharded'"),
            ("async", {"num_shards": 2}, "engine='sharded'"),
            ("fast", {"num_shards": 3, "barrier_timeout": -1.0}, "engine='sharded'"),
            ("sharded", {"num_shards": 0}, "num_shards must be an int >= 1"),
            ("sharded", {"num_shards": 2.0}, "num_shards must be an int >= 1"),
            ("sharded", {"num_shards": True}, "num_shards must be an int >= 1"),
            ("sharded", {"barrier_timeout": 0}, "barrier_timeout must be a number > 0"),
            ("sharded", {"barrier_timeout": -1.0}, "barrier_timeout must be a number > 0"),
            ("sharded", {"barrier_timeout": float("nan")}, "barrier_timeout must be"),
        ],
    )
    def test_transport_requires_sharded_engine(self, engine, options, match):
        from repro.congest.node import BroadcastAll

        net = CongestNetwork(generators.cycle_graph(6))
        with pytest.raises(SimulationError, match=match):
            net.run(lambda u: BroadcastAll(value=u), engine=engine, **options)


class TestPeerDialRetry:
    """The peer-mesh dial retries refused connections with backoff.

    A freshly announced listener port can refuse dials for a beat while the
    OS installs the backlog; ``_dial_peer`` must absorb that transient and
    still fail fast on timeouts and other socket errors.  The accept side is
    a stub so the refused-then-up sequence is deterministic.
    """

    def _patched(self, monkeypatch, outcomes):
        """Route ``create_connection`` through ``outcomes`` (exception
        instances are raised, anything else returned) and capture sleeps."""
        from repro.congest import transport as transport_mod

        calls = {"dials": 0, "sleeps": []}
        seq = list(outcomes)

        def fake_create_connection(addr, timeout=None):
            calls["dials"] += 1
            out = seq.pop(0)
            if isinstance(out, BaseException):
                raise out
            return out

        monkeypatch.setattr(
            transport_mod.socket_mod, "create_connection",
            fake_create_connection,
        )
        monkeypatch.setattr(
            transport_mod.time, "sleep", lambda s: calls["sleeps"].append(s)
        )
        return calls

    def test_refused_then_accepting_listener_connects(self, monkeypatch):
        from repro.congest.transport import _dial_peer

        sentinel = object()
        calls = self._patched(
            monkeypatch,
            [ConnectionRefusedError(111, "refused"),
             ConnectionRefusedError(111, "refused"),
             sentinel],
        )
        conn = _dial_peer("127.0.0.1", 40001, timeout=1.0, what="peer shard 1")
        assert conn is sentinel
        assert calls["dials"] == 3
        # Exponential backoff: each wait doubles the previous one.
        assert len(calls["sleeps"]) == 2
        assert calls["sleeps"][1] == 2 * calls["sleeps"][0]

    def test_persistently_refused_dial_breaks_after_bounded_attempts(
        self, monkeypatch
    ):
        from repro.congest.transport import (
            TransportBrokenError, _DIAL_ATTEMPTS, _dial_peer,
        )

        calls = self._patched(
            monkeypatch,
            [ConnectionRefusedError(111, "refused")] * _DIAL_ATTEMPTS,
        )
        with pytest.raises(TransportBrokenError, match="peer shard 2"):
            _dial_peer("127.0.0.1", 40002, timeout=1.0, what="peer shard 2")
        assert calls["dials"] == _DIAL_ATTEMPTS
        assert len(calls["sleeps"]) == _DIAL_ATTEMPTS - 1

    def test_non_refusal_errors_fail_fast(self, monkeypatch):
        from repro.congest.transport import TransportBrokenError, _dial_peer

        calls = self._patched(monkeypatch, [OSError("no route to host")])
        with pytest.raises(TransportBrokenError, match="no route to host"):
            _dial_peer("127.0.0.1", 40003, timeout=1.0, what="peer shard 3")
        assert calls["dials"] == 1
        assert calls["sleeps"] == []


@needs_sharded
class TestSocketEquivalence:
    """The sharded tier is bit-for-bit the fast tier at every shard count —
    and reports its wire traffic."""

    def test_bellman_ford_socket_matches_fast(self, master_seed):
        from repro.congest.bellman_ford import distributed_bellman_ford

        instance = _bf_instance(master_seed)
        source = min(instance.nodes(), key=str)
        ref_trace = SimulationTrace()
        ref = distributed_bellman_ford(instance, source, engine="fast",
                                       trace=ref_trace)
        for shards in SHARD_COUNTS:
            trace = SimulationTrace()
            sock = distributed_bellman_ford(
                instance, source, engine="sharded", num_shards=shards,
                trace=trace,
            )
            assert sock.simulation.engine == "sharded", shards
            _assert_same_run(ref.simulation, sock.simulation)
            assert sock.distances == ref.distances, shards
            assert sock.parents == ref.parents, shards
            assert trace.as_dicts() == ref_trace.as_dicts(), shards

            stats = sock.simulation.shard_stats
            for gone in ("transport", "arena_bytes", "exchange_bytes"):
                assert gone not in stats
            # Wire accounting: the control plane always moves bytes; peer
            # frames only exist once there are boundaries to cross.
            assert stats["wire_control_bytes"] > 0
            assert stats["wire_bytes_total"] >= stats["wire_control_bytes"]
            peer_bytes = stats["wire_bytes_by_peer"]
            assert stats["wire_bytes_total"] == (
                stats["wire_control_bytes"] + sum(peer_bytes.values())
            )
            if shards == 1:
                assert peer_bytes == {}
                assert stats["boundary_words_published"] == 0
            else:
                assert sum(peer_bytes.values()) > 0
                assert stats["boundary_words_published"] > 0


@needs_sharded
class TestRunHeaderIngest:
    """The O(m/num_shards) ingest fix: ``RoundKernel.slice_for_shard`` ships
    each Bellman-Ford worker only its owned adjacency, so the per-shard
    header suffix shrinks as ~1/num_shards instead of replicating the whole
    edge payload to every worker."""

    # Fixed pickle framing overhead per suffix (class path, tuple shells,
    # shard index) that does not scale with the graph.
    SLACK = 600

    def _header(self, instance, source, shards):
        from repro.congest.bellman_ford import distributed_bellman_ford

        run = distributed_bellman_ford(
            instance, source, engine="sharded", num_shards=shards,
        )
        stats = run.simulation.shard_stats
        assert stats["num_shards"] == shards
        return run, stats["run_header_bytes"]

    def test_per_shard_header_bytes_shrink(self, master_seed):
        from repro.congest.bellman_ford import distributed_bellman_ford

        instance = _bf_instance(master_seed, n=120)
        source = min(instance.nodes(), key=str)
        ref = distributed_bellman_ford(instance, source, engine="fast")
        _, single = self._header(instance, source, 1)
        whole = single["per_shard"][0]
        assert len(single["per_shard"]) == 1
        prev_max = whole + 1
        for shards in (2, 4):
            run, header = self._header(instance, source, shards)
            per_shard = header["per_shard"]
            assert len(per_shard) == shards
            # The regression the fix exists for: each worker's suffix is a
            # ~1/num_shards slice of the whole-kernel payload, not a copy.
            assert max(per_shard) <= whole / shards + self.SLACK, (
                shards, whole, per_shard,
            )
            assert max(per_shard) < prev_max
            prev_max = max(per_shard)
            # The common blob is pickled once, not per worker, and the
            # sliced kernels still produce the exact fast-tier answer.
            assert header["common"] > 0
            assert run.distances == ref.distances

    def test_slice_for_shard_defaults_to_identity(self, master_seed):
        """Kernels that don't override the hook ship unchanged."""
        from repro.congest.kernels import FloodingKernel, RoundKernel
        from repro.graphs.sharding import Shard, ShardPlan

        csr = generators.grid_graph(5, 5).to_indexed().to_arrays()
        plan = ShardPlan.balanced(csr, 3)
        kernel = FloodingKernel(root=(0, 0), chunks=[("c", 1)])
        for shard in plan:
            assert kernel.slice_for_shard(shard, csr) is kernel
        assert RoundKernel.slice_for_shard is not None

    def test_bellman_ford_slice_owns_only_shard_nodes(self, master_seed):
        from repro.congest.bellman_ford import BellmanFordKernel
        from repro.graphs.sharding import ShardPlan

        instance = _bf_instance(master_seed, n=60)
        comm = instance.underlying_graph()
        csr = comm.to_indexed().to_arrays()
        source = min(instance.nodes(), key=str)
        local_inputs = {
            u: [(e.head, e.weight) for e in instance.out_edges(u)]
            for u in instance.nodes()
        }
        kernel = BellmanFordKernel(source, local_inputs)
        plan = ShardPlan.balanced(csr, 4)
        index_of = csr.index_of
        seen = set()
        for shard in plan:
            sliced = kernel.slice_for_shard(shard, csr)
            assert type(sliced) is BellmanFordKernel
            assert sliced.source == source
            for u in sliced.local_inputs:
                assert shard.owns_node(index_of[u])
                assert sliced.local_inputs[u] == local_inputs[u]
                seen.add(u)
        # The slices tile the original inputs (restricted to graph nodes).
        assert seen == {u for u in local_inputs if u in index_of}
        # A whole-graph shard keeps the original instance (no copy churn).
        single = ShardPlan.single(csr)
        assert kernel.slice_for_shard(single.shard(0), csr) is kernel


@needs_sharded
class TestSocketFailurePaths:
    def test_killed_worker_over_socket_raises_and_pool_recovers(
        self, master_seed
    ):
        """SIGKILL of a shard worker mid-round over TCP: the parent sees the
        broken connection as a clean SimulationError (no hang on a recv),
        and the same pool restarts workers for the next run."""
        from repro.congest.bellman_ford import distributed_bellman_ford

        network = CongestNetwork(generators.cycle_graph(12))
        with ShardPool(num_shards=2) as pool:
            with pytest.raises(SimulationError, match="failed or timed out"):
                run_sharded(
                    network,
                    SocketSuicidalKernel(0, [("c", 1)]),
                    pool=pool,
                    barrier_timeout=5.0,
                )
            assert pool.num_workers == 0  # generation discarded
            instance = generators.to_directed_instance(
                generators.cycle_graph(12), weight_range=(1, 5),
                orientation="both", seed=master_seed,
            )
            result = distributed_bellman_ford(
                instance, 0, engine="sharded", shard_pool=pool,
            )
            ref = distributed_bellman_ford(instance, 0, engine="fast")
            assert result.distances == ref.distances
            assert result.simulation.words_sent == ref.simulation.words_sent

    def test_unbindable_listener_falls_back_to_vectorized(
        self, master_seed, monkeypatch
    ):
        """A listener that cannot bind falls back to the vectorized tier
        with exactly one EngineFallbackWarning naming both tiers and the
        bind error; no worker is started and the run matches fast."""
        from repro.congest import transport as transport_mod
        from repro.congest.bellman_ford import distributed_bellman_ford

        instance = _bf_instance(master_seed, n=24)
        source = min(instance.nodes(), key=str)
        ref = distributed_bellman_ford(instance, source, engine="fast")
        # TEST-NET-3 (RFC 5737): never assigned to a local interface, so the
        # bind fails with EADDRNOTAVAIL without touching any real network.
        monkeypatch.setattr(transport_mod, "_LOOPBACK", "203.0.113.1")
        with ShardPool(num_shards=2) as pool:
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                run = distributed_bellman_ford(
                    instance, source, engine="sharded", shard_pool=pool,
                )
            if run.simulation.engine == "sharded":
                pytest.skip("host unexpectedly bindable on this platform")
            assert pool.workers_started == 0
        fallbacks = [
            w for w in rec if issubclass(w.category, EngineFallbackWarning)
        ]
        assert len(fallbacks) == 1
        message = str(fallbacks[0].message)
        assert "engine='sharded' unavailable" in message
        assert "engine='vectorized'" in message
        assert "cannot listen" in message
        assert run.simulation.engine == "vectorized"
        assert run.simulation.shard_stats is None
        assert run.distances == ref.distances
        _assert_same_run(ref.simulation, run.simulation)

    def test_convergence_error_keeps_pool_warm_over_socket(self, master_seed):
        """max_rounds exhaustion over TCP still ends with the clean STOP
        handshake and the fin drain, so the workers survive for reuse."""
        from repro.congest.bellman_ford import distributed_bellman_ford
        from repro.errors import ConvergenceError

        graph = generators.path_graph(20)
        instance = generators.to_directed_instance(
            graph, weight_range=(1, 5), orientation="both", seed=master_seed
        )
        with ShardPool(num_shards=2) as pool:
            with pytest.raises(ConvergenceError):
                distributed_bellman_ford(
                    instance, 0, engine="sharded", max_rounds=3,
                    shard_pool=pool,
                )
            assert pool.num_workers == 2  # workers parked, not discarded
            pids = pool.worker_pids()
            ref = distributed_bellman_ford(instance, 0, engine="fast")
            run = distributed_bellman_ford(
                instance, 0, engine="sharded", shard_pool=pool,
            )
            assert run.distances == ref.distances
            assert pool.worker_pids() == pids
            assert pool.workers_started == 2
