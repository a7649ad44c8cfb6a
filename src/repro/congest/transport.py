"""The boundary exchange of the sharded CONGEST tier, over localhost TCP.

:func:`repro.congest.engine.run_sharded` partitions the node space with a
:class:`~repro.graphs.sharding.ShardPlan` and runs one worker process per
shard in a publish → verdict → gather lockstep.  Everything the parent and
the workers exchange per round — the published send slots and words, the
packed boundary payload values, the RUN/STOP verdict and the final state
merge — moves as length-prefixed frames (a ``!I`` byte-count prefix) over
sockets bound to loopback; workers hold no shared memory and keep their
state rows private.

* Per worker there is one *control* connection to the parent: a pickled
  ``("hello", shard, port)`` handshake answered by the parent's
  ``("ports", {shard: port})`` broadcast, then per round one pickled
  ``("pub", shard, sent_idx, words, halted_count, halted_census)`` frame
  and a raw 1-byte ``b"R"``/``b"S"`` verdict frame, and finally one pickled
  ``("fin", shard, state_arrays, peer_bytes)`` frame carrying the declared
  state rows for the parent-side merge.
* Per :class:`~repro.graphs.sharding.PeerExchange` pair there is one raw
  peer connection (the lower-index shard dials the higher's ephemeral
  listener) carrying ``packbits(mask[src_local])`` followed by the masked
  payload values, field by field — O(boundary) bytes per round, no indices
  on the wire, because the sender's ``ShardPlan.peer_links`` table is
  parallel to the receiver's ``PeerExchange``.

Every frame is counted, so ``shard_stats`` reports the bytes that actually
crossed the wire (``wire_bytes_by_peer``, ``wire_control_bytes``,
``wire_bytes_total``).  The frame helpers are shared with the label query
server (:mod:`repro.serving`).
"""

from __future__ import annotations

import pickle
import socket as socket_mod
import struct
import time
from typing import Any, Dict, Optional

from repro import _accel
from repro.congest.kernels import PackedInbox


def _accel_boundary_hits():
    """The active backend's masked boundary scatter (see :mod:`repro._accel`).

    Resolved per call site rather than at import: workers inherit the
    module default (``"auto"``), and a parent-side ``accel=`` selection only
    needs to rebind the dispatch table, not reload this module.
    """
    return _accel.op("boundary_hits")


__all__ = ["TransportBrokenError", "TransportSetupError"]

#: The interface the parent listener and every worker listener bind to.
_LOOPBACK = "127.0.0.1"


class TransportBrokenError(RuntimeError):
    """A transport connection failed mid-run (peer death, timeout, EOF)."""


class TransportSetupError(RuntimeError):
    """The transport could not be set up at all (e.g. an unbindable listener).

    Raised before any worker is committed to the run, so the engine can fall
    back to ``engine="vectorized"`` with one ``EngineFallbackWarning``.
    """


# --------------------------------------------------------------------------- #
# Length-prefixed frames
# --------------------------------------------------------------------------- #

_LEN = struct.Struct("!I")


def _send_frame(sock, payload: bytes) -> int:
    """Send one ``!I``-length-prefixed frame; returns the bytes on the wire."""
    try:
        sock.sendall(_LEN.pack(len(payload)) + payload)
    except (OSError, ValueError) as exc:
        raise TransportBrokenError(
            f"transport connection lost while sending: {exc}"
        ) from None
    return _LEN.size + len(payload)


def _recv_exact(sock, nbytes: int) -> bytes:
    buf = bytearray()
    while len(buf) < nbytes:
        try:
            chunk = sock.recv(nbytes - len(buf))
        except socket_mod.timeout:
            raise TransportBrokenError(
                "timed out waiting for a transport frame"
            ) from None
        except OSError as exc:
            raise TransportBrokenError(
                f"transport connection lost: {exc}"
            ) from None
        if not chunk:
            raise TransportBrokenError("transport connection closed mid-stream")
        buf.extend(chunk)
    return bytes(buf)


def _recv_frame(sock) -> bytes:
    (length,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
    return _recv_exact(sock, length)


#: Peer-mesh dial retry policy: a freshly announced listener port can refuse
#: connections for a beat if the OS is still installing the backlog (or the
#: accept side is briefly descheduled under load), so a refused dial is
#: retried with exponential backoff before the run is declared broken.
_DIAL_ATTEMPTS = 5
_DIAL_BACKOFF_BASE = 0.05  # seconds; doubles per attempt (~0.75 s total)


def _dial_peer(host: str, port: int, timeout: float, what: str):
    """Connect to ``(host, port)``, retrying refused dials with backoff.

    Only ``ConnectionRefusedError`` is retried — it is the one transient
    outcome of racing a listener that is provably coming up (the port was
    read from its hello frame).  Timeouts and other socket errors indicate a
    genuinely broken mesh and fail fast as before.
    """
    delay = _DIAL_BACKOFF_BASE
    for attempt in range(_DIAL_ATTEMPTS):
        try:
            return socket_mod.create_connection((host, port), timeout=timeout)
        except ConnectionRefusedError as exc:
            if attempt == _DIAL_ATTEMPTS - 1:
                raise TransportBrokenError(
                    f"cannot reach {what} at {host}:{port} after "
                    f"{_DIAL_ATTEMPTS} attempts: {exc}"
                ) from None
            time.sleep(delay)
            delay *= 2
        except OSError as exc:
            raise TransportBrokenError(
                f"cannot reach {what} at {host}:{port}: {exc}"
            ) from None


def _close_quietly(sock) -> None:
    if sock is not None:
        try:
            sock.close()
        except OSError:
            pass


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #

class _WorkerSession:
    """Worker side of the exchange: control frames + one conn per peer.

    ``endpoint`` is the parent listener's ``(host, port)``, shipped in the
    run header.  The interior gather (slots fed by this shard's own
    previous sends) never crosses the wire: it reads the worker-private
    ``prev`` sends object.
    """

    def __init__(self, endpoint, plan, shard_index, kernel, timeout,
                 want_census) -> None:
        import numpy as np

        self._np = np
        self._shard_index = s = shard_index
        self._exchange = plan.exchange(s)
        self._csr = plan.csr
        shard = plan.shard(s)
        self._alo = shard.arc_lo
        self._state_schema = kernel.state_schema(self._csr)
        self._field_names = [name for name, _ in kernel.schema.fields]
        self._field_dtypes = dict(kernel.schema.fields)
        self._want_census = want_census
        self._has_halted = any(v.name == "halted" for v in self._state_schema)
        self._gather_buf = {
            f: np.empty(shard.num_arcs, dtype=np.dtype(d))
            for f, d in kernel.schema.fields
        }
        self._hitbuf = np.zeros(shard.num_arcs, dtype=bool)
        self._empty_idx = np.empty(0, dtype=np.int64)
        self._ctrl = None
        self._listener = None
        self._peer_conns: Dict[int, Any] = {}
        host, parent_port = endpoint
        # Send-side tables: parallel to each receiver's PeerExchange, so the
        # wire carries mask[src_local] + masked values and no indices.
        self._links = list(plan.peer_links(s))
        self._peer_sent: Dict[int, int] = {t: 0 for t, _ in self._links}
        self._zero_got = {
            t: np.zeros(src_local.shape[0], dtype=bool)
            for t, src_local in self._links
        }
        try:
            self._listener = socket_mod.create_server((host, 0))
            self._listener.settimeout(timeout)
            my_port = self._listener.getsockname()[1]
            try:
                self._ctrl = socket_mod.create_connection(
                    (host, parent_port), timeout=timeout
                )
            except OSError as exc:
                raise TransportBrokenError(
                    f"cannot reach the shard parent at {host}:{parent_port}: "
                    f"{exc}"
                ) from None
            self._ctrl.settimeout(timeout)
            _send_frame(
                self._ctrl,
                pickle.dumps(
                    ("hello", s, my_port), protocol=pickle.HIGHEST_PROTOCOL
                ),
            )
            _tag, ports = pickle.loads(_recv_frame(self._ctrl))
            # Build the peer mesh: the lower-index shard of each pair dials
            # the higher's listener (connects complete via the TCP backlog,
            # so dial-then-accept cannot deadlock) and identifies itself
            # with a 4-byte shard-index frame.
            peer_ids = sorted(self._peer_sent)
            for t in peer_ids:
                if t > s:
                    conn = _dial_peer(
                        host, ports[t], timeout, f"peer shard {t}"
                    )
                    conn.settimeout(timeout)
                    _send_frame(conn, _LEN.pack(s))
                    self._peer_conns[t] = conn
            for _ in range(sum(1 for t in peer_ids if t < s)):
                try:
                    conn, _addr = self._listener.accept()
                except socket_mod.timeout:
                    raise TransportBrokenError(
                        "timed out waiting for a peer shard connection"
                    ) from None
                except OSError as exc:
                    raise TransportBrokenError(
                        f"peer accept failed: {exc}"
                    ) from None
                conn.settimeout(timeout)
                (peer,) = _LEN.unpack(_recv_frame(conn))
                self._peer_conns[int(peer)] = conn
            self._listener.close()
            self._listener = None
        except BaseException:
            self.close()
            raise

    def publish(self, sends, state) -> None:
        np = self._np
        if sends is None:
            idx = self._empty_idx
            words = None
        else:
            idx = np.flatnonzero(sends.mask)
            words = (
                None
                if sends.words is None
                else np.ascontiguousarray(sends.words[idx])
            )
        hc = int(state["halted"].sum()) if self._has_halted else None
        census = (
            np.packbits(state["halted"]).tobytes()
            if (self._want_census and self._has_halted)
            else None
        )
        _send_frame(
            self._ctrl,
            pickle.dumps(
                ("pub", self._shard_index, idx, words, hc, census),
                protocol=pickle.HIGHEST_PROTOCOL,
            ),
        )
        for t, src_local in self._links:
            got = self._zero_got[t] if sends is None else sends.mask[src_local]
            chunks = [np.packbits(got).tobytes()]
            if sends is not None:
                gsel = src_local[got]
                if gsel.shape[0]:
                    for f in self._field_names:
                        chunks.append(
                            np.ascontiguousarray(sends.values[f][gsel]).tobytes()
                        )
            self._peer_sent[t] += _send_frame(
                self._peer_conns[t], b"".join(chunks)
            )

    def wait_verdict(self) -> bool:
        return _recv_frame(self._ctrl) == b"R"

    def gather(self, prev):
        np = self._np
        hitbuf = self._hitbuf
        hitbuf[:] = False
        exchange = self._exchange
        if prev is not None and exchange.int_src.shape[0]:
            # The masked scatter runs on the active _accel backend (plain
            # numpy, or a fused numba loop): collect the receiver-side slots
            # fed by this shard's own sends and mark them hit.
            slots, src = _accel_boundary_hits()(
                prev.mask, exchange.int_src, exchange.int_slots,
                exchange.int_src, hitbuf,
            )
            for f in self._field_names:
                self._gather_buf[f][slots] = prev.values[f][src]
        for p in exchange.peers:
            frame = _recv_frame(self._peer_conns[p.peer])
            ln = p.recv_slots.shape[0]
            mask_bytes = (ln + 7) >> 3
            got = np.unpackbits(
                np.frombuffer(frame, dtype=np.uint8, count=mask_bytes),
                count=ln,
            ).astype(bool)
            count = int(got.sum())
            if count == 0:
                continue
            slots = p.recv_slots[got]
            hitbuf[slots] = True
            offset = mask_bytes
            for f in self._field_names:
                dt = np.dtype(self._field_dtypes[f])
                self._gather_buf[f][slots] = np.frombuffer(
                    frame, dtype=dt, count=count, offset=offset
                )
                offset += count * dt.itemsize
        hit = np.flatnonzero(hitbuf)
        arcs = self._alo + hit
        inbox = PackedInbox(
            arcs, {f: self._gather_buf[f][hit] for f in self._field_names}
        )
        return inbox, self._csr.indices[arcs]

    def finish(self, state) -> None:
        # Ship the declared state rows for the parent-side merge, plus this
        # worker's per-peer wire tally (only a clean STOP reaches here, so
        # aborted runs simply report no wire stats).
        arrays = {vec.name: state[vec.name] for vec in self._state_schema}
        peer_bytes = {
            f"{self._shard_index}->{t}": int(nbytes)
            for t, nbytes in sorted(self._peer_sent.items())
        }
        _send_frame(
            self._ctrl,
            pickle.dumps(
                ("fin", self._shard_index, arrays, peer_bytes),
                protocol=pickle.HIGHEST_PROTOCOL,
            ),
        )

    def close(self) -> None:
        for conn in self._peer_conns.values():
            _close_quietly(conn)
        self._peer_conns = {}
        _close_quietly(self._ctrl)
        _close_quietly(self._listener)
        self._ctrl = self._listener = None


# --------------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------------- #

class _PublishBatch:
    """One published round assembled from the workers' pub frames."""

    __slots__ = ("_sess", "_pubs")

    def __init__(self, sess, pubs) -> None:
        self._sess = sess
        self._pubs = pubs

    def parts(self):
        np = self._sess._np
        sess = self._sess
        for s, (idx, words, _hc, _census) in enumerate(self._pubs):
            if idx.shape[0] == 0:
                continue
            # words=None means every message is the schema's fixed size.
            w = (
                words
                if words is not None
                else np.full(idx.shape[0], sess._size_words, dtype=np.int64)
            )
            yield sess._arc_lo[s] + idx, w

    @property
    def halted_count(self) -> Optional[int]:
        if not self._sess._has_halted:
            return None
        return sum(int(p[2]) for p in self._pubs)

    def fill_halted(self, out) -> None:
        np = self._sess._np
        plan = self._sess._plan
        for s, (_idx, _w, _hc, census) in enumerate(self._pubs):
            shard = plan.shard(s)
            bits = np.unpackbits(
                np.frombuffer(census, dtype=np.uint8), count=shard.num_nodes
            )
            out[shard.node_lo:shard.node_hi] = bits.astype(bool)


class _ParentSession:
    """Parent side of one sharded run: the listener and k control conns.

    The listener is bound in the constructor, so a bind failure raises
    :class:`TransportSetupError` before any worker is committed to the run.
    ``timeout`` bounds every accept and every frame receive.
    """

    def __init__(self, plan, schema, state_schema, csr, timeout) -> None:
        import numpy as np

        self._np = np
        self._host = host = _LOOPBACK
        self._plan = plan
        self._csr = csr
        self._state_schema = state_schema
        self._timeout = timeout
        self._k = plan.num_shards
        self._has_halted = any(v.name == "halted" for v in state_schema)
        self._size_words = schema.size_words
        self._arc_lo = [int(x) for x in plan.arc_starts[:-1]]
        self._conns: Dict[int, Any] = {}
        self._ctrl_bytes = 0
        self._peer_bytes: Dict[str, int] = {}
        self._pub = [None] * self._k
        try:
            self._listener = socket_mod.create_server((host, 0))
        except OSError as exc:
            raise TransportSetupError(
                f"cannot listen on {host!r} for shard workers: {exc}"
            ) from None
        self._listener.settimeout(timeout)
        self._port = self._listener.getsockname()[1]
        #: Per-shard declared-state footprint (the shard-local tiling).
        self.state_bytes = [
            int(state_schema.local_nbytes(plan.shard(s)))
            for s in range(self._k)
        ]

    def endpoint(self):
        """The listener's ``(host, port)`` the workers connect to."""
        return self._host, self._port

    def begin(self, sentinels) -> None:
        """Accept the k workers' hellos and broadcast the peer ports.

        ``sentinels`` are the worker processes' exit sentinels: a worker
        that dies before it connects ends the wait at once instead of
        after the full timeout.
        """
        from multiprocessing.connection import wait

        ports: Dict[int, int] = {}
        deadline = time.monotonic() + self._timeout
        for _ in range(self._k):
            ready = wait(
                [self._listener, *sentinels],
                max(0.0, deadline - time.monotonic()),
            )
            if self._listener not in ready:
                raise TransportBrokenError(
                    "a shard worker exited before connecting"
                    if ready
                    else "timed out waiting for shard workers to connect"
                )
            try:
                conn, _addr = self._listener.accept()
            except OSError as exc:
                raise TransportBrokenError(
                    f"worker accept failed: {exc}"
                ) from None
            conn.settimeout(self._timeout)
            frame = _recv_frame(conn)
            self._ctrl_bytes += _LEN.size + len(frame)
            _tag, s, peer_port = pickle.loads(frame)
            self._conns[s] = conn
            ports[s] = peer_port
        blob = pickle.dumps(("ports", ports), protocol=pickle.HIGHEST_PROTOCOL)
        for s in range(self._k):
            self._ctrl_bytes += _send_frame(self._conns[s], blob)

    def wait_published(self):
        for s in range(self._k):
            frame = _recv_frame(self._conns[s])
            self._ctrl_bytes += _LEN.size + len(frame)
            _tag, _s, idx, words, hc, census = pickle.loads(frame)
            self._pub[s] = (idx, words, hc, census)
        return _PublishBatch(self, list(self._pub))

    def send_verdict(self, stop: bool) -> None:
        frame = b"S" if stop else b"R"
        for s in range(self._k):
            self._ctrl_bytes += _send_frame(self._conns[s], frame)

    def collect_states(self):
        np = self._np
        parts = [None] * self._k
        for s in range(self._k):
            frame = _recv_frame(self._conns[s])
            self._ctrl_bytes += _LEN.size + len(frame)
            _tag, _s, arrays, peer_bytes = pickle.loads(frame)
            parts[s] = arrays
            for key, nbytes in peer_bytes.items():
                self._peer_bytes[key] = self._peer_bytes.get(key, 0) + int(nbytes)
        merged: Dict[str, Any] = {}
        for vec in self._state_schema:
            full = np.empty(vec.shape(self._csr), dtype=np.dtype(vec.dtype))
            for s in range(self._k):
                full[vec.row_slice(self._plan.shard(s))] = parts[s][vec.name]
            merged[vec.name] = full
        return merged

    def wire_stats(self):
        peer_total = sum(self._peer_bytes.values())
        return {
            "wire_bytes_by_peer": dict(sorted(self._peer_bytes.items())),
            "wire_control_bytes": int(self._ctrl_bytes),
            "wire_bytes_total": int(self._ctrl_bytes + peer_total),
        }

    def close(self) -> None:
        """Close every connection (idempotent).

        Tearing the connections down also wakes every worker blocked on a
        frame: its recv raises :class:`TransportBrokenError` and it exits.
        """
        for conn in self._conns.values():
            _close_quietly(conn)
        self._conns = {}
        _close_quietly(self._listener)
