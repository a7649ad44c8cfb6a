"""The benchmark driver: set-up, timed phase, oracle check and metrics.

An untraced run (``trace=False``) reports the end-to-end metrics.  A traced
run first repeats the untraced timed phase, then installs the span
wrappers and runs a fixed number of ops traced; it reports the per-layer
metrics, including the tracing overhead (traced op p50 minus the untraced
op p50 over the same inputs).

Host speed
----------
On a shared host the same CPU-bound op can take up to 1.7x longer for tens
of seconds at a time, whatever the benchmark does.  Every run therefore
also samples the speed probe (:mod:`perfbench.probe`, a fixed pure-Python
loop timed in a separate process on the run's CPU) between its set-ups and
every ``REFERENCE_EVERY_S`` between its ops.  The timings in the result
line are *reference-speed* times: a raw time ``t`` taken while the loop
took ``r`` (the mean of the samples just before and just after it) is
reported as ``t * REFERENCE_MS / r``.  A change to the library moves them;
a change in the host's speed cancels out.  The probe shares no heap with the library,
so ``r`` does not depend on what the library allocates.  The record line
keeps the raw wall-clock figures and the loop's median time.
"""

from __future__ import annotations

import contextlib
import os
from array import array
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import tracing
from perfbench.workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent

#: name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: name -> unit of every per-layer metric (``--trace 1``).
PER_LAYER = {
    "graphs.subgraph_s": "s",
    "graphs.subgraph_calls": "count",
    "graphs.diameter_s": "s",
    "decomposition.build_s": "s",
    "decomposition.width": "count",
    "decomposition.bags": "count",
    "decomposition.rounds": "count",
    "labeling.construct_s": "s",
    "labeling.construct_self_s": "s",
    "labeling.pack_s": "s",
    "labeling.kernel_pairs_per_s": "pairs/s",
    "labeling.point_decode_us": "us",
    "labeling.entries": "count",
    "labeling.max_entries": "count",
    "labeling.rounds": "count",
    "congest.network_s": "s",
    "congest.run_s": "s",
    "congest.messages_per_s": "1/s",
    "congest.events_per_s": "1/s",
    "congest.rounds": "count",
    "congest.messages": "count",
    "congest.async_events": "count",
    "congest.faults_injected": "count",
    "congest.payloads_dropped": "count",
    "congest.rounds_to_reconverge": "count",
    "serving.store_build_s": "s",
    "serving.pool_start_s": "s",
    "serving.wire_overhead_us": "us",
    "serving.requests": "count",
    "serving.ticks": "count",
    "serving.batch_calls": "count",
    "serving.max_batch": "count",
    "serving.dropped_clients": "count",
    "serving.malformed_requests": "count",
    "serving.mapped_bytes": "bytes",
    "serving.copied_label_bytes": "bytes",
    "serving.server_rss_mb": "MB",
    "trace.op_p50_ms": "ms",
    "trace.overhead_ms": "ms",
}

#: Count metrics that repeat exactly for one seed, whatever the hash seed.
#: ``serving.ticks`` is left out: an idle select timeout adds a tick.
EXACT_COUNTS = tuple(
    name for name, unit in PER_LAYER.items()
    if unit in ("count", "bytes") and name != "serving.ticks"
)

#: Nominal time of one speed-probe sample: the unit that reference-speed
#: times are expressed in.
REFERENCE_MS = 6.0
#: Seconds of ops between two samples of the speed probe.
REFERENCE_EVERY_S = 0.25


class SpeedProbe:
    """The :mod:`perfbench.probe` process; :meth:`sample` returns the time
    of its reference loop in nanoseconds.  It runs on the CPUs this process
    may use when it starts."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("probe.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def sample(self) -> int:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the speed probe exited")
        return int(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def speed_factor(samples_ns: List[int], i: int) -> float:
    """Reference-speed time per unit of raw time, for the stretch between
    samples ``i`` and ``i + 1``: from the mean of those two samples.

    The host's speed drifts within seconds, so the samples that bracket a
    stretch predict its speed best: over 80 consecutive partial 3-tree
    builds, medians of nine builds spread 0.04 (IQR/median) with them and
    0.09 with the median of the six nearest samples.
    """
    return REFERENCE_MS * 1e6 / ((samples_ns[i] + samples_ns[i + 1]) / 2)


class TraceIncomplete(RuntimeError):
    """A wrapper the workload must reach saw zero calls."""


class Phase:
    """Latencies (ns) and failures of one run of consecutive ops.

    ``scaled`` holds the same latencies at reference speed, and
    ``scaled_wall_s`` the phase's wall time at reference speed.
    """

    def __init__(self, first_op: int) -> None:
        self.first_op = first_op
        # Arrays, not lists: a run's own bookkeeping should barely move
        # peak_rss_mb however many ops it makes.
        self.latencies = array("q")
        self.failures: Dict[int, str] = {}
        self.wall_s = 0.0
        self.scaled = array("d")
        self.scaled_wall_s = 0.0
        self.reference_ns: List[int] = []


def timed_phase(wl: Workload, seconds: float, min_ops: int, first_op: int = 0,
                tracer=tracing.NULL_TRACER, probe: Optional[SpeedProbe] = None) -> Phase:
    """Run ops back to back until ``seconds`` passed and ``min_ops`` ran.

    Op ids continue from ``first_op``; inputs start over from the first, so
    a traced phase replays the inputs of the untraced one.  With a
    ``probe``, it is sampled before the first op and then every
    ``REFERENCE_EVERY_S`` between ops, and each stretch of ops between two
    samples is scaled to reference speed by :func:`speed_factor`.  The
    samples count in neither the ops nor the wall times.
    """
    phase = Phase(first_op)
    clock = time.perf_counter
    ns = time.perf_counter_ns
    scale = probe is not None
    if scale:
        phase.reference_ns.append(probe.sample())
    t0 = window_t0 = clock()
    deadline = t0 + seconds
    windows = []  # (first op, end op, wall seconds) between two samples
    i = first_op
    while True:
        k = i - first_op
        error = None
        with tracer.span("op"):
            start = ns()
            try:
                out = wl.op(k, tracer)
            except Exception as exc:  # a failed op is data, counted below
                out, error = None, f"{type(exc).__name__}: {exc}"
            end = ns()
        phase.latencies.append(end - start)
        if error is None:
            error = wl.record(k, out)
        if error is not None:
            phase.failures[i] = error
        i += 1
        now = clock()
        done = i - first_op >= min_ops and now >= deadline
        if scale and (done or now - window_t0 >= REFERENCE_EVERY_S):
            start_op = windows[-1][1] if windows else 0
            windows.append((start_op, len(phase.latencies), now - window_t0))
            phase.reference_ns.append(probe.sample())
            deadline += clock() - now
            window_t0 = clock()
        if done:
            break
    if not scale:
        phase.wall_s = clock() - t0
    for w, (a, b, wall) in enumerate(windows):
        factor = speed_factor(phase.reference_ns, w)
        phase.scaled.extend(x * factor for x in phase.latencies[a:b])
        phase.wall_s += wall
        phase.scaled_wall_s += wall * factor
    return phase


def tail_ns(latencies: List[float]) -> float:
    """Op latency at the highest percentile, at most p99, with ten ops
    beyond it, and never below p90: p99 once a run has 1000 ops.

    Interpolated between the two nearest ops, so that on a run of ten
    builds it is not simply the slowest one.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    q = min(0.99, max(0.9, 1 - 10 / n))
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return float(ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]))


def host_fingerprint() -> Dict[str, object]:
    import networkx
    import numpy

    from repro import _accel

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "accel_backend": _accel.active_backend(),
        "numba": _accel.numba_available(),
        "git_commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` inside ``root`` only."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def pin_to_one_cpu() -> None:
    """Pin this process to its lowest allowed CPU, and so the speed probe
    and the server worker it starts later.

    The probe then times the CPU that all of an op's work runs on.  With
    the server worker on a second CPU, the p99 round trip varied too much
    between runs for any bound (IQR/median 0.53 over ten seeds on both
    serving workloads, against at most 0.22 on one CPU): on a virtual host
    a round trip between two CPUs also waits for the hypervisor to run the
    idle one.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> Dict[str, object]:
    """One benchmark run; returns the result and the full record."""
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](scale, str(workdir))
    tracer = tracing.Tracer() if trace else tracing.NULL_TRACER
    probe = SpeedProbe()
    try:
        return _run(wl, seed, seconds, tracer, probe)
    finally:
        wl.close()
        probe.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(wl: Workload, seed: int, seconds: float, tracer,
         probe: SpeedProbe) -> Dict[str, object]:
    traced = isinstance(tracer, tracing.Tracer)
    setups: List[float] = []
    setup_reference = [probe.sample()]
    with tracing.wrapped(tracer) if traced else contextlib.nullcontext():
        for _ in range(wl.setup_repeats):
            with tracer.span("setup"):
                t0 = time.perf_counter()
                wl.setup(seed, tracer)
                setups.append(time.perf_counter() - t0)
            setup_reference.append(probe.sample())
    scaled_setups = [t * speed_factor(setup_reference, i) for i, t in enumerate(setups)]
    wl.warm()

    trace_ops = wl.trace_ops
    untraced = timed_phase(
        wl, seconds, max(wl.min_ops, trace_ops if traced else 0), probe=probe
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    phases = [untraced]
    layers: Dict[str, float] = {}
    if traced:
        wl.begin_traced_phase()
        with tracing.wrapped(tracer):
            traced_phase = timed_phase(
                wl, 0.0, trace_ops, first_op=len(untraced.latencies), tracer=tracer
            )
        phases.append(traced_phase)
        missing = tracing.missing_wrappers(tracer, wl.expected_wrappers)
        if missing:
            raise TraceIncomplete(f"trace wrappers saw zero calls: {', '.join(missing)}")

    failures: Dict[int, str] = {}
    for phase in phases:
        failures.update(phase.failures)
    bad_slots = wl.verify()
    for phase in phases:
        for k in range(len(phase.latencies)):
            if wl.slot(k) in bad_slots:
                failures.setdefault(phase.first_op + k, bad_slots[wl.slot(k)])
    if traced:
        summary = tracing.summarize(tracer.spans)
        traced_p50 = statistics.median(traced_phase.latencies)
        layers = wl.layer_metrics(summary, traced_p50)
        untraced_p50 = statistics.median(untraced.latencies[:trace_ops])
        layers["trace.op_p50_ms"] = traced_p50 / 1e6
        layers["trace.overhead_ms"] = (traced_p50 - untraced_p50) / 1e6

    attempted = sum(len(p.latencies) for p in phases)
    lat = untraced.latencies
    raw = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(lat) / 1e6,
        "op_tail_ms": tail_ns(lat) / 1e6,
        "ops_per_s": len(lat) / untraced.wall_s,
        "peak_rss_mb": peak_rss_mb,
    }
    end_to_end = {
        "setup_s": statistics.median(scaled_setups),
        "op_p50_ms": statistics.median(untraced.scaled) / 1e6,
        "op_tail_ms": tail_ns(untraced.scaled) / 1e6,
        "ops_per_s": len(lat) / untraced.scaled_wall_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if traced:
        metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": u} for k, u in PER_LAYER.items()}
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{wl.name}-seed{seed}.json")
    else:
        metrics = {k: {"value": float(end_to_end[k]), "unit": u} for k, u in END_TO_END.items()}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "host": host_fingerprint(),
        "ops": len(lat),
        "error_rate": len(failures) / attempted,
        "end_to_end": end_to_end,
        "raw": raw,
        "reference_ms": {
            "setup": statistics.median(setup_reference) / 1e6,
            "ops": statistics.median(untraced.reference_ns) / 1e6,
        },
        "per_layer": layers,
        "first_failures": dict(sorted(failures.items())[:5]),
    }
    return {"result": result, "record": record}


def format_table(result: Dict[str, object], record: Dict[str, object]) -> str:
    """Every reported metric with its unit; raw wall-clock figures beside
    the reference-speed ones."""
    lines = [
        f"# {record['workload']}  seed={record['seed']}  ops={record['ops']}  "
        f"error_rate={record['error_rate']:.6g}  "
        f"reference_ms={record['reference_ms']['ops']:.4g} (nominal {REFERENCE_MS})"
    ]
    raw = record["raw"]
    for name, m in result["metrics"].items():
        extra = f"  (raw {raw[name]:.6g})" if name in raw and not record["trace"] else ""
        lines.append(f"{name:34s} {m['value']:>16.6g} {m['unit']}{extra}")
    return "\n".join(lines)
