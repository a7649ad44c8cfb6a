"""``repro-bench`` — the unified experiment-matrix CLI.

Four subcommands over the matrix/store/gates machinery:

* ``run``    — execute the selected (protocol x engine x family x seed)
  cells at one ``--scale``, persisting each finished cell atomically to
  the store.  Interrupted sweeps resume on re-invocation (finished
  cells are found by content hash and skipped); ``--rerun`` forces
  selected cells to execute again, and ``--max-cells`` stops after N
  executed cells (the deterministic interrupt the CI smoke step uses).
* ``gate``   — check the committed ``BENCH_*.json`` trajectories (and
  optionally a fresh store) against the regression gates; exit 1 on any
  violation.
* ``export`` — fold store records into the ``BENCH_*.json``
  trajectories through the hardened merge-writer, and optionally write
  a consolidated JSON-lines table.
* ``list``   — show the available axis values and the store contents.

The command surface is a standard-library argparse parser whose
subcommands call the ``cmd_*`` functions.  Invoke as
``python -m repro.experiments ...`` or via ``bin/repro-bench``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .matrix import (
    DEFAULT_ENGINES,
    DEFAULT_FAMILIES,
    DEFAULT_PROTOCOLS,
    ENGINES,
    FAMILIES,
    SCALES,
    make_matrix,
)
from .store import ResultStore

DEFAULT_STORE = ".bench-matrix"
DEFAULT_SEEDS = (12345,)

def _echo(line: str) -> None:
    print(line, flush=True)


# --------------------------------------------------------------------------- #
# command implementations
# --------------------------------------------------------------------------- #
def cmd_run(
    protocols: Sequence[str],
    engines: Sequence[str],
    families: Sequence[str],
    scale: str,
    seeds: Sequence[int],
    store_path: str,
    rerun: bool = False,
    max_cells: Optional[int] = None,
    keep_going: bool = False,
    list_only: bool = False,
    quiet: bool = False,
) -> int:
    from .runner import run_matrix

    matrix = make_matrix(
        protocols=list(protocols) or None,
        engines=list(engines) or None,
        families=list(families) or None,
        scale=scale,
        seeds=tuple(seeds) or DEFAULT_SEEDS,
    )
    cells = matrix.cells()
    if not cells:
        _echo("matrix is empty: no (protocol, engine, family) combination is valid")
        return 2
    if list_only:
        for cell in cells:
            _echo(f"{cell.cell_hash()}  {cell.label()}")
        _echo(f"{len(cells)} cell(s)")
        return 0
    store = ResultStore(store_path)
    log = None if quiet else _echo
    summary = run_matrix(
        cells,
        store,
        rerun=rerun,
        max_cells=max_cells,
        keep_going=keep_going,
        log=log,
    )
    _echo(f"matrix {scale}: {len(cells)} cell(s) -> {summary.line()}")
    for failure in summary.failures:
        _echo(f"  failed: {failure}")
    return 1 if summary.failed else 0


def cmd_gate(
    engine_trajectory: Optional[str],
    serving_trajectory: Optional[str],
    store_path: Optional[str],
    tolerance: float,
) -> int:
    from .gates import run_gates

    store = None
    if store_path:
        store = ResultStore(store_path)
    report = run_gates(
        engine_path=engine_trajectory,
        serving_path=serving_trajectory,
        store=store,
        tolerance=tolerance,
    )
    _echo(report.render())
    return 0 if report.ok else 1


def cmd_export(
    store_path: str,
    engine_out: str,
    serving_out: str,
    consolidated: Optional[str] = None,
) -> int:
    from .export import export_store

    store = ResultStore(store_path)
    if not len(store):
        _echo(f"store {store_path!r} holds no cell records; nothing to export")
        return 2
    written = export_store(store, engine_out=engine_out, serving_out=serving_out)
    _echo(
        f"exported {written['engine']} engine case(s) -> {engine_out}, "
        f"{written['serving']} serving case(s) -> {serving_out}"
    )
    if consolidated is not None:
        path = store.consolidate(consolidated)
        _echo(f"consolidated {len(store)} record(s) -> {path}")
    return 0


def cmd_list(store_path: Optional[str]) -> int:
    from .protocols import REGISTRY

    _echo(f"scales:    {' '.join(SCALES)}")
    _echo(f"engines:   {' '.join(ENGINES)} (serving: scalar packed; structural: -)")
    _echo(f"families:  {' '.join(FAMILIES)}")
    _echo("protocols:")
    for name in sorted(REGISTRY):
        adapter = REGISTRY[name]
        _echo(
            f"  {name:18s} engines={','.join(adapter.engines)} "
            f"families={','.join(adapter.families)}"
        )
    _echo(
        f"defaults:  protocols={','.join(DEFAULT_PROTOCOLS)} "
        f"engines={','.join(DEFAULT_ENGINES)} families={','.join(DEFAULT_FAMILIES)}"
    )
    if store_path:
        store = ResultStore(store_path)
        _echo(f"store {store_path!r}: {len(store)} cell record(s)")
        for protocol, count in sorted(store.summary().items()):
            _echo(f"  {protocol:18s} {count}")
    return 0


# --------------------------------------------------------------------------- #
# argparse frontend
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Unified resumable experiment-matrix runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run matrix cells, resuming finished ones")
    run_p.add_argument(
        "--protocol", "-p", action="append", default=[],
        help="protocol axis value (repeatable; default: the smoke defaults)",
    )
    run_p.add_argument(
        "--engine", "-e", action="append", default=[],
        help="engine axis value (repeatable)",
    )
    run_p.add_argument(
        "--family", "-f", action="append", default=[],
        help="graph family axis value (repeatable)",
    )
    run_p.add_argument("--scale", choices=SCALES, default="smoke")
    run_p.add_argument(
        "--seed", action="append", type=int, default=[],
        help="seed axis value (repeatable; default 12345)",
    )
    run_p.add_argument("--store", default=DEFAULT_STORE, help="cell store directory")
    run_p.add_argument(
        "--rerun", action="store_true",
        help="execute selected cells even when a record exists",
    )
    run_p.add_argument(
        "--max-cells", type=int, default=None,
        help="stop after N executed cells (deterministic interrupt)",
    )
    run_p.add_argument(
        "--keep-going", action="store_true",
        help="record per-cell failures and continue",
    )
    run_p.add_argument(
        "--list", action="store_true", dest="list_only",
        help="print the selected cells (hash + label) and exit",
    )
    run_p.add_argument("--quiet", action="store_true")

    gate_p = sub.add_parser("gate", help="check trajectories against the gates")
    gate_p.add_argument("--engine-trajectory", default="BENCH_engine.json")
    gate_p.add_argument("--serving-trajectory", default="BENCH_serving.json")
    gate_p.add_argument(
        "--skip-engine", action="store_true", help="skip the engine trajectory"
    )
    gate_p.add_argument(
        "--skip-serving", action="store_true", help="skip the serving trajectory"
    )
    gate_p.add_argument(
        "--store", default=None,
        help="also gate fresh records in this cell store",
    )
    gate_p.add_argument("--tolerance", type=float, default=0.1)

    export_p = sub.add_parser(
        "export", help="fold store records into the BENCH_*.json trajectories"
    )
    export_p.add_argument("--store", default=DEFAULT_STORE)
    export_p.add_argument("--engine-out", default="BENCH_engine.json")
    export_p.add_argument("--serving-out", default="BENCH_serving.json")
    export_p.add_argument(
        "--consolidated", default=None,
        help="also write a consolidated JSON-lines table to this path",
    )

    list_p = sub.add_parser("list", help="show axis values and store contents")
    list_p.add_argument("--store", default=None)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(
            protocols=args.protocol,
            engines=args.engine,
            families=args.family,
            scale=args.scale,
            seeds=args.seed,
            store_path=args.store,
            rerun=args.rerun,
            max_cells=args.max_cells,
            keep_going=args.keep_going,
            list_only=args.list_only,
            quiet=args.quiet,
        )
    if args.command == "gate":
        return cmd_gate(
            engine_trajectory=None if args.skip_engine else args.engine_trajectory,
            serving_trajectory=(
                None if args.skip_serving else args.serving_trajectory
            ),
            store_path=args.store,
            tolerance=args.tolerance,
        )
    if args.command == "export":
        return cmd_export(
            store_path=args.store,
            engine_out=args.engine_out,
            serving_out=args.serving_out,
            consolidated=args.consolidated,
        )
    if args.command == "list":
        return cmd_list(store_path=args.store)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


def cli_entry() -> int:
    """Console entry point: parse ``sys.argv`` and run the subcommand."""
    return main()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(cli_entry())
