"""Command-line entry point: simulate, ingest, query, loop, report; `loop`
takes the use cases of the `loop.usecases` registry."""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .acquisition.pipeline import AcquisitionPipeline
from .acquisition.sources import watch_directory
from .errors import EXIT_OK, RanOptError, ValidationError, exit_code_for
from .loop.runner import LoopReport, run_closed_loop
from .loop.usecases import USE_CASES
from .simcore import engine
from .warehouse.query import QueryTask
from .warehouse.store import Warehouse
from .warehouse.subjects import create_bundled_subjects


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ranopt",
                                description="Desk-scale radio network "
                                            "closed-loop optimization testbed")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="emit measurement/KPI CSV windows")
    s.add_argument("--scenario", required=True)
    s.add_argument("--windows", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)

    s = sub.add_parser("ingest", help="run the acquisition pipeline")
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--watch", help="directory of CSV/TXT drops")
    g.add_argument("--socket", help="HOST:PORT to listen on")
    s.add_argument("--scenario", required=True,
                   help="scenario JSON naming the known cells")
    s.add_argument("--export", help="directory for warehouse CSV exports")

    s = sub.add_parser("warehouse", help="warehouse operations")
    wsub = s.add_subparsers(dest="warehouse_command", required=True)
    q = wsub.add_parser("query", help="run a declarative query task")
    q.add_argument("--task", required=True)
    q.add_argument("--in", dest="in_dir", required=True,
                   help="directory of simulator CSVs to ingest first")
    q.add_argument("--scenario", required=True)
    q.add_argument("--out", required=True)

    s = sub.add_parser("loop", help="run the closed optimization loop")
    s.add_argument("--usecase", required=True, choices=list(USE_CASES))
    s.add_argument("--scenario", required=True)
    s.add_argument("--epochs", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--report", required=True)

    s = sub.add_parser("report", help="summarize a loop report")
    s.add_argument("--from", dest="from_path", required=True)
    s.add_argument("--format", choices=["csv", "text"], default="text")
    return p


def _load_scenario(path: str, seed: int | None = None):
    scenario = engine.load_scenario(path)
    if seed is not None:
        scenario.seed = seed
    return scenario


def _ingest_dir(pipeline: AcquisitionPipeline, directory) -> int:
    n = watch_directory(directory, pipeline)
    pipeline.quiesce()
    return n


def _fresh_pipeline(scenario) -> AcquisitionPipeline:
    warehouse = Warehouse()
    create_bundled_subjects(warehouse)
    return AcquisitionPipeline(warehouse,
                               known_cells=[c.cell_id for c in scenario.cells])


def cmd_simulate(args) -> int:
    if args.windows < 1:
        raise ValidationError("windows must be >= 1")
    scenario = _load_scenario(args.scenario, args.seed)
    out = Path(args.out)
    for w in range(args.windows):
        t = w * 3600.0
        meas, kpis = engine.step(scenario, 3600.0, t)
        engine.emit_window_csvs(out, meas, kpis, suffix=f"-{int(t)}")
    print(f"wrote {args.windows} windows to {out}")
    return EXIT_OK


def _address(text: str) -> tuple[str, int]:
    """HOST:PORT as (host, port)."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdecimal() or int(port) > 65535:
        raise ValidationError(
            f"--socket {text!r}: want HOST:PORT with a port in 0..65535")
    return host, int(port)


def cmd_ingest(args) -> int:
    address = None if args.watch is not None else _address(args.socket)
    scenario = _load_scenario(args.scenario)
    pipeline = _fresh_pipeline(scenario)
    if address is None:
        n = _ingest_dir(pipeline, args.watch)
        print(f"processed {n} files")
    else:
        from .acquisition.sources import StreamServer
        server = StreamServer(address, pipeline)
        print(f"listening on {args.socket}; Ctrl-C to stop")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.shutdown()
    print(json.dumps(pipeline.counters, sort_keys=True))
    if args.export:
        out = Path(args.export)
        out.mkdir(parents=True, exist_ok=True)
        for name in pipeline.warehouse.list_subjects():
            pipeline.warehouse.export_subject(
                name, out / f"{name}.csv", out / f"{name}.schema.json")
        print(f"exported subjects to {out}")
    return EXIT_OK


def cmd_warehouse_query(args) -> int:
    task = QueryTask.from_json(Path(args.task).read_text())
    scenario = _load_scenario(args.scenario)
    pipeline = _fresh_pipeline(scenario)
    _ingest_dir(pipeline, args.in_dir)
    table = pipeline.warehouse.query(task)
    Path(args.out).write_text(table.to_csv())
    print(f"wrote {len(table.rows)} result rows to {args.out}")
    return EXIT_OK


def cmd_loop(args) -> int:
    scenario = _load_scenario(args.scenario, args.seed)
    # an epoch that raises still saves the report of the epochs before it
    report = run_closed_loop(scenario, args.usecase, args.epochs,
                             seed=args.seed, report_path=args.report)
    accepted = sum(1 for e in report.entries if e["decision"] == "accepted")
    print(f"{len(report.entries)} epochs, {accepted} accepted; "
          f"report at {args.report}")
    return EXIT_OK


def cmd_report(args) -> int:
    text = Path(args.from_path).read_text()
    try:
        summary = _summary(LoopReport.from_json(text), args.format)
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(
            f"report {args.from_path}: {type(e).__name__}: {e}") from None
    print(summary, end="")
    return EXIT_OK


def _summary(report: LoopReport, fmt: str) -> str:
    """The report's epochs as CSV rows or as text lines."""
    header = ["epoch", "decision", "cell_id", "fields",
              "objective_before", "objective_after"]
    rows = [[e["epoch"], e["decision"], e["command"]["cell_id"],
             json.dumps(e["command"]["fields"], sort_keys=True),
             e["before"]["objective"], e["after"]["objective"]]
            for e in report.entries]
    buf = io.StringIO()
    if fmt == "csv":
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(rows)
    else:
        buf.write(f"use case: {report.use_case}  seed: {report.seed}  "
                  f"epochs: {len(report.entries)}\n")
        for r in rows:
            buf.write(f"  epoch {r[0]}: {r[1]:<11} {r[2]} {r[3]} "
                      f"objective {r[4]:.3f} -> {r[5]:.3f}\n")
        if report.error:
            buf.write(f"aborted: {report.error}\n")
    return buf.getvalue()


_HANDLERS = {"simulate": cmd_simulate, "ingest": cmd_ingest,
             "loop": cmd_loop, "report": cmd_report}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "warehouse":
            return cmd_warehouse_query(args)
        return _HANDLERS[args.command](args)
    except RanOptError as e:
        print(f"error: {e}", file=sys.stderr)
        return exit_code_for(e)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return exit_code_for(ValidationError(str(e)))


if __name__ == "__main__":
    sys.exit(main())
