"""Command-line entry point: simulate, ingest, query, optimize, loop, report."""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .acquisition.pipeline import AcquisitionPipeline
from .acquisition.sources import watch_directory
from .ai import dqn as dqn_mod
from .ai import mimo as mimo_mod
from .ai.strategy import train_strategy_classifier
from .ai.throughput import ConfigLog, fit_radio_maps
from .errors import EXIT_OK, RanOptError, ValidationError, exit_code_for
from .loop.runner import LoopReport, run_closed_loop
from .simcore import engine
from .warehouse.query import QueryTask
from .warehouse.store import Warehouse
from .warehouse.subjects import SUBJECT_BEAM, create_bundled_subjects


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

    s = sub.add_parser("optimize", help="train a use-case model offline")
    s.add_argument("--usecase", required=True,
                   choices=["throughput", "mimo", "interference", "energy"])
    s.add_argument("--in", dest="in_dir",
                   help="directory of simulator CSVs (throughput use case)")
    s.add_argument("--scenario", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)

    s = sub.add_parser("loop", help="run the closed optimization loop")
    s.add_argument("--usecase", required=True,
                   choices=["throughput", "mimo", "interference", "energy"])
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
    scenario = _load_scenario(args.scenario, args.seed)
    out = Path(args.out)
    for w in range(args.windows):
        t = w * 3600.0
        meas, kpis = engine.step(scenario, 3600.0, t)
        engine.emit_window_csvs(out, meas, kpis, suffix=f"-{int(t)}")
    print(f"wrote {args.windows} windows to {out}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    scenario = _load_scenario(args.scenario)
    pipeline = _fresh_pipeline(scenario)
    if args.watch:
        n = _ingest_dir(pipeline, args.watch)
        print(f"processed {n} files")
    else:
        from .acquisition.sources import StreamServer
        host, port = args.socket.rsplit(":", 1)
        server = StreamServer((host, int(port)), pipeline)
        pipeline.start()
        print(f"listening on {args.socket}; Ctrl-C to stop")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.shutdown()
            pipeline.stop()
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
    scenario = _load_scenario(args.scenario)
    pipeline = _fresh_pipeline(scenario)
    _ingest_dir(pipeline, args.in_dir)
    task = QueryTask.from_json(Path(args.task).read_text())
    table = pipeline.warehouse.query(task)
    Path(args.out).write_text(table.to_csv())
    print(f"wrote {len(table.rows)} result rows to {args.out}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    scenario = _load_scenario(args.scenario, args.seed)
    cells = {c.cell_id: c for c in scenario.cells}
    out: dict = {"use_case": args.usecase, "seed": args.seed}
    if args.usecase == "throughput":
        if not args.in_dir:
            raise ValidationError("throughput optimization needs --in DIR")
        pipeline = _fresh_pipeline(scenario)
        _ingest_dir(pipeline, args.in_dir)
        cols = [c.name for c in
                pipeline.warehouse.subject_spec(SUBJECT_BEAM).columns]
        rows = [dict(zip(cols, r))
                for r in pipeline.warehouse.scan(SUBJECT_BEAM)]
        log = ConfigLog()
        log.record(0.0, cells)
        maps = fit_radio_maps(rows, cells, log, scenario.carrier_ghz)
        out["radio_maps"] = {cid: m.to_dict() for cid, m in maps.items()}
    elif args.usecase == "mimo":
        k = max(len(cells), 2)
        states = mimo_mod.sample_states(300, seed=args.seed, k=k)
        estimator = mimo_mod.train_rate_estimator(states, seed=args.seed)
        policy = mimo_mod.pretrain_policy(states, seed=args.seed)
        tuned = mimo_mod.finetune_policy(estimator, policy, states,
                                         steps=200, seed=args.seed)
        eval_states = mimo_mod.sample_states(100, seed=args.seed + 1, k=k)
        chosen, r_pre, r_fine = mimo_mod.select_policy(policy, tuned,
                                                       eval_states)
        out["estimator"] = estimator.to_dict()
        out["policy"] = chosen.to_dict()
        out["rates"] = {"pretrained": r_pre, "finetuned": r_fine}
    elif args.usecase == "interference":
        agents, curve = dqn_mod.dqn_train(
            scenario, episodes=12, config=dqn_mod.DqnConfig(episode_len=25),
            seed=args.seed)
        out["agents"] = {cid: a.q.to_dict() for cid, a in agents.items()}
        out["learning_curve"] = curve
    else:  # energy
        model, acc = train_strategy_classifier(seed=args.seed)
        out["classifier"] = model.to_dict()
        out["holdout_accuracy"] = acc
    Path(args.out).write_text(json.dumps(out, sort_keys=True))
    print(f"wrote {args.usecase} model to {args.out}")
    return EXIT_OK


def cmd_loop(args) -> int:
    scenario = _load_scenario(args.scenario, args.seed)
    report = run_closed_loop(scenario, args.usecase, args.epochs,
                             seed=args.seed)
    report.save(args.report)
    accepted = sum(1 for e in report.entries if e["decision"] == "accepted")
    print(f"{len(report.entries)} epochs, {accepted} accepted; "
          f"report at {args.report}")
    return EXIT_OK


def cmd_report(args) -> int:
    report = LoopReport.from_json(Path(args.from_path).read_text())
    header = ["epoch", "decision", "cell_id", "fields",
              "objective_before", "objective_after"]
    rows = [[e["epoch"], e["decision"], e["command"]["cell_id"],
             json.dumps(e["command"]["fields"], sort_keys=True),
             e["before"]["objective"], e["after"]["objective"]]
            for e in report.entries]
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(rows)
        print(buf.getvalue(), end="")
    else:
        print(f"use case: {report.use_case}  seed: {report.seed}  "
              f"epochs: {len(report.entries)}")
        for r in rows:
            print(f"  epoch {r[0]}: {r[1]:<11} {r[2]} {r[3]} "
                  f"objective {r[4]:.3f} -> {r[5]:.3f}")
        if report.error:
            print(f"aborted: {report.error}")
    return EXIT_OK


_HANDLERS = {"simulate": cmd_simulate, "ingest": cmd_ingest,
             "optimize": cmd_optimize, "loop": cmd_loop, "report": cmd_report}


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
