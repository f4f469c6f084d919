"""Command-line surface tying the modules into reproducible runs.

Every command resolves a RunConfig (built-in defaults, optional JSON config
file via --config or the TABLEROUTE_CONFIG env var, then CLI overrides),
writes its outputs into the run directory and then, last, a resolved config
snapshot beside them, and exits 0 on success, 2 on config errors, 1 on
runtime errors.

The synthetic, ingest and analysis modules are imported inside the commands
that call them, so `route` and `infer` do not pay to import them. The
engine, corpus, gate and trainer stay imported here: `perfbench/tracer.py`
patches traced functions only in the modules that importing this one loads.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np

from . import engine
from .corpus import load_corpus, load_example, read_rows, split_by_dataset, stratified_split
from .errors import ConfigError, IngestError, TableRouteError, UndefinedRateError
from .fileio import write_csv, write_lines
from .gate import compute_params, load_checkpoint, save_checkpoint
from .paths import INPUT_DIM, KNOWN_DATASETS, N_PATHS, TRAINING_DATASETS
from .runconfig import RunConfig, backends_from_corpus, build_stack, load_runconfig
from .trainer import train

CONFIG_ENV_VAR = "TABLEROUTE_CONFIG"
SNAPSHOT_NAME = "config.snapshot.json"


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR) or None
    overrides: dict = {}
    if getattr(args, "corpus", None):
        overrides["corpus_dir"] = args.corpus
    if getattr(args, "run_dir", None):
        overrides["run_dir"] = args.run_dir
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "resource_weight", None) is not None:
        overrides["train"] = {"resource_weight": args.resource_weight}
    if getattr(args, "lambdas", None) is not None:
        try:
            weights = [float(x) for x in args.lambdas.split(",")]
        except ValueError as e:
            raise ConfigError(f"--lambdas must be comma-separated numbers: {e}",
                              key="sweep.resource_weights") from None
        overrides["sweep"] = {"resource_weights": weights}
    return load_runconfig(config_path, overrides)


def _corpus_dir(cfg: RunConfig) -> str:
    if not cfg.corpus_dir:
        raise ConfigError("no corpus_dir configured (pass --corpus or set it in the config)",
                          key="corpus_dir")
    return cfg.corpus_dir


def _start_run(args: argparse.Namespace):
    """The resolved config, the corpus and the run directory, created once
    the corpus has loaded."""
    cfg = _resolve_config(args)
    examples = load_corpus(_corpus_dir(cfg))
    run_dir = Path(cfg.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    return cfg, run_dir, examples


def _finish_run(cfg: RunConfig, run_dir: Path) -> None:
    """Write the config snapshot, after the command's outputs: a command
    that fails leaves the previous snapshot in place."""
    write_lines(run_dir / SNAPSHOT_NAME, [cfg.snapshot_json()])


def _require_example(cfg: RunConfig, example_id: str):
    ex = load_example(_corpus_dir(cfg), example_id)
    if ex is None:
        raise ConfigError(f"example id {example_id!r} not in corpus")
    return ex


def _split(cfg: RunConfig, examples):
    return stratified_split(examples, cfg["train"]["val_fraction"], cfg.seed)


def cmd_make_synthetic(args: argparse.Namespace) -> int:
    from .synthetic import make_raw_records

    cfg = _resolve_config(args)
    tags = KNOWN_DATASETS if args.all_tags else TRAINING_DATASETS
    records = make_raw_records(args.n, seed=cfg.seed, tags=tags)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_lines(out, (json.dumps(rec, ensure_ascii=False, sort_keys=True) for rec in records))
    print(f"wrote {len(records)} raw records to {out}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    from .corpus import parse_record, record_lines
    from .ingest import ingest as run_ingest

    cfg = _resolve_config(args)
    raw_path = Path(args.raw)
    if not raw_path.exists():
        raise ConfigError(f"raw corpus not found: {raw_path}")
    raws = [parse_record(raw_path, *where) for where in record_lines(raw_path)]

    # A record without path_labels gets no label: a simulated expert skips it.
    labels = {}
    for r in raws:
        if "path_labels" not in r:
            continue
        rid, row = str(r.get("id")), r["path_labels"]
        # `type(v) is int` refuses floats and JSON's true/false, which Python counts as ints
        if not (isinstance(row, list) and len(row) == N_PATHS
                and all(type(v) is int and v in (0, 1) for v in row)):
            raise IngestError(
                f"record {rid}: path_labels must be a list of {N_PATHS} entries, "
                f"each 0 or 1, got {row!r}"
            )
        labels[rid] = tuple(row)
    tags = sorted({str(r.get("dataset")) for r in raws if r.get("dataset")})
    backends, agent = build_stack(cfg, labels, tags)
    result = run_ingest(raws, backends, agent, args.out,
                        skip_threshold=cfg["ingest"]["skip_threshold"])
    print(f"ingested {len(result.ids)} examples into {args.out} "
          f"({len(result.skipped)} skipped)")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg, run_dir, examples = _start_run(args)
    train_set, val_set = _split(cfg, examples)
    result = train(train_set, val_set, cfg.train_config(), cfg.cost_vector())
    write_csv(run_dir / "history.csv", "step,lr,loss_total,loss_task,loss_resource,grad_norm",
              map(astuple, result.history))
    metadata = {"seed": str(cfg.seed), "resource_weight": str(cfg["train"]["resource_weight"])}
    if result.val_metrics:
        metadata["val_routing_accuracy"] = repr(result.val_metrics.routing_accuracy)
        write_lines(run_dir / "val_metrics.json",
                    [json.dumps(asdict(result.val_metrics), indent=2, sort_keys=True)])
    else:  # no validation split: an earlier run's metrics do not describe this gate
        (run_dir / "val_metrics.json").unlink(missing_ok=True)
    save_checkpoint(run_dir / "gate.ckpt", result.params, metadata)
    _finish_run(cfg, run_dir)
    acc = result.val_metrics.routing_accuracy if result.val_metrics else float("nan")
    print(f"trained {result.total_steps} steps; best val routing accuracy {acc:.4f}; "
          f"checkpoint at {run_dir / 'gate.ckpt'}")
    return 0


def _load_gate(args: argparse.Namespace):
    ckpt = getattr(args, "checkpoint", None)
    if not ckpt:
        raise ConfigError("pass --checkpoint <gate.ckpt>")
    if not Path(ckpt).exists():
        raise ConfigError(f"checkpoint not found: {ckpt}")
    return compute_params(load_checkpoint(ckpt)[0])


def cmd_route(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    params = _load_gate(args)
    ex = _require_example(cfg, args.id)
    x = read_rows([ex], np.empty((1, INPUT_DIM), dtype=np.float32))
    decision = engine.route(params, x, cfg.cost_vector(),
                            cfg.engine_config().gate_temperature)
    print(json.dumps({
        "path": decision.path,
        "probabilities": [float(p) for p in decision.probabilities],
    }))
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    params = _load_gate(args)
    ex = _require_example(cfg, args.id)
    backends, agent = backends_from_corpus(cfg, [ex])
    record = engine.infer(
        ex, params, backends, agent, cfg.cost_vector(), cfg.engine_config(),
        mode=engine.MODE_NON_ADAPTIVE if args.non_adaptive else engine.MODE_ADAPTIVE,
    )
    print(json.dumps(asdict(record)))
    return 0


def cmd_profile_cost(args: argparse.Namespace) -> int:
    cfg, run_dir, examples = _start_run(args)
    backends, _ = backends_from_corpus(cfg, examples)
    profile = cfg["profile"]
    testbed = []
    for dataset, group in sorted(split_by_dataset(examples).items()):
        testbed.extend(sorted(group, key=lambda e: e.id)[:profile["samples_per_dataset"]])
    costs, measurements = engine.measure_all_costs(
        testbed, backends,
        warmup_runs=profile["warmup_runs"], timed_runs=profile["timed_runs"],
        api_overhead_s=cfg.engine_config().fusion_api_overhead_s,
    )
    write_csv(run_dir / "costs.csv", "path,avg_latency_s,avg_tps,cost", map(astuple, measurements))
    _finish_run(cfg, run_dir)
    print(f"measured path costs {tuple(round(c, 4) for c in costs.costs)} "
          f"over {len(testbed)} samples; CSV at {run_dir / 'costs.csv'}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg, run_dir, examples = _start_run(args)
    params = _load_gate(args)
    backends, agent = backends_from_corpus(cfg, examples)
    report = engine.run_efficiency_bench(
        examples, params, backends, agent, cfg.cost_vector(),
        cfg.bench_config(), cfg.engine_config(),
    )
    write_csv(run_dir / "bench.csv", "dataset,mode,seed,mean_latency_s,mean_tps",
              map(astuple, report.rows + report.summary))
    _finish_run(cfg, run_dir)
    degraded = [f"{d}/{m} {k}" for (d, m), k in sorted(report.degraded.items()) if k]
    if degraded:
        print("warning: degraded inferences (per dataset/mode, all seeds): "
              + ", ".join(degraded), file=sys.stderr)
    print(f"bench complete: {len(report.rows)} rows; CSV at {run_dir / 'bench.csv'}")
    return 0


def cmd_sweep_lambda(args: argparse.Namespace) -> int:
    from . import analysis

    cfg, run_dir, examples = _start_run(args)
    train_set, val_set = _split(cfg, examples)
    rows = analysis.lambda_sweep(
        train_set, val_set,
        [float(w) for w in cfg["sweep"]["resource_weights"]],
        cfg.train_config(), cfg.cost_vector(),
    )
    write_csv(run_dir / "path_distribution.csv",
              "resource_weight,text_share,image_share,fusion_share",
              ((r.resource_weight, *r.path_distribution) for r in rows))
    write_csv(run_dir / "alignment_performance.csv",
              "resource_weight,heuristic_alignment_pct,mean_task_performance,"
              "routing_accuracy,expected_cost",
              ((r.resource_weight, r.heuristic_alignment_pct, r.mean_task_performance,
                r.routing_accuracy, r.expected_cost) for r in rows))
    _finish_run(cfg, run_dir)
    print(f"swept {len(rows)} resource weights; CSVs in {run_dir}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import analysis

    cfg, run_dir, examples = _start_run(args)
    params = _load_gate(args)
    S, chosen = analysis.outcome_records(params, examples, cfg.cost_vector())
    try:
        synergy = analysis.synergy_success_rate(S)
    except UndefinedRateError:
        synergy = "undefined"
    metrics = [
        ("complementarity_rate", analysis.complementarity_rate(S)),
        ("synergy_success_rate", synergy),
        ("heuristic_alignment", analysis.heuristic_alignment(S, chosen)),
        *((f"{name}_pct", pct) for name, pct in asdict(analysis.case_partition(S)).items()),
    ]
    write_csv(run_dir / "analysis.csv", "metric,value", metrics)
    _finish_run(cfg, run_dir)
    print(f"analysis of {len(chosen)} records written to {run_dir / 'analysis.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tableroute",
        description="Cost-aware adaptive routing over table-reasoning paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, corpus=True, run_dir=True, checkpoint=False):
        p.add_argument("--config", help=f"JSON run config (or ${CONFIG_ENV_VAR})")
        if corpus:
            p.add_argument("--corpus", help="corpus directory")
        if run_dir:
            p.add_argument("--run-dir", dest="run_dir", help="output directory")
        if checkpoint:
            p.add_argument("--checkpoint", help="gate checkpoint file")
        p.add_argument("--seed", type=int, help="override config seed")

    p = sub.add_parser("make-synthetic", help="generate a raw synthetic corpus")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--n", type=int, default=2500, help="number of records")
    p.add_argument("--all-tags", action="store_true",
                   help="use all dataset tags, not just the training mixture")
    common(p, corpus=False, run_dir=False)
    p.set_defaults(func=cmd_make_synthetic)

    p = sub.add_parser("ingest", help="embed + score a raw corpus into a corpus dir")
    p.add_argument("--raw", required=True, help="raw JSONL records")
    p.add_argument("--out", required=True, help="corpus directory to write")
    common(p, corpus=False, run_dir=False)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train the gate on a corpus")
    common(p)
    p.add_argument("--resource-weight", dest="resource_weight", type=float,
                   help="override the resource loss weight")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("route", help="route one example, print path + probabilities")
    common(p, run_dir=False, checkpoint=True)
    p.add_argument("--id", required=True, help="example id")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("infer", help="run one full inference with latency accounting")
    common(p, run_dir=False, checkpoint=True)
    p.add_argument("--id", required=True, help="example id")
    p.add_argument("--non-adaptive", action="store_true", help="bypass the gate (always fusion)")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("profile-cost", help="measure per-path costs on a testbed")
    common(p)
    p.set_defaults(func=cmd_profile_cost)

    p = sub.add_parser("bench", help="efficiency benchmark, adaptive vs non-adaptive")
    common(p, checkpoint=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep-lambda", help="train across resource weights and report")
    common(p)
    p.add_argument("--lambdas", help="comma-separated resource weights")
    p.set_defaults(func=cmd_sweep_lambda)

    p = sub.add_parser("analyze", help="policy diagnostics for a trained gate")
    common(p, checkpoint=True)
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        key = f" (key: {e.key})" if e.key else ""
        print(f"config error: {e}{key}", file=sys.stderr)
        return 2
    except (TableRouteError, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
