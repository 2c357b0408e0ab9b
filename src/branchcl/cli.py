"""Command-line front end: run experiments, analyze runs, render reports.

Subcommands
    run      execute the configured experiment, write reports and checkpoints
    analyze  similarity and efficiency analysis over a finished run
    report   render the result table and export task-wise MAA curves

Exit codes: 0 success, 1 runtime or I/O failure, 2 config/schema error.
Every failure prints one line to stderr of the form
``branchcl: error: <message>``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import statistics
import sys
from pathlib import Path

from .analysis import efficiency_report, expert_similarity, expert_vectors
from .checkpoint import checkpoint_dir, load_model, open_atomic, write_atomic
from .config import (
    ExperimentConfig,
    config_to_dict,
    load_config,
    validate_config,
)
from .errors import BranchclError, ConfigError
from .harness import aggregate_reports, run_seed
from .metrics import EvalMatrix, task_wise_maa

_DEFAULT_OUT = "branchcl-run"
_METRIC_KEYS = ("acc", "maa", "bwt")


def _fail(message: str, code: int) -> int:
    line = " ".join(str(message).split())
    print(f"branchcl: error: {line}", file=sys.stderr)
    return code


def _dump_json(path: Path, obj) -> None:
    write_atomic(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _resolve_out(args_out, cfg_out) -> Path:
    out = args_out or os.environ.get("BRANCHCL_OUT") or cfg_out or _DEFAULT_OUT
    return Path(out)


def cmd_run(args) -> int:
    if args.config is not None:
        cfg = load_config(args.config)
    else:
        cfg = ExperimentConfig()
    if args.seed:
        cfg = dataclasses.replace(cfg, seeds=tuple(args.seed))
        validate_config(cfg)
    out_dir = _resolve_out(args.out, cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    cfg_dict = config_to_dict(cfg)
    per_seed: dict[int, dict] = {}
    timings: dict[int, dict] = {}
    for seed in cfg.seeds:
        result = run_seed(cfg, seed, out_dir=str(out_dir))
        per_seed[seed] = result["report"]
        timings[seed] = result["timings"]
        print(f"seed {seed} done")

    # The report must not depend on where it was written.
    report_cfg = dict(cfg_dict)
    report_cfg.pop("out_dir", None)
    report = aggregate_reports(report_cfg, per_seed)

    _dump_json(out_dir / "config.json", cfg_dict)
    _dump_json(out_dir / "report.json", report)
    _dump_json(out_dir / "timings.json", {str(s): timings[s] for s in sorted(timings)})

    ledgers = {}
    for seed in sorted(per_seed):
        entry = {}
        for method, mrep in per_seed[seed]["methods"].items():
            if "freeze_ledger" in mrep:
                entry[method] = mrep["freeze_ledger"]
        ledgers[str(seed)] = entry
    _dump_json(out_dir / "ledger.json", ledgers)

    with open_atomic(out_dir / "report.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "method", "metric", "value"])
        for seed in sorted(per_seed):
            for method in cfg.methods:
                mm = per_seed[seed]["methods"][method]["metrics"]
                for metric in _METRIC_KEYS:
                    writer.writerow([seed, method, metric, repr(mm[metric])])
        for method in cfg.methods:
            for metric in _METRIC_KEYS:
                med = report["aggregate"][method][metric]["median"]
                writer.writerow(["median", method, metric, repr(med)])

    for method in cfg.methods:
        stats = report["aggregate"][method]
        print(
            f"{method:11s} acc={stats['acc']['median']:.4f} "
            f"maa={stats['maa']['median']:.4f} bwt={stats['bwt']['median']:+.4f}"
        )
    print(f"wrote {out_dir}/report.json")
    return 0


def _load_run_config(run_dir: Path) -> ExperimentConfig:
    cfg_path = run_dir / "config.json"
    if not cfg_path.is_file():
        raise BranchclError(f"{run_dir} has no config.json; not a finished run")
    return load_config(cfg_path)


def load_snapshots(run_dir: str | Path, seed: int, tasks: int) -> list:
    """Per-task moelora (A, B) snapshots, rebuilt from a run's checkpoints:
    snapshots[task][layer][expert] == (A, B) arrays."""
    snaps = []
    for tid in range(tasks):
        model = load_model(checkpoint_dir(run_dir, seed, "moelora", tid))
        snaps.append([[(a.data, b.data) for a, b in layer.experts] for layer in model.layers])
    return snaps


def cmd_analyze(args) -> int:
    run_dir = Path(args.run_dir)
    cfg = _load_run_config(run_dir)
    out_dir = Path(args.out) if args.out else run_dir
    if "moelora" not in cfg.methods:
        raise BranchclError(
            f"run {run_dir} did not train moelora; nothing to compare"
        )
    # Validate everything up front so a partial run never leaves partial
    # analysis files behind.
    missing = []
    for seed in cfg.seeds:
        for tid in range(cfg.stream.tasks):
            ckpt = checkpoint_dir(run_dir, seed, "moelora", tid)
            if not (ckpt / "manifest.json").is_file():
                missing.append(str(ckpt))
    if missing:
        raise BranchclError(f"missing checkpoints: {missing[0]} (+{len(missing) - 1} more)"
                            if len(missing) > 1 else f"missing checkpoints: {missing[0]}")

    per_seed = {}
    all_rows = []
    for seed in cfg.seeds:
        snaps = load_snapshots(run_dir, seed, cfg.stream.tasks)
        per_seed[str(seed)] = expert_similarity(snaps)
        for row in expert_vectors(snaps):
            all_rows.append((seed, row))

    median_margin = statistics.median(per_seed[str(s)]["margin"] for s in cfg.seeds)

    eff = efficiency_report(cfg, batches=args.batches)

    out_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(
        out_dir / "similarity.json",
        {
            "seeds": list(cfg.seeds),
            "per_seed": per_seed,
            "median_margin": median_margin,
        },
    )

    with open_atomic(out_dir / "efficiency.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "method", "params_per_layer", "params_adapters_total",
                "gradient_receiving_scalars", "updated_scalars_per_step",
                "fb_mean_ms", "fb_median_ms", "fb_std_ms",
                "train_mean_ms", "train_median_ms", "train_std_ms",
            ]
        )
        for method, entry in eff["methods"].items():
            fb = entry["forward_backward_ms"]
            tr = entry["train_batch_ms"]
            writer.writerow(
                [
                    method, entry["params_per_layer"],
                    entry["params_adapters_total"],
                    entry["gradient_receiving_scalars"],
                    entry["updated_scalars_per_step"],
                    f"{fb['mean']:.6f}", f"{fb['median']:.6f}", f"{fb['std']:.6f}",
                    f"{tr['mean']:.6f}", f"{tr['median']:.6f}", f"{tr['std']:.6f}",
                ]
            )

    # what csv.writer would write: no field needs quoting (ints, "A" or "B",
    # float reprs), and joining each vector's reprs is faster
    with open_atomic(out_dir / "vectors.csv") as fh:
        width = len(all_rows[0][1]["vector"]) if all_rows else 0
        fh.write(",".join(["seed", "matrix", "task", "layer", "expert"]
                          + [f"v{i}" for i in range(width)]) + "\r\n")
        for seed, row in all_rows:
            fh.write(f"{seed},{row['matrix']},{row['task']},{row['layer']},{row['expert']},"
                     + ",".join(map(repr, row["vector"].tolist())) + "\r\n")

    print(f"median similarity margin: {median_margin:+.4f}")
    for method, entry in eff["methods"].items():
        tr = entry["train_batch_ms"]
        print(
            f"{method:11s} params/layer={entry['params_per_layer']:6d} "
            f"train {tr['mean']:.3f} ms/batch (std {tr['std']:.3f})"
        )
    print(f"wrote {out_dir}/similarity.json")
    return 0


def _require(obj, key, path: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ConfigError(f"report schema: missing {path}")
    return obj[key]


def cmd_report(args) -> int:
    target = Path(args.run_dir)
    report_path = target if target.is_file() else target / "report.json"
    if not report_path.is_file():
        raise BranchclError(f"no report.json at {report_path}")
    try:
        report = json.loads(report_path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{report_path} is not valid JSON: {err.msg} "
            f"at line {err.lineno} column {err.colno}"
        ) from err

    per_seed = _require(report, "per_seed", "per_seed")
    cfg_obj = _require(report, "config", "config")
    methods = _require(cfg_obj, "methods", "config.methods")
    out_dir = Path(args.out) if args.out else report_path.parent

    curves = []  # (seed, method, task, maa)
    lines = []
    for seed_key in sorted(per_seed, key=int):
        seed_report = _require(per_seed, seed_key, f"per_seed.{seed_key}")
        method_map = _require(seed_report, "methods", f"per_seed.{seed_key}.methods")
        lines.append(f"seed {seed_key}")
        for method in methods:
            base = f"per_seed.{seed_key}.methods.{method}"
            entry = _require(method_map, method, base)
            rows = _require(entry, "eval_matrix", f"{base}.eval_matrix")
            metrics = _require(entry, "metrics", f"{base}.metrics")
            for key in _METRIC_KEYS:
                _require(metrics, key, f"{base}.metrics.{key}")
            matrix = EvalMatrix(rows)
            diag = matrix.diagonal()
            final = matrix.final_row()
            tasks = matrix.num_tasks
            head = "  ".join(f"t{k}" for k in range(tasks))
            lines.append(f"  {method}")
            lines.append(
                "    just-trained  "
                + "  ".join(f"{v:.3f}" for v in diag)
                + f"   acc={metrics['acc']:.4f} maa={metrics['maa']:.4f} "
                + f"bwt={metrics['bwt']:+.4f}"
            )
            lines.append(
                "    final         " + "  ".join(f"{v:.3f}" for v in final)
            )
            for tid, value in enumerate(task_wise_maa(matrix)):
                curves.append((seed_key, method, tid, value))
        lines.append("")

    agg = report.get("aggregate", {})
    if agg:
        lines.append("medians")
        for method in methods:
            stats = agg.get(method, {})
            if all(k in stats for k in _METRIC_KEYS):
                lines.append(
                    f"  {method:11s} acc={stats['acc']['median']:.4f} "
                    f"maa={stats['maa']['median']:.4f} "
                    f"bwt={stats['bwt']['median']:+.4f}"
                )

    out_dir.mkdir(parents=True, exist_ok=True)
    with open_atomic(out_dir / "maa_curve.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "method", "task", "maa"])
        for seed_key, method, tid, value in curves:
            writer.writerow([seed_key, method, tid, repr(value)])

    print("\n".join(lines))
    print(f"wrote {out_dir}/maa_curve.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchcl",
        description="Continual-learning experiments with branched adapters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured experiment")
    p_run.add_argument("--config", help="JSON config path (defaults built in)")
    p_run.add_argument(
        "--seed", action="append", type=int, default=None,
        help="override config seeds; repeatable",
    )
    p_run.add_argument("--out", help="output directory (or $BRANCHCL_OUT)")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="similarity/efficiency analysis of a run")
    p_an.add_argument("run_dir", help="directory written by `branchcl run`")
    p_an.add_argument("--out", help="where to write analysis files (default: run dir)")
    p_an.add_argument("--batches", type=int, default=100, help="timed batches per method")
    p_an.set_defaults(func=cmd_analyze)

    p_rep = sub.add_parser("report", help="render tables from report.json")
    p_rep.add_argument("run_dir", help="run directory or report.json path")
    p_rep.add_argument("--out", help="where to write plot data (default: run dir)")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        return _fail(str(err), 2)
    except BranchclError as err:
        return _fail(str(err), 1)
    except OSError as err:
        return _fail(str(err), 1)


if __name__ == "__main__":
    sys.exit(main())
