"""Command-line front end.

Subcommands: gen-data, analyze-freq, scale, train, sweep, grad-check, verify.
gen-data, analyze-freq, train and sweep take --config FILE (flat key=value
text) and --seed N; scale takes --config FILE only and prints the lr, L2,
clip and init sigma train applies to each cell sweep would train;
grad-check and verify build their own tiny problems and take --seed N only.
Exit codes: 0 success; 1 a check failure, or bad input (config, file or
data) reported as one "error: <message>" line on stderr; 2 a usage error
(an unknown flag) from argparse; 3 training divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import harness
from .data import batch_presence_probability, count_frequencies, save_dataset


def _load_config(args) -> harness.ExperimentConfig:
    if args.config:
        return harness.parse_config_text(Path(args.config).read_text())
    return harness.ExperimentConfig()


def _cmd_gen_data(args) -> int:
    config = _load_config(args)
    dataset = harness.build_dataset(config, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(out, dataset, meta={"seed": args.seed, "config": config.to_dict()})
    print(f"wrote {dataset.n_samples} samples to {out}")
    return 0


def _cmd_analyze_freq(args) -> int:
    config = _load_config(args)
    dataset = harness.build_dataset(config, args.seed)
    b = config.batch_size
    print(f"samples: {dataset.n_samples}   batch size: {b}")
    for f, counts in zip(dataset.fields, count_frequencies(dataset)):
        order = np.argsort(-counts)[:5]
        print(f"field {f.name}: vocab {len(counts)}")
        for rank, idx in enumerate(order):
            p = counts[idx] / dataset.n_samples
            exact = batch_presence_probability(p, b, "exact")
            approx = batch_presence_probability(p, b, "approx")
            print(
                f"  #{rank + 1} id {idx}: count {counts[idx]}  p {p:.6f}"
                f"  in-batch exact {exact:.4f} approx {approx:.4f}"
            )
    return 0


def _cmd_scale(args) -> int:
    config = _load_config(args)
    print(f"{'rule':<11}{'batch':>7}{'s':>9}{'lr dense':>12}{'lr embed':>12}{'l2':>12}"
          f"{'init sigma':>12}  clip")
    rows = []
    for cell in harness.sweep_cells(config):
        plan, clip_cfg = harness.run_plan(cell)
        clip_text = clip_cfg.variant + "".join(
            f" {k} {v:g}" for k, v in asdict(clip_cfg).items() if k != "variant" and v is not None
        )
        sigma = cell.resolved_init_sigma()
        print(f"{plan.rule:<11}{cell.batch_size:>7}{plan.factor:>9.4g}{plan.eta_dense:>12.4g}"
              f"{plan.eta_embed:>12.4g}{plan.l2:>12.4g}{sigma:>12.4g}  {clip_text}")
        rows.append({"rule": plan.rule, "batch_size": cell.batch_size, "s": plan.factor,
                     "lr_dense": plan.eta_dense, "lr_embed": plan.eta_embed, "l2": plan.l2,
                     "clip": asdict(clip_cfg), "init_sigma": sigma})
    print(json.dumps(rows))
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    record = harness.train(config, args.seed)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{record.run_id}.json"
    path.write_text(harness.strict_json(record.to_dict()))
    status = "DIVERGED" if record.diverged else "ok"
    print(f"[{status}] {record.run_id}: initial auc {record.initial_auc:.4f}", end="")
    if record.epochs:
        print(f" -> final auc {record.final_auc:.4f} logloss {record.final_logloss:.4f}", end="")
    print(f"  ({path})")
    return 3 if record.diverged else 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    records, table = harness.sweep(config, seed=args.seed)
    out = Path(config.out_dir)
    harness.write_reports(records, out)
    print(table)
    print(f"reports in {out}/")
    return 3 if any(r.diverged for r in records) else 0


def _cmd_grad_check(args) -> int:
    kinds = [args.model] if args.model else list(harness.models.MODEL_KINDS)
    ok = True
    for kind in kinds:
        report = harness.grad_check(kind, args.seed, n_trials=args.trials)
        ok = ok and report.passed
        print(
            f"{'PASS' if report.passed else 'FAIL'} {kind}: max relative error "
            f"{report.max_rel_error:.3e} over {report.n_trials} configs"
        )
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    report = harness.verify(tuple(args.suites), seed=args.seed)
    for line in report.lines():
        print(line)
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctrlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen-data", help="generate and save a synthetic dataset")
    common(p)
    p.add_argument("--out", default="dataset.npz")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("analyze-freq", help="id frequency and batch-presence report")
    common(p)
    p.set_defaults(func=_cmd_analyze_freq)

    p = sub.add_parser("scale", help="print the lr, L2, clip and init sigma each cell applies")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("train", help="run one training experiment")
    common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", help="batch-size x scaling-rule comparison")
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("grad-check", help="finite-difference check of every backward pass")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", choices=harness.models.MODEL_KINDS, default=None)
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("verify", help="run the numerical verification suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("suites", nargs="*", help="subset of: " + ", ".join(harness._VERIFY_SUITES))
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
