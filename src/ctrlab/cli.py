"""Command-line front end.

Subcommands: gen-data, analyze-freq, scale, train, sweep, grad-check, verify.
gen-data, analyze-freq, train and sweep take --config FILE (flat key=value
text) and --seed N; grad-check and verify build their own tiny problems and
take --seed N only; scale takes its hyperparameters as flags.
Exit codes: 0 success, 1 verification/check failure or a bad argument,
2 training divergence, or a usage error (an unknown flag) from argparse.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import harness, scaling
from .data import batch_presence_probability, count_frequencies, save_dataset


def _load_config(args) -> harness.ExperimentConfig:
    if args.config:
        return harness.load_config(args.config)
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
    freq = count_frequencies(dataset)
    b = config.batch_size
    print(f"samples: {dataset.n_samples}   batch size: {b}")
    for j, name in enumerate(freq.field_names):
        counts = freq.counts[j]
        order = np.argsort(-counts)[:5]
        print(f"field {name}: vocab {len(counts)}")
        for rank, idx in enumerate(order):
            p = freq.probability(j, idx)
            exact = batch_presence_probability(p, b, "exact")
            approx = batch_presence_probability(p, b, "approx")
            print(
                f"  #{rank + 1} id {idx}: count {counts[idx]}  p {p:.6f}"
                f"  in-batch exact {exact:.4f} approx {approx:.4f}"
            )
    return 0


def _cmd_scale(args) -> int:
    base = scaling.BaseHyperparams(
        base_batch=args.base_batch,
        eta_dense=args.eta_dense if args.eta_dense is not None else args.eta,
        eta_embed=args.eta,
        l2=args.l2,
    )
    plan = scaling.plan_for_batch(args.rule, base, args.target_batch)
    print(f"rule {plan.rule}   s = {plan.factor:g}  ({args.base_batch} -> {args.target_batch})")
    print(f"{'':16}{'base':>14}{'scaled':>14}")
    print(f"{'lr (dense)':16}{base.eta_dense:>14.6g}{plan.eta_dense:>14.6g}")
    print(f"{'lr (embed)':16}{base.eta_embed:>14.6g}{plan.eta_embed:>14.6g}")
    print(f"{'l2':16}{base.l2:>14.6g}{plan.l2:>14.6g}")
    clip_factor = 1.0
    if args.clip_mode:
        clip_factor = scaling.clip_value_scale(1.0, plan.factor, args.clip_mode)
        print(f"{'clip factor':16}{1.0:>14.6g}{clip_factor:>14.6g}")
    print(json.dumps({**asdict(plan), "clip_value_factor": clip_factor}))
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    record = harness.train(config, args.seed)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{record.run_id}.json"
    path.write_text(json.dumps(record.to_dict(), indent=2))
    status = "DIVERGED" if record.diverged else "ok"
    print(f"[{status}] {record.run_id}: initial auc {record.initial_auc:.4f}", end="")
    if record.epochs:
        print(f" -> final auc {record.final_auc:.4f} logloss {record.final_logloss:.4f}", end="")
    print(f"  ({path})")
    return 2 if record.diverged else 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    records, table = harness.sweep(config, seed=args.seed)
    out = Path(config.out_dir)
    harness.write_reports(records, out)
    print(table)
    print(f"reports in {out}/")
    return 2 if any(r.diverged for r in records) else 0


def _cmd_grad_check(args) -> int:
    kinds = [args.model] if args.model else list(harness.models.MODEL_KINDS)
    ok = True
    for kind in kinds:
        try:
            report = harness.grad_check(kind, args.seed, n_trials=args.trials)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        ok = ok and report.passed
        print(
            f"{'PASS' if report.passed else 'FAIL'} {kind}: max relative error "
            f"{report.max_rel_error:.3e} over {report.n_trials} configs"
        )
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    try:
        report = harness.verify(tuple(args.suites), seed=args.seed)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
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

    p = sub.add_parser("scale", help="print a scaled hyperparameter plan")
    p.add_argument("--rule", required=True, choices=scaling.RULES)
    p.add_argument("--base-batch", type=int, default=1024)
    p.add_argument("--target-batch", type=int, required=True)
    p.add_argument("--eta", type=float, default=1e-4)
    p.add_argument("--eta-dense", type=float, default=None)
    p.add_argument("--lambda", dest="l2", type=float, default=1e-4)
    p.add_argument("--clip-mode", choices=scaling.CLIP_MODES, default=None)
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
