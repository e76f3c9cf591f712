"""Experiment runner: config files, training loops, sweeps, and verification.

A config is a flat key=value text file (# comments allowed); keys are
namespaced per subsystem (data.*, model.*, opt.*, clip.*, scale.*, train.*).
Every numeric output is a pure function of (config, seed): datasets, inits,
and batch orders all derive from one seed tree.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import clip, metrics, models, optim, scaling
from .data import (
    MAX_VOCAB_SIZE,
    Batch,
    Dataset,
    FieldSchema,
    batch_presence_probability,
    drop_unreferenced_ids,
    generate_synthetic,
    load_criteo_tsv,
    load_dataset,
    make_batches,
    top_k_collapse,
)
from .embedding import init_table, take_ids
from .models import Model, init_model, model_forward
from .optim import AdamState, EmbedAdamState, WarmupSchedule


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# A check is a (test, phrase) pair: a value passes when test(value) is true,
# and a failure reads "<key> must be <phrase>, got <value>".  A value is first
# checked against its annotation (_TYPE_CHECKS), then against its key's check.
# Every numeric check is a comparison, which NaN fails.
_TYPE_CHECKS = {
    # bool is an int subclass, so True would pass as 1 without the bool test.
    int: (lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool), "an integer"),
    float: (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool), "a real number"),
    bool: (lambda v: isinstance(v, bool), "a bool"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def _integer(low: int, high: float = math.inf):
    phrase = f"an integer >= {low}" + (f" and <= {high}" if high < math.inf else "")
    return (lambda v: low <= v <= high, phrase)


def _one_of(names: tuple[str, ...]):
    return (lambda v: v in names, f"one of {', '.join(names)}")


_POSITIVE = (lambda v: 0 < v < math.inf, "> 0 and finite")
_FINITE = (lambda v: -math.inf < v < math.inf, "finite")
_FINITE_NONNEGATIVE = (lambda v: 0 <= v < math.inf, "finite and >= 0")


def _key(key: str, default, check=None, synthetic: bool = False):
    """A config field, the key it is read from and written to, and the check
    its value must pass; a synthetic check applies to synthetic data only."""
    return field(default=default, metadata={"key": key, "check": check, "synthetic": synthetic})


@dataclass(frozen=True)
class ExperimentConfig:
    # data
    # "synthetic", a .npz container, or a Criteo TSV
    source: str = _key("data.source", "synthetic")
    n_samples: int = _key("data.n_samples", 200_000, _integer(1), synthetic=True)
    n_dense: int = _key("data.n_dense", 2, _integer(0), synthetic=True)
    n_categorical: int = _key("data.n_categorical", 6, _integer(1), synthetic=True)
    vocab_size: int = _key("data.vocab_size", 10_000, _integer(1, MAX_VOCAB_SIZE), synthetic=True)
    zipf_exponent: float = _key("data.zipf_exponent", 1.2, _POSITIVE, synthetic=True)
    click_strength: float = _key("data.click_strength", 1.0, _FINITE, synthetic=True)
    top_k: int = _key("data.top_k", 0, _integer(0))  # 0 disables the top-k id collapse
    split: float = _key("data.split", 0.9, (lambda v: 0 < v < 1, "strictly between 0 and 1"))
    # model
    model_kind: str = _key("model.kind", "deepfm", _one_of(models.MODEL_KINDS))
    hidden: tuple[int, ...] = _key("model.hidden", (400, 400, 400), _integer(1))
    embed_dim: int = _key("model.embed_dim", 10, _integer(1))
    # None: 1e-2 with cowclip, else 1e-4
    init_sigma: float | None = _key("model.init_sigma", None, _POSITIVE)
    # optimizer
    lr_dense: float = _key("opt.lr_dense", 1e-4, _POSITIVE)
    lr_embed: float = _key("opt.lr_embed", 1e-4, _POSITIVE)
    l2: float = _key("opt.l2", 1e-4, _POSITIVE)
    warmup_epochs: float = _key("opt.warmup_epochs", 1.0, _FINITE_NONNEGATIVE)
    dense_l2: bool = _key("opt.dense_l2", True)
    # clipping
    clip_variant: str = _key("clip.variant", "none")
    clip_r: float = _key("clip.r", 1.0)
    clip_zeta: float = _key("clip.zeta", 1e-4)
    # scaling
    rule: str = _key("scale.rule", "none", _one_of(scaling.RULES))
    base_batch: int = _key("scale.base_batch", 1024, _integer(1))
    # training
    batch_size: int = _key("train.batch_size", 1024, _integer(1))
    epochs: int = _key("train.epochs", 10, _integer(0))
    # sweep: checked here, so that an error names the sweep key and not a cell's own key
    sweep_batch_sizes: tuple[int, ...] = _key("sweep.batch_sizes", (), _integer(1))
    sweep_rules: tuple[str, ...] = _key("sweep.rules", (), _one_of(scaling.RULES))
    # output
    out_dir: str = _key("out.dir", "runs")

    def __post_init__(self):
        """Reject a bad config here, before any data is built.  None passes
        an optional key only.  A tuple key takes a tuple or a list, stored as
        a tuple, and each of its entries is checked on its own."""
        synthetic = self.source == "synthetic"
        for f in fields(self):
            name, value = f.metadata["key"], getattr(self, f.name)
            hint = _TYPES[f.name]
            if type(None) in get_args(hint):
                if value is None:
                    continue
                hint = get_args(hint)[0]
            entries = (value,)
            if get_origin(hint) is tuple:
                if isinstance(value, list):
                    value = tuple(value)
                    object.__setattr__(self, f.name, value)
                if not isinstance(value, tuple):
                    raise ValueError(f"{name} must be a tuple or a list, got {value!r}")
                name, entries, hint = name + " entries", value, get_args(hint)[0]
            checks = [_TYPE_CHECKS[hint]]
            if f.metadata["check"] and (synthetic or not f.metadata["synthetic"]):
                checks.append(f.metadata["check"])
            for test, phrase in checks:
                for entry in entries:
                    if not test(entry):
                        raise ValueError(f"{name} must be {phrase}, got {entry!r}")
        # ClipConfig owns the clip.* rules, which depend on the variant.
        clip.ClipConfig(self.clip_variant, self.clip_r, self.clip_zeta)

    def resolved_init_sigma(self) -> float:
        if self.init_sigma is not None:
            return self.init_sigma
        return 1e-2 if self.clip_variant == "cowclip" else 1e-4

    def to_dict(self) -> dict:
        """Config keys to values; tuples are written comma-separated."""
        d = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            d[f.metadata["key"]] = value
        return d


_FIELDS = {f.metadata["key"]: f.name for f in fields(ExperimentConfig)}
_TYPES = get_type_hints(ExperimentConfig)


def _coerce(hint, raw: str):
    """Parse one config value by its field annotation: empty means None for
    optional fields, and tuples are comma-separated."""
    raw = raw.strip()
    args = get_args(hint)
    if type(None) in args:
        return None if raw == "" else _coerce(args[0], raw)
    if get_origin(hint) is tuple:
        return tuple(_coerce(args[0], v) for v in raw.split(",") if v.strip())
    if hint is bool:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"bad boolean {raw!r}")
    return hint(raw)


def parse_config_text(text: str) -> ExperimentConfig:
    values = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        first = first_line.setdefault(key, lineno)
        if first != lineno:
            raise ValueError(f"config line {lineno}: duplicate key {key!r} (first on line {first})")
        name = _FIELDS[key]
        try:
            values[name] = _coerce(_TYPES[name], raw)
        except ValueError as err:
            raise ValueError(f"config line {lineno}: {key}: {err}") from None
    return ExperimentConfig(**values)


# ---------------------------------------------------------------------------
# Run records and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    test_auc: float
    test_logloss: float
    seconds: float
    steps: int


@dataclass
class RunRecord:
    run_id: str
    model_kind: str
    rule: str
    batch_size: int
    seed: int
    initial_auc: float
    initial_logloss: float
    epochs: list[EpochRecord]
    diverged: bool
    config: dict

    @property
    def final_auc(self) -> float:
        return self.epochs[-1].test_auc if self.epochs else self.initial_auc

    @property
    def final_logloss(self) -> float:
        return self.epochs[-1].test_logloss if self.epochs else self.initial_logloss

    def to_dict(self) -> dict:
        return asdict(self)


def record_fingerprint(record: RunRecord) -> dict:
    """Everything in a record except wall-clock time and the config, for
    determinism comparisons: those compare runs of one config, so a renamed
    or removed config key must not move the fingerprint."""
    d = record.to_dict()
    del d["config"]
    d["epochs"] = [{k: v for k, v in e.items() if k != "seconds"} for e in d["epochs"]]
    return d


# ---------------------------------------------------------------------------
# Dataset and model construction
# ---------------------------------------------------------------------------

def _seed_children(seed: int):
    data_ss, init_ss, batch_ss = np.random.SeedSequence(seed).spawn(3)
    return data_ss, init_ss, batch_ss


def build_dataset(config: ExperimentConfig, seed: int) -> Dataset:
    data_ss, _, _ = _seed_children(seed)
    if config.source == "synthetic":
        ds = generate_synthetic(
            config.n_samples,
            int(data_ss.generate_state(1)[0]),
            n_dense=config.n_dense,
            n_categorical=config.n_categorical,
            vocab_sizes=config.vocab_size,
            zipf_exponent=config.zipf_exponent,
            click_strength=config.click_strength,
        )
    elif config.source.endswith(".npz"):
        ds, _ = load_dataset(config.source)
    else:
        ds = load_criteo_tsv(config.source)
    if ds.n_samples == 0:
        raise ValueError(f"data.source {config.source!r} yielded 0 rows")
    if config.top_k >= 1:
        ds = top_k_collapse(ds, config.top_k)
    return ds


def run_plan(config: ExperimentConfig) -> tuple[scaling.ScalingPlan, clip.ClipConfig]:
    """What a run applies: its rule's plan at s = train.batch_size /
    scale.base_batch, and its clip settings."""
    base = scaling.BaseHyperparams(config.base_batch, config.lr_dense, config.lr_embed, config.l2)
    plan = scaling.plan_for_batch(config.rule, base, config.batch_size)
    # CowClip's threshold follows the weights, so clipping does not depend on
    # the batch size; ClipConfig keeps only the parameters the variant reads.
    return plan, clip.ClipConfig(config.clip_variant, config.clip_r, config.clip_zeta)


# Evaluation runs the training forward, cache and all, on chunks of 4096
# rows: a wide-benchmark chunk then peaks below a training step of b=4096,
# where 8192 rows would peak above one (BENCH_pr24.json).
EVAL_CHUNK = 4096


def _predict(model: Model, dataset: Dataset):
    """Click probabilities of the dataset's rows, forwarded EVAL_CHUNK rows at a time."""
    n_rows = dataset.n_samples
    probs = np.empty(n_rows)
    for start in range(0, n_rows, EVAL_CHUNK):
        rows = slice(start, min(start + EVAL_CHUNK, n_rows))
        batch = Batch(dataset.labels[rows], dataset.dense[rows], dataset.categorical[rows])
        probs[rows] = model_forward(model, batch)[0]
    return probs


def evaluate_model(model: Model, dataset: Dataset) -> metrics.EvalResult:
    return metrics.evaluate(_predict(model, dataset), dataset.labels)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train(config: ExperimentConfig, seed: int, dataset: Dataset | None = None) -> RunRecord:
    """One full training run; deterministic given (config, seed).

    Per step: batch -> embedding lookup -> forward -> loss/backward -> dense
    step (warmup lr) -> per id-indexed table (embeddings, first-order): clip
    -> sparse step.  The L2 term is applied inside the sparse step, after
    clipping, so the clip operates on the data gradient alone.

    The tables (embeddings, first-order weights and their Adam moments) hold
    only the ids that occur in some row of the dataset, which is relabeled
    (data.drop_unreferenced_ids) before its one train/test split: no lookup
    reads any other id.  A row is drawn as in the full table, and every step
    is per entry, so the record is the one a full table gives, bit for bit;
    only dense L2's pass over every row costs less.

    The run diverges, and stops, on a non-finite step loss or on the third
    epoch in a row whose train loss is above 10x the initial test logloss.
    """
    _, init_ss, batch_ss = _seed_children(seed)
    if dataset is None:
        dataset = build_dataset(config, seed)
    fields = dataset.fields
    dataset, kept = drop_unreferenced_ids(dataset)
    train_ds, test_ds = dataset.split(config.split)
    b = config.batch_size
    if b > train_ds.n_samples:
        raise ValueError(
            f"train.batch_size={b} exceeds the training split's {train_ds.n_samples} rows"
        )
    if train_ds.n_categorical == 0:
        raise ValueError(
            f"data.source {config.source!r} has no categorical field; the models embed at least one"
        )
    n_pos = int(test_ds.labels.sum())
    n_neg = test_ds.n_samples - n_pos
    if not (n_pos and n_neg):
        raise ValueError(
            f"data.split={config.split} leaves a test split with {n_pos} positive and "
            f"{n_neg} negative rows; AUC needs both classes"
        )

    plan, clip_cfg = run_plan(config)

    table_ss, params_ss = init_ss.spawn(2)
    table_seed = int(table_ss.generate_state(1)[0])
    params_seed = int(params_ss.generate_state(1)[0])
    # Drawn over the full fields: each kept row starts from its full-table weights.
    embed = init_table(fields, config.embed_dim, config.resolved_init_sigma(), table_seed)
    if kept is not None:
        embed = take_ids(embed, kept)
    model = init_model(
        config.model_kind, embed, train_ds.n_dense, hidden=config.hidden, seed=params_seed
    )
    dense = dict(model.named_arrays())
    dense_state = AdamState.init(dense)
    tables = model.tables
    table_states = {name: EmbedAdamState.init(t) for name, t in tables.items()}

    steps_per_epoch = train_ds.n_samples // b
    warmup = WarmupSchedule(
        plan.eta_dense, int(round(config.warmup_epochs * steps_per_epoch))
    )

    initial_eval = evaluate_model(model, test_ds)

    run_id = f"{config.model_kind}-{config.rule}-b{b}-seed{seed}"
    record = RunRecord(
        run_id=run_id,
        model_kind=config.model_kind,
        rule=config.rule,
        batch_size=b,
        seed=seed,
        initial_auc=initial_eval.auc,
        initial_logloss=initial_eval.logloss,
        epochs=[],
        diverged=False,
        config=config.to_dict(),
    )

    epoch_seeds = batch_ss.spawn(config.epochs) if config.epochs else []
    global_step = 0
    over_initial = 0
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        losses = []
        for batch in make_batches(train_ds, b, seed=epoch_seeds[epoch - 1]):
            global_step += 1
            probs, cache = model_forward(model, batch)
            loss, dgrads, sgrads = models.loss_and_backward(probs, batch.labels, cache)
            if not math.isfinite(loss):
                record.diverged = True
                break
            losses.append(loss)
            optim.adam_step(dense_state, dense, dgrads, warmup.lr(global_step))
            for name, t in tables.items():
                sgrad = clip.apply_clip(clip_cfg, t, sgrads[name])
                optim.adam_sparse_step(
                    table_states[name], t, sgrad, plan.eta_embed, l2=plan.l2,
                    dense_l2=config.dense_l2,
                )
        train_loss = float(np.mean(losses)) if losses else float("nan")
        result = evaluate_model(model, test_ds)
        record.epochs.append(
            EpochRecord(
                epoch=epoch,
                train_loss=train_loss,
                test_auc=result.auc,
                test_logloss=result.logloss,
                seconds=time.perf_counter() - t0,
                steps=len(losses),
            )
        )
        if record.diverged:
            break
        if math.isfinite(train_loss) and train_loss > 10.0 * initial_eval.logloss:
            over_initial += 1
            if over_initial >= 3:
                record.diverged = True
                break
        else:
            over_initial = 0
    return record


def sweep_cells(config: ExperimentConfig) -> list[ExperimentConfig]:
    """One config per (rule, batch size) pair of sweep.rules x sweep.batch_sizes,
    rule-major; an empty key sweeps the config's one value."""
    batch_sizes = config.sweep_batch_sizes or (config.batch_size,)
    rules = config.sweep_rules or (config.rule,)
    return [replace(config, rule=rule, batch_size=b) for rule in rules for b in batch_sizes]


def sweep(config: ExperimentConfig, seed: int = 0) -> tuple[list[RunRecord], str]:
    """Train every cell of sweep_cells(config) on one shared dataset."""
    dataset = build_dataset(config, seed)
    # Checked before any cell trains, so that the error names the sweep key.
    n_train = dataset.n_train(config.split)
    for b in config.sweep_batch_sizes:
        if b > n_train:
            raise ValueError(
                f"sweep.batch_sizes entry {b} exceeds the training split's {n_train} rows"
            )
    records = [train(cfg, seed, dataset=dataset) for cfg in sweep_cells(config)]
    return records, comparison_table(records)


def comparison_table(records: list[RunRecord]) -> str:
    """Rules as rows, batch sizes as columns, final test AUC (%) in the cells."""
    rules = list(dict.fromkeys(r.rule for r in records))
    sizes = sorted({r.batch_size for r in records})
    cells = {(r.rule, r.batch_size): r for r in records}
    width = max(10, *(len(rule) for rule in rules)) + 2
    out = ["AUC (%) by scaling rule and batch size"]
    out.append("".join(["rule".ljust(width)] + [str(b).rjust(10) for b in sizes]))
    for rule in rules:
        row = [rule.ljust(width)]
        for b in sizes:
            rec = cells.get((rule, b))
            if rec is None:
                row.append("-".rjust(10))
            elif rec.diverged:
                row.append("diverge".rjust(10))
            else:
                row.append(f"{100 * rec.final_auc:.2f}".rjust(10))
        out.append("".join(row))
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "run_id", "model", "rule", "batch_size", "epoch",
    "train_loss", "test_auc", "test_logloss", "seconds",
)


def records_to_csv(records: list[RunRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in records:
        for e in r.epochs:
            writer.writerow(
                [r.run_id, r.model_kind, r.rule, r.batch_size, e.epoch,
                 repr(e.train_loss), repr(e.test_auc), repr(e.test_logloss), repr(e.seconds)]
            )
    return buf.getvalue()


def strict_json(value) -> str:
    """Indented JSON that RFC 8259 parsers accept: a non-finite float, such as
    a diverged run's loss, is written as null."""
    def finite(v):
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(x) for x in v]
        return None if isinstance(v, float) and not math.isfinite(v) else v
    return json.dumps(finite(value), indent=2, allow_nan=False)


def write_reports(records: list[RunRecord], out_dir) -> None:
    """Write runs.csv, runs.json and runs.txt (the comparison table) into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "runs.csv").write_text(records_to_csv(records))
    (out / "runs.json").write_text(strict_json([r.to_dict() for r in records]))
    (out / "runs.txt").write_text(comparison_table(records) + "\n")


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

GRAD_CHECK_TOLERANCE = 1e-5


@dataclass
class GradCheckReport:
    model_kind: str
    n_trials: int
    max_rel_error: float
    per_tensor: dict[str, float]

    @property
    def passed(self) -> bool:
        return self.max_rel_error < GRAD_CHECK_TOLERANCE


def _tiny_setup(kind: str, rng: np.random.Generator):
    n_fields, vocab, dim, n_dense, b = 3, 5, 3, 2, 6
    fields = tuple(FieldSchema(f"c{j}", vocab) for j in range(n_fields))
    embed = init_table(fields, dim, init_sigma=0.4, seed=rng.integers(2**32), dtype=np.float64)
    model = init_model(kind, embed, n_dense, hidden=(8, 6), cross_depth=2,
                       seed=rng.integers(2**32))
    # First-order weights start at zero; randomize them so their gradients get exercised
    if model.first_order is not None:
        model.first_order.block[...] = rng.normal(0, 0.3, size=(n_fields * vocab, 1))
        model.lr_bias[...] = rng.normal(0, 0.3)
    batch = Batch(
        rng.integers(0, 2, size=b).astype(np.uint8),
        rng.normal(size=(b, n_dense)),
        rng.integers(0, vocab, size=(b, n_fields)),
    )
    return model, batch


def _total_loss(model: Model, batch: Batch) -> float:
    probs, _ = model_forward(model, batch)
    return metrics.logloss(probs, batch.labels)


def grad_check(model_kind: str, seed: int, n_trials: int = 10) -> GradCheckReport:
    """Central finite differences over every parameter, embeddings included.

    Relative error uses an absolute floor of 1e-3 in the denominator so that
    near-zero entries are compared absolutely.  Two kinds of configuration are
    resampled because they make double-precision central differences
    ill-conditioned: a pre-activation within 1e-6 of a ReLU kink, and a
    saturated output probability (|logit| > 8, where the cancellation inside
    log(1-p) drowns the difference quotient).

    The check builds float64 tensors although training runs in float32: at
    h = 1e-6, float32's rounding of a loss near 1 (about 6e-8) alone would
    put an error near 0.03 into the difference quotient, far above the 1e-5
    tolerance.  Every layer keeps its inputs' dtype, so this runs the
    trainer's code in float64.
    """
    if model_kind not in models.MODEL_KINDS:
        raise ValueError(f"unknown model kind {model_kind!r}")
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    rng = np.random.default_rng(seed)
    per_tensor: dict[str, float] = {}
    done = 0
    while done < n_trials:
        model, batch = _tiny_setup(model_kind, rng)
        probs, cache = model_forward(model, batch)
        # The pre-activations are recomputed from the layer inputs the cache keeps.
        pre = (h @ w + b for h, (w, b) in zip(cache.mlp_inputs, model.mlp[:-1]))
        kink = min((float(np.abs(z).min()) for z in pre), default=1.0)
        if kink < 1e-6 or float(np.max(np.abs(cache.logit))) > 8.0:
            continue
        done += 1
        _, dense_grads, sparse = models.loss_and_backward(probs, batch.labels, cache)
        tensors = dict(model.named_parameters())
        analytic = dict(dense_grads)
        for name, sg in sparse.items():
            analytic[name] = g = np.zeros_like(tensors[name])
            g[sg.row_block] = sg.grad_block
        for name, tensor in tensors.items():
            an = analytic[name]
            flat = tensor.reshape(-1)
            an_flat = np.asarray(an).reshape(-1)
            worst = per_tensor.get(name, 0.0)
            for i in range(flat.size):
                h = 1e-6 * max(1.0, abs(flat[i]))
                orig = flat[i]
                flat[i] = orig + h
                up = _total_loss(model, batch)
                flat[i] = orig - h
                down = _total_loss(model, batch)
                flat[i] = orig
                fd = (up - down) / (2 * h)
                err = abs(fd - an_flat[i]) / max(abs(fd), abs(an_flat[i]), 1e-3)
                worst = max(worst, err)
            per_tensor[name] = worst
    overall = max(per_tensor.values())
    return GradCheckReport(model_kind, n_trials, overall, per_tensor)


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------
# Each suite is the one implementation of its derivation check: `ctrlab
# verify` runs it, and so do acceptance criteria 02, 05, 07 and 08.

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class VerifyReport:
    checks: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [
            f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in self.checks
        ]


def _check_adam_equivalence(seed: int) -> CheckResult:
    cells = [(c, s) for c in (2.0, 10.0, 100.0) for s in (seed, seed + 1)]
    worst_adam = max(
        optim.verify_adam_scaling_equivalence(c, l2=1e-4, steps=200, seed=s, eps=1e-12)
        for c, s in cells
    )
    worst_sgd = max(
        optim.verify_sgd_scaling_equivalence(c, l2=1e-4, steps=200, seed=s) for c, s in cells
    )
    ok = worst_adam < 1e-6 and worst_sgd <= 1e-15
    return CheckResult(
        "adam-equivalence", ok,
        f"adam divergence {worst_adam:.2e} (< 1e-6), sgd {worst_sgd:.2e} (<= 1e-15)",
    )


def _check_presence_prob(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    n = 200_000
    worst_sigma = worst_rel = 0.0
    ok = True
    for p in (1e-4, 1e-2, 0.5):
        for b in (64, 4096):
            exact = batch_presence_probability(p, b, "exact")
            emp = float(np.mean(rng.binomial(b, p, size=n) > 0))
            se = math.sqrt(exact * (1 - exact) / n)
            if se == 0.0:
                # A certain (or impossible) presence must be met exactly.
                ok = ok and emp == exact
            else:
                sigma = abs(emp - exact) / se
                worst_sigma = max(worst_sigma, sigma)
                ok = ok and sigma <= 3.0
            if b * p <= 0.1:
                rel = abs(batch_presence_probability(p, b, "approx") - exact) / exact
                worst_rel = max(worst_rel, rel)
                ok = ok and rel < 0.06
    return CheckResult(
        "presence-prob", ok,
        f"worst Monte Carlo deviation {worst_sigma:.2f} sigma (<= 3); b*p approximation "
        f"off by {100 * worst_rel:.2f}% (< 6%) wherever b*p <= 0.1",
    )


def _check_sgd_covariance(seed: int) -> CheckResult:
    problem = scaling.QuadraticProblem(dim=5, n_data=512, seed=seed)
    cov_a = scaling.estimate_update_covariance(problem, b=8, eta=1e-2, n_trials=10_000, seed=seed + 1)
    cov_b = scaling.estimate_update_covariance(problem, b=32, eta=2e-2, n_trials=10_000, seed=seed + 2)
    ratio = float(np.trace(cov_b) / np.trace(cov_a))
    ok = 0.9 <= ratio <= 1.1
    return CheckResult("sgd-covariance", ok, f"(4b, 2eta) / (b, eta) trace ratio {ratio:.4f} in [0.9, 1.1]")


def _check_update_frequency(seed: int) -> CheckResult:
    p, b, s, eta = 1e-4, 64, 16, 1e-3
    fixed = scaling.expected_update_frequency_check(p, b, s, eta, n_trials=200_000, seed=seed)
    naive = scaling.expected_update_frequency_check(
        p, b, s, eta, n_trials=200_000, seed=seed + 1, eta_big=s * eta
    )
    ok = 0.9 <= fixed <= 1.1 and 0.85 * s <= naive <= 1.15 * s
    return CheckResult(
        "update-frequency", ok,
        f"fixed-lr ratio {fixed:.3f} in [0.9, 1.1]; naive-linear {naive:.2f} in [{0.85*s:.1f}, {1.15*s:.1f}]",
    )


_VERIFY_SUITES = {
    "adam-equivalence": _check_adam_equivalence,
    "presence-prob": _check_presence_prob,
    "sgd-covariance": _check_sgd_covariance,
    "update-frequency": _check_update_frequency,
}


def verify(suites: tuple[str, ...] = (), seed: int = 0) -> VerifyReport:
    """Run the named verification suites (all of them when empty)."""
    names = suites or tuple(_VERIFY_SUITES)
    unknown = [n for n in names if n not in _VERIFY_SUITES]
    if unknown:
        raise ValueError(f"unknown verification suite(s): {', '.join(unknown)}")
    return VerifyReport([_VERIFY_SUITES[n](seed) for n in names])
