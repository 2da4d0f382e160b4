"""Pipeline orchestration: one subcommand per phase, reproducible via seeds.

Exit codes: 0 success, 1 validation error, 2 runtime failure. Errors print a
single machine-parsable line "ERROR <code>: <message>" on stderr. A config
file of key=value lines may supply any long flag; explicit command-line
values win.
"""
from __future__ import annotations

import argparse
import ctypes
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import dataio
from .attacks import (
    AttackConfig,
    choose_targets,
    evolutionary_attack_batch,
    gradient_box_attack_batch,
    gradient_sign_attack_batch,
)
from .autograd import DenseLayer
from .cascade import (
    CascadeConfig,
    _detector_scores_and_argmax,
    accuracy_at_threshold,
    best_threshold_accuracy,
    cascade_predict_batch,
    detector_score_batch,
    roc_auc,
    train_cascade,
)
from .errors import CascadeGuardError, ValidationError
from .featstats import spectral_report
from .recovery import recovery_eval
from .selfaware import (
    ErrorTable,
    calibrate_omega,
    random_guess_error,
    selfaware_sweep,
)
from .victim import (
    TrainConfig,
    _census_table,
    _forward_chunks,
    default_victim_spec,
    layer_outputs_batch,
    predict_batch,
    prediction_census,
    train_victim,
)

_UNSET = object()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path, header, rows, footer_lines=()):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, (str, int)) else _fmt(v) for v in row))
    lines.extend(footer_lines)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_config(path) -> dict:
    values = {}
    text = Path(path).read_text("utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno} is not key=value: {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _parse_bool(raw) -> bool:
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"expected a boolean, got {raw!r}")


def _resolve(args, spec_table):
    """Fill _UNSET options from the config file, then from hard defaults."""
    config = {}
    if getattr(args, "config", None):
        config = _read_config(args.config)
    for dest, (flag, typ, default) in spec_table.items():
        if getattr(args, dest, _UNSET) is not _UNSET:
            continue
        setattr(args, dest, typ(config[flag]) if flag in config else default)
    return args


def _opt(parser, table, flag, *, type=str, default=None, help=None):
    if type is bool:
        type = _parse_bool
    dest = flag.lstrip("-").replace("-", "_")
    parser.add_argument(flag, dest=dest, type=type, default=_UNSET, help=help)
    table[dest] = (flag.lstrip("-"), type, default)


def _load_spec(spec_arg):
    if spec_arg == "default":
        return default_victim_spec()
    payload = dataio._load_json(spec_arg)
    return dataio.spec_from_json(payload, spec_arg)


def _chunked(n, size):
    for start in range(0, n, size):
        yield start, min(start + size, n)


def _run_chunks(worker, chunks, threads):
    if threads <= 1:
        return [worker(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, chunks))


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def _cmd_synth_data(args):
    ds = dataio.synth_dataset(args.seed, args.n_per_class)
    dataio.save_dataset(ds, args.out)
    print(f"wrote {ds.n} images ({ds.classes} classes) to {args.out}")
    return 0


def _cmd_train_victim(args):
    ds = dataio.load_dataset(args.data)
    spec = _load_spec(args.spec)
    hyper = TrainConfig(epochs=args.epochs, learning_rate=args.learning_rate,
                        batch_size=args.batch_size, seed=args.seed)
    net = train_victim(ds, spec, hyper)
    dataio.save_network(args.out, net)
    train_acc = net.metadata["train_accuracy"]
    test_acc = net.metadata["test_accuracy"]
    print(f"train_accuracy={train_acc:.4f}")
    print(f"test_accuracy={'nan' if test_acc is None else f'{test_acc:.4f}'}")
    return 0


def _split_images(ds, split):
    images, labels = ds.split(split)
    if len(images) == 0:
        raise ValidationError(f"split {split!r} of the dataset is empty")
    return images, labels


def _adversarial_images(path, successful_only=False):
    """The records of an adversarial batch and their (N, H, W, C) image stack."""
    records = dataio.load_adversarial_batch(path)
    if successful_only:
        records = [r for r in records if r.success]
    if not records:
        raise ValidationError(f"adversarial batch {path} has no records to use")
    return records, np.stack([r.image.array for r in records])


def _cmd_attack(args):
    cfg = AttackConfig(
        kind=args.kind, target_policy=args.target_policy, c=args.c,
        step_size=args.step_size, max_iterations=args.iterations,
        confidence_goal=args.confidence_goal, seed=args.seed,
        population=args.population, generations=args.generations,
        mutation_rate=args.mutation_rate, mutation_std=args.mutation_std,
    )
    if args.n < 0:
        raise ValidationError("--n must be non-negative")
    if args.chunk < 1:
        raise ValidationError(f"--chunk must be positive, got {args.chunk}")
    if args.threads < 1:
        raise ValidationError(f"--threads must be positive, got {args.threads}")
    net = dataio.load_network(args.net)
    ds = dataio.load_dataset(args.data)
    rng = np.random.default_rng(args.seed)
    if args.kind == "evolutionary":
        targets = rng.integers(0, net.spec.classes, size=args.n)
        records = evolutionary_attack_batch(net, targets, cfg) if args.n else []
    else:
        images, labels = _split_images(ds, args.split)
        if args.n > len(images):
            raise ValidationError(f"--n {args.n} exceeds {len(images)} images in the split")
        pick = rng.choice(len(images), size=args.n, replace=False)
        sources = images[pick]
        raw, _, _ = predict_batch(net, sources) if args.n else (np.zeros((0, 1)), None, None)
        targets = choose_targets(raw, cfg.target_policy, rng) \
            if args.n else np.zeros(0, dtype=np.int64)
        attack_fn = (gradient_box_attack_batch if args.kind == "gradient-box"
                     else gradient_sign_attack_batch)
        records = []
        chunks = list(_chunked(args.n, args.chunk))

        def worker(bounds):
            lo, hi = bounds
            return attack_fn(net, sources[lo:hi], targets[lo:hi], cfg,
                             source_ids=pick[lo:hi], original_labels=labels[pick[lo:hi]])

        for part in _run_chunks(worker, chunks, args.threads):
            records.extend(part)
    meta = {"kind": args.kind, "seed": args.seed, "n": args.n,
            "confidence_goal": cfg.confidence_goal, "c": cfg.c,
            "step_size": cfg.step_size, "iterations": cfg.max_iterations}
    dataio.save_adversarial_batch(args.out, records, meta)
    successes = sum(r.success for r in records)
    print(f"wrote {len(records)} records ({successes} successful) to {args.out}")
    return 0


def _trim_heap():
    """Return the C heap's free pages to the system; a no-op off glibc.

    glibc serves buffers below its mmap threshold, which rises as large
    buffers are freed, from one heap and keeps their pages after they are
    freed. How many of those pages later buffers reuse depends on everything
    allocated before, so without a trim here the fit's peak memory varied by
    up to a sixth between runs on the same inputs.
    """
    try:
        malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return
    malloc_trim(0)


def _cmd_fit_detector(args):
    config = CascadeConfig(target_tpr=args.target_tpr, svm_c=args.c, seed=args.seed)
    net = dataio.load_network(args.net)
    normals = dataio.load_dataset(args.normals)
    records, adv_images = _adversarial_images(args.adversarials, args.successful_only)
    pool, _ = _split_images(normals, args.split)
    fingerprint = dataio.dataset_fingerprint(normals)
    # Each input is dropped once forwarded, the large pool first, so no
    # forward runs beside arrays that are no longer needed. train_cascade
    # fits each bank in place on the activations.
    del normals
    pool_layers = layer_outputs_batch(net, pool)
    del pool
    adv_layers = layer_outputs_batch(net, adv_images)
    del records, adv_images
    _trim_heap()
    model = train_cascade(pool_layers, adv_layers, config=config)
    model.metadata["normals_fingerprint"] = fingerprint
    dataio.save_detector(args.out, model)
    rates = ", ".join(f"stage{s.layer_index}: fpr={s.fpr:.3f} tpr={s.tpr:.3f}"
                      for s in model.stages)
    print(f"trained {len(model.stages)}-stage cascade ({rates})")
    return 0


def _scores_and_labels(model, net, normal_images, adv_images):
    scores = np.concatenate([
        detector_score_batch(model, net, normal_images),
        detector_score_batch(model, net, adv_images),
    ])
    labels = np.concatenate([
        np.zeros(len(normal_images), dtype=bool),
        np.ones(len(adv_images), dtype=bool),
    ])
    return scores, labels


def _cmd_evaluate(args):
    net = dataio.load_network(args.net)
    model = dataio.load_detector(args.detector)
    normals = dataio.load_dataset(args.normals)
    _, adv_images = _adversarial_images(args.adversarials, args.successful_only)
    images, _ = _split_images(normals, args.split)
    scores, labels = _scores_and_labels(model, net, images, adv_images)
    curve = roc_auc(scores, labels)
    acc_calibrated = accuracy_at_threshold(scores, labels, 0.0)
    _, acc_best = best_threshold_accuracy(scores, labels)
    rows = [(_fmt(t), _fmt(f), _fmt(tp))
            for t, f, tp in zip(curve.thresholds, curve.fpr, curve.tpr)]
    footer = [f"# summary auc={_fmt(curve.auc)} acc_calibrated={_fmt(acc_calibrated)} "
              f"acc_best={_fmt(acc_best)} n_normal={len(images)} n_adversarial={len(adv_images)}"]
    _write_csv(args.out_csv, ("threshold", "fpr", "tpr"), rows, footer)
    print(f"auc={curve.auc:.4f} acc_calibrated={acc_calibrated:.4f} acc_best={acc_best:.4f}")
    return 0


def _cmd_census(args):
    ts = None
    if args.thresholds:
        try:
            ts = np.array([float(v) for v in args.thresholds.split(",")])
            if not np.isfinite(ts).all():
                raise ValueError
        except ValueError:
            raise ValidationError(f"--thresholds takes comma-separated finite numbers, "
                                  f"got {args.thresholds!r}") from None
    net = dataio.load_network(args.net)
    normals = dataio.load_dataset(args.normals)
    images, _ = _split_images(normals, args.split)
    raw, probs, _ = predict_batch(net, images)
    if ts is None:
        ts = np.linspace(raw.min(), raw.max(), 25)
    table = _census_table(raw, probs, ts)
    header = ["threshold", "normal_raw_mean", "normal_softmax_mean"]
    columns = [table.thresholds, table.raw_mean_counts, table.softmax_mean_counts]
    if args.adversarials:
        _, adv_images = _adversarial_images(args.adversarials)
        adv_table = prediction_census(net, adv_images, ts)
        header += ["adv_raw_mean", "adv_softmax_mean"]
        columns += [adv_table.raw_mean_counts, adv_table.softmax_mean_counts]
    rows = [tuple(col[i] for col in columns) for i in range(len(ts))]
    _write_csv(args.out_csv, header, rows)
    print(f"wrote census over {len(ts)} thresholds to {args.out_csv}")
    return 0


def _flat_layer_features(net, images, layer):
    """Rows of flattened activations: the first dense layer's input, or conv m."""
    if layer == "penultimate":
        spec = net.spec
        head = next((i for i, l in enumerate(spec.layers) if isinstance(l, DenseLayer)), None)
        if head is None:
            raise ValidationError("network has no dense layer to take features from")
        return np.concatenate([a.reshape(len(a), -1) for a in _forward_chunks(
            spec.layers[:head], net.weights[:head], images)])
    batch = layer_outputs_batch(net, images)[layer - 1]
    return batch.reshape(len(batch), -1)


def _cmd_spectral(args):
    layer = args.layer
    if layer != "penultimate":
        try:
            layer = int(layer)
            if layer < 1:
                raise ValueError
        except ValueError:
            raise ValidationError(f"--layer takes 'penultimate' or a conv layer number "
                                  f">= 1, got {args.layer!r}") from None
    net = dataio.load_network(args.net)
    if layer != "penultimate" and layer > net.spec.conv_count:
        raise ValidationError(f"conv layer {layer} out of range (1..{net.spec.conv_count})")
    normals = dataio.load_dataset(args.normals)
    _, adv_images = _adversarial_images(args.adversarials)
    images, _ = _split_images(normals, args.split)
    xn = _flat_layer_features(net, images, layer)
    xa = _flat_layer_features(net, adv_images, layer)
    report = spectral_report(xn, xa)
    rows = [
        (i, _fmt(report.eigenvalues[i]), _fmt(report.normal_extremal[i]),
         _fmt(report.adversarial_extremal[i]), _fmt(report.normal_std[i]),
         _fmt(report.adversarial_std[i]))
        for i in range(len(report.eigenvalues))
    ]
    _write_csv(args.out_csv,
               ("eigenvector", "eigenvalue", "normal_extremal", "adv_extremal",
                "normal_std", "adv_std"), rows)
    print(f"wrote spectral table ({len(rows)} eigenvectors) to {args.out_csv}")
    return 0


def _cmd_recover(args):
    # Fail before anything is loaded; average_filter checks k again.
    if args.k < 1 or args.k % 2 == 0:
        raise ValidationError(f"--k must be odd and at least 1, got {args.k}")
    net = dataio.load_network(args.net)
    model = dataio.load_detector(args.detector)
    records, images = _adversarial_images(args.adversarials)
    labeled = [i for i, r in enumerate(records) if r.original_label is not None]
    if not labeled:
        raise ValidationError("no records carry an original label")
    flagged, _, _ = cascade_predict_batch(model, net, images[labeled])
    chosen = [records[i] for i, f in zip(labeled, flagged) if f]
    if not chosen:
        raise ValidationError("detector flagged no records to recover")
    report = recovery_eval(net, chosen, args.k)
    _write_csv(args.out_csv,
               ("attack_kind", "k", "n", "pre_acc", "post_acc"),
               [(report.kind, report.k, report.n,
                 _fmt(report.pre_accuracy), _fmt(report.post_accuracy))])
    print(f"recovered {report.post_accuracy:.3f} from {report.pre_accuracy:.3f} "
          f"on {report.n} flagged records (k={report.k})")
    return 0


def _cmd_selfaware(args):
    try:
        normals_path, adv_path = args.mixture.split(",", 1)
    except ValueError:
        raise ValidationError("--mixture takes DATASET_DIR,ADV_BATCH_DIR") from None
    try:
        lo, hi, count = (float(v) for v in args.ea_range.split(":"))
        if not (count >= 1 and count.is_integer()):
            raise ValueError
    except ValueError:
        raise ValidationError(f"--ea-range takes LO:HI:COUNT (numbers, COUNT a whole "
                              f"number >= 1), got {args.ea_range!r}") from None
    e_a_values = np.linspace(lo, hi, int(count))
    # Fail before anything is loaded; selfaware_sweep checks the costs again.
    if not ((args.eq_random_guess or args.eq > 0) and (e_a_values > 0).all()):
        raise ValidationError("costs must be positive")
    net = dataio.load_network(args.net)
    model = dataio.load_detector(args.detector)
    normals = dataio.load_dataset(normals_path)
    records, adv_images = _adversarial_images(adv_path)
    images, labels = _split_images(normals, args.split)
    val_images, val_labels = _split_images(normals, "val")
    table = ErrorTable.from_validation(net, val_images, val_labels)
    batch = np.concatenate([images, adv_images])
    is_adv = np.arange(len(batch)) >= len(images)
    true_labels = np.concatenate([labels, [
        -1 if r.original_label is None else r.original_label for r in records]])
    scores, predicted = _detector_scores_and_argmax(model, net, batch)
    calibration = calibrate_omega(scores, is_adv)
    e_q = random_guess_error(net.spec.classes) if args.eq_random_guess else args.eq
    points = selfaware_sweep(scores, predicted, is_adv, true_labels, calibration, table,
                             e_q, e_a_values)
    rows = [(_fmt(p.e_a), _fmt(p.abstain_fraction), _fmt(p.retained_accuracy),
             _fmt(p.expected_loss)) for p in points]
    _write_csv(args.out_csv,
               ("e_a", "abstain_fraction", "retained_accuracy", "expected_loss"), rows)
    print(f"wrote {len(points)}-point abstention sweep to {args.out_csv}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------

def _build_parser():
    parser = _Parser(prog="cascade-guard",
                     description="Victim training, attacks, detection, abstention, recovery.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=fn, _table={})
        p.add_argument("--config", default=None,
                       help="key=value file supplying defaults for any flag")
        return p, p.get_default("_table")

    p, t = command("synth-data", _cmd_synth_data, "generate the bundled synthetic dataset")
    _opt(p, t, "--seed", type=int, default=0)
    _opt(p, t, "--n-per-class", type=int, default=200)
    p.add_argument("--out", required=True)

    p, t = command("train-victim", _cmd_train_victim, "train the victim CNN")
    p.add_argument("--data", required=True)
    _opt(p, t, "--spec", type=str, default="default")
    _opt(p, t, "--seed", type=int, default=0)
    _opt(p, t, "--epochs", type=int, default=12)
    _opt(p, t, "--learning-rate", type=float, default=0.05)
    _opt(p, t, "--batch-size", type=int, default=32)
    p.add_argument("--out", required=True)

    p, t = command("attack", _cmd_attack, "generate an adversarial batch")
    p.add_argument("--net", required=True)
    p.add_argument("--data", required=True)
    _opt(p, t, "--kind", type=str, default="gradient-box")
    _opt(p, t, "--n", type=int, default=100)
    _opt(p, t, "--seed", type=int, default=0)
    _opt(p, t, "--split", type=str, default="test")
    _opt(p, t, "--target-policy", type=str, default="random-other")
    _opt(p, t, "--c", type=float, default=0.05)
    _opt(p, t, "--step-size", type=float, default=0.02)
    _opt(p, t, "--iterations", type=int, default=300)
    _opt(p, t, "--confidence-goal", type=float, default=0.9)
    _opt(p, t, "--population", type=int, default=50)
    _opt(p, t, "--generations", type=int, default=500)
    _opt(p, t, "--mutation-rate", type=float, default=0.1)
    _opt(p, t, "--mutation-std", type=float, default=0.1)
    _opt(p, t, "--chunk", type=int, default=128)
    _opt(p, t, "--threads", type=int, default=1)
    p.add_argument("--out", required=True)

    p, t = command("fit-detector", _cmd_fit_detector, "train the cascade detector")
    p.add_argument("--net", required=True)
    p.add_argument("--normals", required=True)
    p.add_argument("--adversarials", required=True)
    _opt(p, t, "--split", type=str, default="train")
    _opt(p, t, "--target-tpr", type=float, default=0.97)
    _opt(p, t, "--c", type=float, default=0.005)
    _opt(p, t, "--seed", type=int, default=0)
    _opt(p, t, "--successful-only", type=bool, default=True)
    p.add_argument("--out", required=True)

    p, t = command("evaluate", _cmd_evaluate, "ROC/AUC and accuracies of a detector")
    p.add_argument("--detector", required=True)
    p.add_argument("--net", required=True)
    p.add_argument("--normals", required=True)
    p.add_argument("--adversarials", required=True)
    _opt(p, t, "--split", type=str, default="test")
    _opt(p, t, "--successful-only", type=bool, default=True)
    p.add_argument("--out-csv", required=True)

    p, t = command("census", _cmd_census, "above-threshold prediction counts")
    p.add_argument("--net", required=True)
    p.add_argument("--normals", required=True)
    p.add_argument("--adversarials", default=None)
    _opt(p, t, "--split", type=str, default="test")
    _opt(p, t, "--thresholds", type=str, default="")
    p.add_argument("--out-csv", required=True)

    p, t = command("spectral", _cmd_spectral, "eigenvector extrema/std comparison")
    p.add_argument("--net", required=True)
    p.add_argument("--normals", required=True)
    p.add_argument("--adversarials", required=True)
    _opt(p, t, "--split", type=str, default="test")
    _opt(p, t, "--layer", type=str, default="penultimate")
    p.add_argument("--out-csv", required=True)

    p, t = command("recover", _cmd_recover, "average-filter recovery report")
    p.add_argument("--detector", required=True)
    p.add_argument("--net", required=True)
    p.add_argument("--adversarials", required=True)
    _opt(p, t, "--k", type=int, default=3)
    p.add_argument("--out-csv", required=True)

    p, t = command("selfaware", _cmd_selfaware, "abstention sweep over e_a")
    p.add_argument("--detector", required=True)
    p.add_argument("--net", required=True)
    p.add_argument("--mixture", required=True,
                   help="DATASET_DIR,ADV_BATCH_DIR forming the test mixture")
    _opt(p, t, "--split", type=str, default="test")
    _opt(p, t, "--eq", type=float, default=10.0)
    _opt(p, t, "--eq-random-guess", type=bool, default=False,
         help="use the uniform-guessing cost (C-1)/C instead of --eq")
    _opt(p, t, "--ea-range", type=str, default="2:8:13")
    p.add_argument("--out-csv", required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _resolve(args, args._table)
        return args.func(args) or 0
    except ValidationError as exc:
        print(f"ERROR 1: {exc}", file=sys.stderr)
        return 1
    except CascadeGuardError as exc:
        print(f"ERROR 2: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures keep the exit-code contract
        print(f"ERROR 2: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
