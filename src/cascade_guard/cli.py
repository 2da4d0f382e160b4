"""Pipeline orchestration: one subcommand per phase, reproducible via seeds.

Exit codes: 0 success, 1 validation error, 2 runtime failure. Errors print a
single machine-parsable line "ERROR <code>: <message>" on stderr. Each flag's
argparse type is its domain, checked before anything loads. A --config file
of key=value lines may set a command's optional flags, not its required
paths; its values meet the same domains and command-line values win. An
unreadable file, an unknown key or a bad value exits 1.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import dataio
from .attacks import (
    ATTACK_KINDS,
    TARGET_POLICIES,
    AttackConfig,
    choose_targets,
    evolutionary_attack_batch,
    gradient_box_attack_batch,
    gradient_sign_attack_batch,
)
from .autograd import DenseLayer
from .cascade import (
    CascadeConfig,
    _batch_scores,
    _detector_scores_and_argmax,
    accuracy_at_threshold,
    best_threshold_accuracy,
    detector_score_batch,
    roc_auc,
    train_cascade,
)
from .errors import ValidationError
from .featstats import fit_pca_bank, spectral_report
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
    _chunked_forward,
    default_victim_spec,
    layer_outputs_batch,
    predict_batch,
    prediction_census,
    train_victim,
)


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


# ---------------------------------------------------------------------------
# Flag domains: each is a flag's argparse type. argparse prefixes their
# messages with "argument --flag: " and runs them on config-file values too.
# ---------------------------------------------------------------------------

def _domain(rule, read, accepts=lambda value: True):
    """An argparse type: `read(text)` if that parses and `accepts` it, else fail with `rule`."""
    def domain(text):
        try:
            value = read(text)
            if accepts(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
    return domain


def _whole(least):
    return _domain(f"must be a whole number >= {least}", int, lambda v: v >= least)


def _positive(rule="must be a positive finite number"):
    return _domain(rule, float, lambda v: 0 < v < np.inf)


def _choice(name, options):
    def domain(text):
        if text not in options:
            raise argparse.ArgumentTypeError(
                f"unknown {name} {text!r} (choose from {', '.join(options)})")
        return text
    return domain


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
_BOOL = _domain("must be true or false", lambda text: _BOOLS.get(text.strip().lower()),
               lambda value: value is not None)
_SPLIT = _choice("split", dataio.SPLIT_TAGS)
_COSTS = "costs must be positive and finite"


def _ea_range(text):
    """LO:HI:COUNT as COUNT evenly spaced abstain costs from LO to HI."""
    lo, hi, count = (float(v) for v in text.split(":"))
    if not (0 < lo < np.inf and 0 < hi < np.inf and count >= 1 and count.is_integer()):
        raise ValueError(text)
    return np.linspace(lo, hi, int(count))


def _load_spec(spec_arg):
    if spec_arg == "default":
        return default_victim_spec()
    payload = dataio._load_json(spec_arg)
    return dataio.spec_from_json(payload, spec_arg)


# Images per gradient-attack call, the unit of work of a --threads worker.
# Every image is attacked on its own bytes, so no output depends on it.
_ATTACK_CHUNK = 32
# The default --threads caps the usable CPUs here, so that at most
# 4 * _ATTACK_CHUNK = 128 gradient-attack images are in flight.
_DEFAULT_THREADS_CAP = 4


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_chunks(worker, chunks, threads):
    """[worker(c) for c in chunks], on up to `threads` threads; a loop on one."""
    threads = min(threads, len(chunks))
    if threads <= 1:
        return [worker(c) for c in chunks]
    _one_malloc_arena()
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
    net = dataio.load_network(args.net)
    ds = dataio.load_dataset(args.data)
    rng = np.random.default_rng(args.seed)
    if args.kind == "evolutionary":
        targets = rng.integers(0, net.spec.classes, size=args.n)
        run = functools.partial(_run_chunks, threads=args.threads)
        records = evolutionary_attack_batch(net, targets, cfg, run=run) if args.n else []
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

        def worker(start):
            rows = slice(start, start + _ATTACK_CHUNK)
            return attack_fn(net, sources[rows], targets[rows], cfg,
                             source_ids=pick[rows], original_labels=labels[pick[rows]])

        starts = range(0, args.n, _ATTACK_CHUNK)
        records = [r for part in _run_chunks(worker, starts, args.threads) for r in part]
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
    allocated before, so without trims fit-detector's peak memory varied by
    up to a sixth between runs on the same inputs.
    """
    try:
        malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return
    malloc_trim(0)


# glibc's mallopt parameters for the most arenas malloc may create, and for
# the size from which it serves a buffer by mmap; 128 KiB is glibc's default.
_M_ARENA_MAX = -8
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 128 * 1024


def _one_malloc_arena():
    """Serve every thread's buffers from glibc's one main heap, and every
    buffer from 128 KiB up by mmap; a no-op off glibc.

    By default glibc gives each new thread an arena of its own, which keeps
    the pages of the buffers freed in it. With two attack threads that raised
    the peak memory of a process that attacks and then fits a detector by
    about 8%, and a malloc_trim after the pool did not bring it back. A
    thread takes its arena at its first allocation, so the cap is set before
    the pool starts.

    glibc also raises its mmap threshold to the size of each mmapped buffer
    it frees, so later buffers up to that size come from the shared heap.
    Which holes two threads then leave in it depends on how their steps
    interleave: the attack benchmark's peak memory moved by up to 7 MB from
    run to run on the same inputs. A fixed threshold returns every large
    buffer's pages when it is freed, and the peak moved by about 1 MB.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_ARENA_MAX, 1)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)


def _cmd_fit_detector(args):
    config = CascadeConfig(target_tpr=args.target_tpr, svm_c=args.c, seed=args.seed)
    net = dataio.load_network(args.net)
    normals = dataio.load_dataset(args.normals)
    records, adv_images = _adversarial_images(args.adversarials, args.successful_only)
    pool, _ = _split_images(normals, args.split)
    fingerprint = dataio.dataset_fingerprint(normals)
    # Inputs are dropped once forwarded, the large pool first, and the heap
    # is trimmed before each large step, so no step runs beside dead arrays
    # or freed pages. The banks are fitted on the pool's activations after
    # both forwards: the fit leaves the activations as they are and holds a
    # few 16,384-row blocks beside them, but the buffers its threaded BLAS
    # products keep (about 2 MB) would otherwise sit under the second
    # forward's peak.
    del normals
    _trim_heap()
    pool_layers = layer_outputs_batch(net, pool)
    del pool
    _trim_heap()
    adv_layers = layer_outputs_batch(net, adv_images)
    del records, adv_images
    _trim_heap()
    banks = [fit_pca_bank(layer, m + 1) for m, layer in enumerate(pool_layers)]
    _trim_heap()
    model = train_cascade(pool_layers, adv_layers, banks, config)
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
    ts = args.thresholds
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
        return _chunked_forward(net, images, depth=head)[0].reshape(len(images), -1)
    batch = layer_outputs_batch(net, images)[layer - 1]
    return batch.reshape(len(batch), -1)


def _cmd_spectral(args):
    layer = args.layer
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
    net = dataio.load_network(args.net)
    model = dataio.load_detector(args.detector)
    records, images = _adversarial_images(args.adversarials)
    labeled = [i for i, r in enumerate(records) if r.original_label is not None]
    if not labeled:
        raise ValidationError("no records carry an original label")
    # One forward pass gives the flags and the victim's pre-filter labels.
    exit_stage, _, pre_labels = _batch_scores(model, net, images[labeled])
    flagged = np.nonzero(exit_stage < 0)[0]
    if not flagged.size:
        raise ValidationError("detector flagged no records to recover")
    report = recovery_eval(net, [records[labeled[i]] for i in flagged],
                           pre_labels[flagged], args.k)
    _write_csv(args.out_csv,
               ("attack_kind", "k", "n", "pre_acc", "post_acc"),
               [(report.kind, report.k, report.n,
                 _fmt(report.pre_accuracy), _fmt(report.post_accuracy))])
    print(f"recovered {report.post_accuracy:.3f} from {report.pre_accuracy:.3f} "
          f"on {report.n} flagged records (k={report.k})")
    return 0


def _cmd_selfaware(args):
    normals_path, adv_path = args.mixture
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
                             e_q, args.ea_range)
    rows = [(_fmt(p.e_a), _fmt(p.abstain_fraction), _fmt(p.retained_accuracy),
             _fmt(p.expected_loss)) for p in points]
    _write_csv(args.out_csv,
               ("e_a", "abstain_fraction", "retained_accuracy", "expected_loss"), rows)
    print(f"wrote {len(points)}-point abstention sweep to {args.out_csv}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------

def _optional_flags(command):
    """A command parser's optional flags, as config-file key -> argparse action."""
    return {a.option_strings[0][2:]: a for a in command._actions
            if a.option_strings and not a.required and a.dest not in ("help", "config")}


def _parse(parser, argv):
    """Parse argv; a --config file's values become the command's string defaults.

    Each file value meets its flag's type here, also where argv gives the flag
    and argparse would never convert the default.
    """
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        text = Path(args.config).read_text("utf-8")
    except (OSError, UnicodeError) as exc:
        raise ValidationError(f"cannot read config file {args.config}: "
                              f"{getattr(exc, 'strerror', None) or exc}") from None
    command = args.command_parser
    flags = _optional_flags(command)
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        where = f"config file {args.config} line {lineno}"
        if not sep:
            raise ValidationError(f"{where} is not key=value: {line!r}")
        if key not in flags:
            raise ValidationError(f"{where}: {key!r} is not an optional flag of {command.prog}")
        action = flags[key]
        if action.type is not None:
            try:
                action.type(value)
            except argparse.ArgumentTypeError as exc:
                raise ValidationError(f"{where}: argument --{key}: {exc}") from None
        command.set_defaults(**{action.dest: value})
    return parser.parse_args(argv)


def _build_parser():
    parser = _Parser(prog="cascade-guard",
                     description="Victim training, attacks, detection, abstention, recovery.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, *required):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=fn, command_parser=p)
        p.add_argument("--config", help="key=value file setting the command's optional flags")
        for flag in required:
            p.add_argument(flag, required=True)
        return p

    p = command("synth-data", _cmd_synth_data, "generate the bundled synthetic dataset",
                "--out")
    p.add_argument("--seed", type=_whole(0), default=0)
    p.add_argument("--n-per-class", type=_whole(1), default=200)

    p = command("train-victim", _cmd_train_victim, "train the victim CNN", "--data", "--out")
    p.add_argument("--spec", default="default")
    p.add_argument("--seed", type=_whole(0), default=0)
    p.add_argument("--epochs", type=_whole(1), default=12)
    p.add_argument("--learning-rate", type=_positive(), default=0.05)
    p.add_argument("--batch-size", type=_whole(1), default=32)

    p = command("attack", _cmd_attack, "generate an adversarial batch",
                "--net", "--data", "--out")
    p.add_argument("--kind", type=_choice("attack kind", ATTACK_KINDS), default="gradient-box")
    p.add_argument("--n", type=_whole(0), default=100)
    p.add_argument("--seed", type=_whole(0), default=0)
    p.add_argument("--split", type=_SPLIT, default="test")
    p.add_argument("--target-policy", type=_choice("target policy", TARGET_POLICIES),
                   default="random-other")
    p.add_argument("--c", type=_positive(), default=0.05)
    p.add_argument("--step-size", type=_domain("must be a finite number >= 0", float,
                                               lambda v: 0 <= v < np.inf), default=0.02)
    p.add_argument("--iterations", type=_whole(0), default=300)
    p.add_argument("--confidence-goal", type=_domain("confidence goal must lie in (0, 1)",
                                                     float, lambda v: 0 < v < 1), default=0.9)
    p.add_argument("--population", type=_whole(2), default=50)
    p.add_argument("--generations", type=_whole(0), default=500)
    p.add_argument("--mutation-rate", type=_domain("mutation rate must lie in (0, 1]",
                                                   float, lambda v: 0 < v <= 1), default=0.1)
    p.add_argument("--mutation-std", type=_positive(), default=0.1)
    p.add_argument("--threads", type=_whole(1),
                   default=min(_usable_cpus(), _DEFAULT_THREADS_CAP))

    p = command("fit-detector", _cmd_fit_detector, "train the cascade detector",
                "--net", "--normals", "--adversarials", "--out")
    p.add_argument("--split", type=_SPLIT, default="train")
    p.add_argument("--target-tpr", type=_domain("target TPR must lie in (0, 1]", float,
                                                lambda v: 0 < v <= 1), default=0.97)
    p.add_argument("--c", type=_positive("svm C must be a positive finite number"),
                   default=0.005)
    p.add_argument("--seed", type=_whole(0), default=0)
    p.add_argument("--successful-only", type=_BOOL, default=True)

    p = command("evaluate", _cmd_evaluate, "ROC/AUC and accuracies of a detector",
                "--detector", "--net", "--normals", "--adversarials", "--out-csv")
    p.add_argument("--split", type=_SPLIT, default="test")
    p.add_argument("--successful-only", type=_BOOL, default=True)

    p = command("census", _cmd_census, "above-threshold prediction counts",
                "--net", "--normals", "--out-csv")
    p.add_argument("--adversarials", default=None)
    p.add_argument("--split", type=_SPLIT, default="test")
    p.add_argument("--thresholds", default="", type=_domain(
        "must be comma-separated finite numbers",
        lambda text: np.array([float(v) for v in text.split(",")]) if text else None,
        lambda ts: ts is None or np.isfinite(ts).all()))

    p = command("spectral", _cmd_spectral, "eigenvector extrema/std comparison",
                "--net", "--normals", "--adversarials", "--out-csv")
    p.add_argument("--split", type=_SPLIT, default="test")
    p.add_argument("--layer", default="penultimate", type=_domain(
        "must be 'penultimate' or a conv layer number >= 1",
        lambda text: text if text == "penultimate" else int(text),
        lambda layer: layer == "penultimate" or layer >= 1))

    p = command("recover", _cmd_recover, "average-filter recovery report",
                "--detector", "--net", "--adversarials", "--out-csv")
    p.add_argument("--k", type=_domain("must be an odd whole number >= 1", int,
                                       lambda k: k >= 1 and k % 2 == 1), default=3)

    p = command("selfaware", _cmd_selfaware, "abstention sweep over e_a",
                "--detector", "--net", "--out-csv")
    p.add_argument("--mixture", required=True,
                   help="DATASET_DIR,ADV_BATCH_DIR forming the test mixture",
                   type=_domain("must be DATASET_DIR,ADV_BATCH_DIR",
                                lambda text: tuple(text.split(",", 1)), lambda v: len(v) == 2))
    p.add_argument("--split", type=_SPLIT, default="test")
    p.add_argument("--eq", type=_positive(_COSTS), default=10.0)
    p.add_argument("--eq-random-guess", type=_BOOL, default=False,
                   help="use the uniform-guessing cost (C-1)/C instead of --eq")
    p.add_argument("--ea-range", default="2:8:13", type=_domain(
        f"must be LO:HI:COUNT with COUNT a whole number >= 1 ({_COSTS})", _ea_range))

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = _parse(parser, argv)
        return args.func(args) or 0
    except ValidationError as exc:
        print(f"ERROR 1: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures keep the exit-code contract
        print(f"ERROR 2: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
