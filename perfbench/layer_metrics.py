"""Which cascade_guard functions the traced run wraps, and the per-layer metrics.

Every metric listed in PER_LAYER is emitted by every traced run; a module
that does no work on a workload reads zero. `_s` metrics are inclusive wall
time of the outermost calls of that function; `cli.glue_s` is the self time
of the command spans (parsing and glue around the library calls).
"""
from __future__ import annotations

import hashlib

import numpy as np

LAYER_NAMES = ("conv1", "relu1", "pool1", "conv2", "relu2", "pool2", "dense")
COMMANDS = ("synth-data", "train-victim", "attack", "fit-detector", "evaluate",
            "recover", "selfaware")


def _per_layer_table():
    rows = []
    for layer in LAYER_NAMES:
        rows += [(f"tensor.{layer}.fwd_ms", "ms", "lower"),
                 (f"tensor.{layer}.bwd_ms", "ms", "lower"),
                 (f"tensor.{layer}.mflop", "MFLOP-computed", "lower"),
                 (f"tensor.{layer}.mbytes", "MB-computed", "lower")]
    rows += [
        ("autograd.forward_calls", "count", "lower"),
        ("autograd.forward_rows", "count", "lower"),
        ("autograd.forward_s", "s", "lower"),
        ("autograd.backward_calls", "count", "lower"),
        ("autograd.backward_s", "s", "lower"),
        ("autograd.rows_per_call", "rows/call", "higher"),
        ("victim.train_victim_s", "s", "lower"),
        ("victim.predict_batch_calls", "count", "lower"),
        ("victim.predict_batch_s", "s", "lower"),
        ("victim.layer_outputs_batch_calls", "count", "lower"),
        ("victim.layer_outputs_batch_s", "s", "lower"),
        ("victim.forward_rows_per_image", "rows/image", "lower"),
        ("attacks.box_s", "s", "lower"),
        ("attacks.box_iterations", "count", "lower"),
        ("attacks.box_rows_stepped", "count", "lower"),
        ("attacks.box_success_share", "share", "higher"),
        ("attacks.ea_s", "s", "lower"),
        ("attacks.ea_generations", "count", "lower"),
        ("attacks.ea_predict_calls", "count", "lower"),
        ("featstats.fit_pca_bank_s", "s", "lower"),
        ("featstats.stat_matrix_s", "s", "lower"),
        ("featstats.stat_rows.l1", "count", "lower"),
        ("featstats.stat_rows.l2", "count", "lower"),
        ("featstats.feature_matrix_s", "s", "lower"),
        ("cascade.train_svm_calls", "count", "lower"),
        ("cascade.train_svm_s", "s", "lower"),
        ("cascade.train_cascade_s", "s", "lower"),
        ("cascade.score_calls", "count", "lower"),
        ("cascade.score_s", "s", "lower"),
        ("cascade.roc_auc_s", "s", "lower"),
        ("cascade.best_threshold_s", "s", "lower"),
        ("cascade.stage1_exit_share.normal", "share", "higher"),
        ("cascade.stage1_exit_share.adversarial", "share", "lower"),
        ("cascade.l2_rows_useful_share", "share", "higher"),
        ("selfaware.error_table_s", "s", "lower"),
        ("selfaware.calibrate_omega_s", "s", "lower"),
        ("selfaware.sweep_s", "s", "lower"),
        ("recovery.average_filter_calls", "count", "lower"),
        ("recovery.average_filter_s", "s", "lower"),
        ("recovery.eval_s", "s", "lower"),
        ("dataio.synth_dataset_s", "s", "lower"),
        ("dataio.save_s", "s", "lower"),
        ("dataio.load_s", "s", "lower"),
        ("dataio.artifact_mb", "MB", "lower"),
    ]
    rows += [(f"cli.{c.replace('-', '_')}_s", "s", "lower") for c in COMMANDS]
    rows += [("cli.glue_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return rows


PER_LAYER = _per_layer_table()


class DistinctRows:
    """Distinct forward_pass input images per top-level span (command or stream)."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.by_root: dict[int, set] = {}

    def add(self, batch):
        seen = self.by_root.setdefault(self.tracer.root(), set())
        arr = np.ascontiguousarray(batch, dtype=np.float64)
        for row in arr.reshape(len(arr), -1):
            seen.add(hashlib.blake2b(row.tobytes(), digest_size=16).digest())

    def total(self) -> int:
        return sum(len(s) for s in self.by_root.values())


def targets(cg, distinct: DistinctRows):
    """(module, attribute, span name, before, after) for spans.patched."""

    def forward_before(layers, weights, x, *a, **k):
        distinct.add(x)
        return {"rows": int(np.shape(x)[0])}

    def rows_of_second(_first, images, *a, **k):
        return {"rows": int(len(images))}

    def stat_before(layer_batch, bank, *a, **k):
        return {"rows": int(layer_batch.shape[0]), "layer": int(bank.layer_index)}

    def records_after(records):
        return {"records": len(records), "successes": int(sum(r.success for r in records)),
                "generations": int(sum(r.iterations for r in records))}

    def reached_l2(result):
        _, exit_stage, _ = result
        return {"rows": int(len(exit_stage)), "reached_l2": int((exit_stage != 1).sum())}

    out = [
        (cg.autograd, "forward_pass", "autograd.forward_pass", forward_before, None),
        (cg.autograd, "backward_pass", "autograd.backward_pass", None, None),
        (cg.victim, "train_victim", "victim.train_victim", None, None),
        (cg.victim, "predict_batch", "victim.predict_batch", rows_of_second, None),
        (cg.victim, "layer_outputs_batch", "victim.layer_outputs_batch", rows_of_second, None),
        (cg.attacks, "gradient_box_attack_batch", "attacks.box", None, records_after),
        (cg.attacks, "evolutionary_attack_batch", "attacks.ea", None, records_after),
        (cg.featstats, "fit_pca_bank", "featstats.fit_pca_bank", None, None),
        (cg.featstats, "stat_matrix", "featstats.stat_matrix", stat_before, None),
        (cg.featstats, "feature_matrix", "featstats.feature_matrix", None, None),
        (cg.cascade, "train_svm", "cascade.train_svm", None, None),
        (cg.cascade, "train_cascade", "cascade.train_cascade", None, None),
        (cg.cascade, "cascade_predict_batch", "cascade.score", None, reached_l2),
        (cg.cascade, "detector_score_batch", "cascade.score", None, None),
        (cg.cascade, "roc_auc", "cascade.roc_auc", None, None),
        (cg.cascade, "best_threshold_accuracy", "cascade.best_threshold", None, None),
        (cg.selfaware, "ErrorTable.from_validation", "selfaware.error_table", None, None),
        (cg.selfaware, "calibrate_omega", "selfaware.calibrate_omega", None, None),
        (cg.selfaware, "selfaware_sweep", "selfaware.sweep", None, None),
        (cg.recovery, "average_filter", "recovery.average_filter", None, None),
        (cg.recovery, "recovery_eval", "recovery.eval", None, None),
        (cg.dataio, "synth_dataset", "dataio.synth_dataset", None, None),
    ]
    for attr in ("save_dataset", "save_network", "save_detector", "save_adversarial_batch",
                 "save_tensor"):
        out.append((cg.dataio, attr, "dataio.save", None, None))
    for attr in ("load_dataset", "load_idx", "load_network", "load_detector",
                 "load_adversarial_batch", "load_tensor"):
        out.append((cg.dataio, attr, "dataio.load", None, None))
    return out


def derive(tracer, distinct: DistinctRows, extra: dict) -> dict:
    """Per-layer metric values from the spans of one traced pass.

    extra supplies what the spans cannot: the tensor replay figures, the
    stream's stage-1 exit shares, artifact_mb and trace.overhead_s.
    """
    spans = tracer.spans
    names = [s.name for s in spans]

    def has_ancestor(i, name):
        return any(names[a] == name for a in tracer.ancestors(i))

    def idx(name, under=None):
        return [i for i, n in enumerate(names)
                if n == name and (under is None or has_ancestor(i, under))]

    def calls(name, under=None):
        return len(idx(name, under))

    def seconds(name):
        return sum(spans[i].seconds for i in idx(name) if not has_ancestor(i, name))

    def attr_sum(ids, key):
        return sum(spans[i].attrs.get(key, 0) for i in ids)

    def ratio(num, den):
        return num / den if den else 0.0

    fwd = idx("autograd.forward_pass")
    fwd_rows = attr_sum(fwd, "rows")
    box = idx("attacks.box")
    stats = idx("featstats.stat_matrix")
    predicts = [i for i in idx("cascade.score") if "reached_l2" in spans[i].attrs]
    l2_rows_in_predicts = sum(
        spans[i].attrs["rows"] for i in stats
        if spans[i].attrs["layer"] == 2 and any(a in predicts for a in tracer.ancestors(i)))
    selfs = tracer.self_seconds()
    values = {
        "autograd.forward_calls": len(fwd),
        "autograd.forward_rows": fwd_rows,
        "autograd.forward_s": seconds("autograd.forward_pass"),
        "autograd.backward_calls": calls("autograd.backward_pass"),
        "autograd.backward_s": seconds("autograd.backward_pass"),
        "autograd.rows_per_call": ratio(fwd_rows, len(fwd)),
        "victim.train_victim_s": seconds("victim.train_victim"),
        "victim.predict_batch_calls": calls("victim.predict_batch"),
        "victim.predict_batch_s": seconds("victim.predict_batch"),
        "victim.layer_outputs_batch_calls": calls("victim.layer_outputs_batch"),
        "victim.layer_outputs_batch_s": seconds("victim.layer_outputs_batch"),
        "victim.forward_rows_per_image": ratio(fwd_rows, distinct.total()),
        "attacks.box_s": seconds("attacks.box"),
        "attacks.box_iterations": calls("autograd.forward_pass", under="attacks.box"),
        "attacks.box_rows_stepped": attr_sum(idx("autograd.forward_pass", under="attacks.box"),
                                             "rows"),
        "attacks.box_success_share": ratio(attr_sum(box, "successes"),
                                           attr_sum(box, "records")),
        "attacks.ea_s": seconds("attacks.ea"),
        "attacks.ea_generations": attr_sum(idx("attacks.ea"), "generations"),
        "attacks.ea_predict_calls": calls("victim.predict_batch", under="attacks.ea"),
        "featstats.fit_pca_bank_s": seconds("featstats.fit_pca_bank"),
        "featstats.stat_matrix_s": seconds("featstats.stat_matrix"),
        "featstats.stat_rows.l1": sum(spans[i].attrs["rows"] for i in stats
                                      if spans[i].attrs["layer"] == 1),
        "featstats.stat_rows.l2": sum(spans[i].attrs["rows"] for i in stats
                                      if spans[i].attrs["layer"] == 2),
        "featstats.feature_matrix_s": seconds("featstats.feature_matrix"),
        "cascade.train_svm_calls": calls("cascade.train_svm"),
        "cascade.train_svm_s": seconds("cascade.train_svm"),
        "cascade.train_cascade_s": seconds("cascade.train_cascade"),
        "cascade.score_calls": calls("cascade.score"),
        "cascade.score_s": seconds("cascade.score"),
        "cascade.roc_auc_s": seconds("cascade.roc_auc"),
        "cascade.best_threshold_s": seconds("cascade.best_threshold"),
        "cascade.l2_rows_useful_share": ratio(attr_sum(predicts, "reached_l2"),
                                              l2_rows_in_predicts),
        "selfaware.error_table_s": seconds("selfaware.error_table"),
        "selfaware.calibrate_omega_s": seconds("selfaware.calibrate_omega"),
        "selfaware.sweep_s": seconds("selfaware.sweep"),
        "recovery.average_filter_calls": calls("recovery.average_filter"),
        "recovery.average_filter_s": seconds("recovery.average_filter"),
        "recovery.eval_s": seconds("recovery.eval"),
        "dataio.synth_dataset_s": seconds("dataio.synth_dataset"),
        "dataio.save_s": seconds("dataio.save"),
        "dataio.load_s": seconds("dataio.load"),
        "cli.glue_s": sum(selfs[i] for i, n in enumerate(names) if n.startswith("cli.")),
    }
    for command in COMMANDS:
        key = f"cli.{command.replace('-', '_')}_s"
        values[key] = seconds(key[:-2])
    values.update(extra)
    missing = [name for name, _, _ in PER_LAYER if name not in values]
    if missing:
        raise KeyError(f"per-layer metrics without a value: {missing}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in PER_LAYER}
