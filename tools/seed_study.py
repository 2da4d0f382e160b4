"""Rerun the criterion 6/7 acceptance protocol on victim seeds other than the pinned one.

    python3 tools/seed_study.py [--victim-seeds 20-39]

Criteria 6 (held-out AUC mean >= 0.85) and 7 (every EA-transfer AUC >= 0.90)
of tests/test_acceptance.py run on one victim, trained at the pinned seed 10.
This script repeats their protocol, as tests/conftest.py and
tests/test_acceptance.py set it up, once per victim seed drawn here: the same
data, attack corpus, EA batch, bank fit and cascade seeds 2-6, only the
victim's training seed differs. It prints one line per draw with the per-
cascade-seed AUCs and the shares of held-out box adversarials and of EA
images that exit at stage 1 (as normal), and then the share of draws meeting
each criterion's rule, so a pinned-seed flip after a rounding change can be
read against its base rate. The program is imported from ./src of the
checkout this script lives in. One draw takes 12-21 s on a 2-core host.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# The protocol's own constants (tests/conftest.py, tests/test_acceptance.py).
DATA_SEED, CORPUS_SEED, PINNED_VICTIM_SEED = 11, 13, 10
CASCADE_SEEDS = (2, 3, 4, 5, 6)


def victim_seeds(text: str) -> list[int]:
    """The draws of --victim-seeds: LO-HI or a comma list of whole numbers,
    without the pinned seed; a malformed or, once it is removed, empty list
    is an argparse error (exit 2)."""
    try:
        if "-" in text:
            lo, hi = (int(part) for part in text.split("-"))
            seeds = list(range(lo, hi + 1))
        else:
            seeds = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not LO-HI or a comma list of whole numbers") from None
    seeds = [s for s in seeds if s != PINNED_VICTIM_SEED]
    if not seeds:
        raise argparse.ArgumentTypeError(
            f"{text!r} names no victim seed other than the pinned {PINNED_VICTIM_SEED}")
    return seeds


def _figures(values) -> str:
    return ", ".join(f"{a:.3f}" for a in values) or "-"


def draw(victim_seed: int) -> dict:
    """Criterion 6 and 7 AUCs, and the box and EA stage-1 exit shares, one per
    cascade seed, for a victim trained at victim_seed."""
    from cascade_guard.attacks import (AttackConfig, choose_targets,
                                       evolutionary_attack_batch, gradient_box_attack_batch)
    from cascade_guard.cascade import CascadeConfig, roc_auc, score_batch, train_cascade
    from cascade_guard.dataio import synth_dataset
    from cascade_guard.featstats import fit_pca_bank, stat_matrix
    from cascade_guard.victim import (TrainConfig, _forward_chunks, default_victim_spec,
                                      layer_outputs_batch, predict_batch, train_victim)

    net = train_victim(synth_dataset(DATA_SEED, 200), default_victim_spec(),
                       TrainConfig(epochs=12, seed=victim_seed))
    bank = synth_dataset(CORPUS_SEED, 340)
    sources, labels = bank.images[:1400], bank.labels[:1400]
    targets = choose_targets(predict_batch(net, sources)[0], "random-other",
                             np.random.default_rng(101))
    records = []
    for start in range(0, len(sources), 200):
        records.extend(gradient_box_attack_batch(
            net, sources[start : start + 200], targets[start : start + 200], AttackConfig(),
            source_ids=np.arange(start, start + 200),
            original_labels=labels[start : start + 200]))
    successful = [r for r in records if r.success]
    normal_bank = bank.images[1400:3400]
    pool = normal_bank[:500]
    banks = fit_pca_bank(  # from the 64-image capture stream that fit-detector fits from
        lambda: (captured for _, _, captured in _forward_chunks(net, pool, capture_conv=True)))[0]
    ea = evolutionary_attack_batch(net, [t % 10 for t in range(150)],
                                   AttackConfig(kind="evolutionary", seed=202))
    ea_imgs = np.stack([r.image.array for r in ea if r.success])

    def stat_rows(images):
        return [stat_matrix(layer, bank)
                for layer, bank in zip(layer_outputs_batch(net, images), banks)]

    result = {"victim_seed": victim_seed, "accuracy": net.metadata["test_accuracy"],
              "successful": len(successful), "ea_successful": len(ea_imgs),
              "auc": [], "ea_auc": [], "box_stage1": [], "ea_stage1": []}
    if len(successful) < 1300:  # the protocol's corpus floor
        return result
    for seed in CASCADE_SEEDS:
        rng = np.random.default_rng(1000 + seed)
        adv_order = rng.permutation(len(successful))
        train_advs = np.stack([successful[i].image.array for i in adv_order[:1000]])
        hold_advs = np.stack([successful[i].image.array for i in adv_order[1000:1300]])
        norm_order = rng.permutation(len(normal_bank))
        pool, holdout = normal_bank[norm_order[:1500]], normal_bank[norm_order[1500:2000]]
        model = train_cascade(stat_rows(pool), stat_rows(train_advs), banks,
                              CascadeConfig(seed=seed))
        normal_scores = score_batch(model, net, holdout).score
        for key, share, advs in (("auc", "box_stage1", hold_advs),
                                 ("ea_auc", "ea_stage1", ea_imgs)):
            record = score_batch(model, net, advs)
            scores = np.concatenate([normal_scores, record.score])
            is_adv = np.arange(len(scores)) >= len(holdout)
            result[key].append(roc_auc(scores, is_adv).auc)
            result[share].append(float((record.exit_stage == 1).mean()))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--victim-seeds", type=victim_seeds, default="20-39",
                        help=f"LO-HI or a comma list; the pinned {PINNED_VICTIM_SEED} is skipped")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    seeds = args.victim_seeds
    meets6 = meets7 = 0
    for victim_seed in seeds:
        t0 = time.perf_counter()
        r = draw(victim_seed)
        ok6 = bool(r["auc"]) and float(np.mean(r["auc"])) >= 0.85
        ok7 = bool(r["ea_auc"]) and all(a >= 0.90 for a in r["ea_auc"])
        meets6 += ok6
        meets7 += ok7
        print(f"victim seed {victim_seed}: test accuracy {r['accuracy']:.3f}, "
              f"{r['successful']} successful box attacks, {r['ea_successful']} EA; "
              f"criterion 6 AUC {_figures(r['auc'])} ({'meets' if ok6 else 'misses'}); "
              f"criterion 7 AUC {_figures(r['ea_auc'])} ({'meets' if ok7 else 'misses'}); "
              f"stage-1 exit share box {_figures(r['box_stage1'])}, "
              f"EA {_figures(r['ea_stage1'])}; "
              f"{time.perf_counter() - t0:.0f}s", flush=True)
    print(f"criterion 6 rule (mean AUC >= 0.85) met on {meets6} of {len(seeds)} draws; "
          f"criterion 7 rule (every AUC >= 0.90) met on {meets7} of {len(seeds)} draws")
    return 0


if __name__ == "__main__":
    sys.exit(main())
