"""Run the README desk pipeline in-process and print one sha256 per output file.

    python3 tools/desk_digest.py > digest.txt

The program is imported from ./src of the checkout this script lives in. Every
command runs through cascade_guard.cli.main inside a temporary directory that
is removed afterwards; the commands' own messages go to stderr, so stdout holds
only "<sha256>  <path>" lines, sorted by path. Two checkouts whose digests
match wrote byte-identical datasets, networks, adversarial batches, detectors
and CSVs. The pipeline takes about 6 s on a 2-core host.
"""
from __future__ import annotations

import contextlib
import hashlib
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The thirteen commands of the README walkthrough, plus the spectral table of
# conv layer 2, which the walkthrough does not print.
PIPELINE = (
    "synth-data --seed 11 --n-per-class 200 --out data/victim",
    "synth-data --seed 13 --n-per-class 200 --out data/bank",
    "train-victim --data data/victim --seed 10 --out net.json",
    "attack --net net.json --data data/bank --split train --kind gradient-box"
    " --n 400 --seed 7 --out advs/train",
    "attack --net net.json --data data/bank --split val --kind gradient-box"
    " --n 200 --seed 9 --out advs/test",
    "attack --net net.json --data data/bank --kind evolutionary --n 50 --seed 11"
    " --out advs/ea",
    "fit-detector --net net.json --normals data/bank --split train"
    " --adversarials advs/train --target-tpr 0.97 --c 0.005 --seed 2 --out detector.json",
    "evaluate --detector detector.json --net net.json --normals data/bank --split test"
    " --adversarials advs/test --out-csv eval.csv",
    "evaluate --detector detector.json --net net.json --normals data/bank --split test"
    " --adversarials advs/ea --out-csv eval_ea.csv",
    "census --net net.json --normals data/bank --adversarials advs/test --out-csv census.csv",
    "spectral --net net.json --normals data/bank --adversarials advs/test"
    " --layer penultimate --out-csv spectral.csv",
    "spectral --net net.json --normals data/bank --adversarials advs/test"
    " --layer 2 --out-csv spectral_l2.csv",
    "recover --detector detector.json --net net.json --adversarials advs/test --k 3"
    " --out-csv recover.csv",
    "selfaware --detector detector.json --net net.json --mixture data/bank,advs/test"
    " --eq 10 --ea-range 2:8:13 --out-csv selfaware.csv",
)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from cascade_guard.cli import main as cli_main

    with tempfile.TemporaryDirectory(prefix="desk-digest-") as tmp:
        work = Path(tmp)
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(sys.stderr):
                for command in PIPELINE:
                    code = cli_main(shlex.split(command))
                    if code != 0:
                        print(f"error: exit {code} from: {command}", file=sys.stderr)
                        return code
        finally:
            os.chdir(cwd)
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(work).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
