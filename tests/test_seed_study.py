"""tools/seed_study.py's --victim-seeds domain: a malformed or empty draw list exits 2."""
import importlib.util
from pathlib import Path

import pytest


def load_seed_study():
    path = Path(__file__).resolve().parents[1] / "tools" / "seed_study.py"
    spec = importlib.util.spec_from_file_location("seed_study", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


seed_study = load_seed_study()


@pytest.mark.parametrize("text, seeds", [("20-23", [20, 21, 22, 23]), ("9-11", [9, 11]),
                                         ("9,10,11", [9, 11]), ("20", [20])])
def test_draws_skip_the_pinned_seed(text, seeds):
    assert seed_study.victim_seeds(text) == seeds


@pytest.mark.parametrize("text", ["10", "20-", "-3", "3-1", "x", "", "20,,21", "1-2-3"])
def test_malformed_or_empty_list_exits_2_before_any_draw(text, monkeypatch, capsys):
    monkeypatch.setattr(seed_study, "draw", lambda seed: pytest.fail("a draw ran"))
    with pytest.raises(SystemExit) as exc:
        seed_study.main(["--victim-seeds", text])
    assert exc.value.code == 2
    assert "--victim-seeds" in capsys.readouterr().err
