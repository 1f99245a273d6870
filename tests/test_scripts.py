import importlib.util
import json
import sys
from pathlib import Path

import pytest

from pdecontrol import control_net as cn

from test_config_cli import HEAT_CFG

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the scripts prepend src/
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_script_imports_and_prints_help(name, monkeypatch, capsys):
    module = _load(name, monkeypatch)
    monkeypatch.setattr(sys, "argv", [name, "--help"])
    with pytest.raises(SystemExit) as exc:
        module.main()
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_run_preset_runs_the_whole_schedule_and_verifies(tmp_path, monkeypatch):
    schedule = [{"lr": 1e-2, "max_steps": 12}, {"lr": 1e-3, "max_steps": 8}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(HEAT_CFG, train=dict(HEAT_CFG["train"], schedule=schedule))))
    out = tmp_path / "out"
    assert _load("run_preset.py", monkeypatch).main(["--config", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["totals"]["passed"]
    assert len(cn.read_loss_history(out / "curves" / "loss_history.bin")) == 20
    assert sorted(p.name for p in (out / "curves").glob("errors_*.bin")) == ["errors_000.bin", "errors_001.bin"]
