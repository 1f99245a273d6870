import importlib.util
import inspect
import json
import os
import re
import shutil
import textwrap
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from pdecontrol import assembly, binfile, cli, config, control_net as cn, evolve, fit, pipeline, rom
from pdecontrol.errors import ConfigError, MissingArtifact

from conftest import artifact_header, cache_parts, gram_records, overflowing_net, settable_leaves

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ROOT / "configs"

HEAT_CFG = {
    "problem": {
        "kind": "heat",
        "horizon": 0.05,
    },
    "rom_arch": {
        "kind": "linear_basis",
        "n_modes": 2,
    },
    "control_arch": {"width": 8, "depth": 2},
    "theta_space": {"kind": "box", "half_width": 1.0},
    "counts": {"n_theta": 6, "n_x": 32, "n_traj": 2, "n_t": 4},
    "train": {"schedule": [{"lr": 0.01, "max_steps": 30}], "zeta": 0.1, "batch_size": 0, "stop_loss": 1e-9},
    "solve": {"n_steps": 8},
    "initials": {"count": 2, "eps0_target": 0.01, "fit_n_x": 64,
                 "fit": {"lr": 0.01, "max_steps": 400}},
    "seed": 3,
}


# a two-step schedule for runs that need a checkpoint, not a trained field
_TWO_STEPS = 'train.schedule=[{"lr": 0.001, "max_steps": 2}]'
# the arguments of a shrunk allen_cahn_2d run: one anchor, a 3-wide ROM, a two-step field
SHRUNK_AC = ["--config", str(PRESETS / "allen_cahn_2d.json")] + [
    arg for key in ("rom_arch.width=3", "control_arch.width=8", "counts.n_theta=4", "counts.n_x=16", "counts.n_traj=0",
                    "initials.count=1", "initials.fit_n_x=32", "initials.fit.max_steps=5", _TWO_STEPS,
                    "solve.n_steps=4")
    for arg in ("--set", key)]


@pytest.fixture
def heat_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(HEAT_CFG))
    return path


def test_load_and_defaults(heat_config, tmp_path):
    cfg = config.load_config(heat_config, out_dir=str(tmp_path / "out"))
    assert cfg.seed == 3
    assert cfg.raw["solve"] == {"n_steps": 8}
    assert cfg.rom_arch.input_dim == 1 and (cfg.rom_arch.lo, cfg.rom_arch.hi) == ((0.0,), (1.0,))
    assert rom.param_count(cfg.rom_arch) == 2
    assert cfg.control_arch.input_dim == 2


def test_schema_rejects_unknown_keys(tmp_path):
    doc = dict(HEAT_CFG)
    doc["bogus"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        config.load_config(path)


def test_schema_rejects_bad_values(tmp_path):
    for key, value in (("horizon", -1.0), ("kind", "wave")):
        doc = json.loads(json.dumps(HEAT_CFG))
        doc["problem"][key] = value
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            config.load_config(path)


@pytest.mark.parametrize("kind", ["array", "number", "directory", "not_utf8"])
def test_config_that_is_not_a_json_object_is_config_error(tmp_path, capsys, kind):
    # each used to end in a traceback (AttributeError, IsADirectoryError, UnicodeDecodeError)
    path = tmp_path / "cfg.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes({"array": b"[]", "number": b"3", "not_utf8": b'{"notes": "\xff"}'}[kind])
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override", [
    "seed=1.0", "counts.n_theta=16.0", "initials.count=1.0", "problem.horizon=NaN",
    pytest.param('train.schedule=[{"lr": NaN, "max_steps": 3}]', id="train.schedule.0.lr=NaN"),
    "theta_space.half_width=Infinity", "problem.velocity=[Infinity]",
])
def test_numbers_the_schema_let_through_are_config_errors(heat_config, tmp_path, capsys, override):
    # JSON's 1.0 passed as an integer and crashed later with a TypeError; NaN
    # passed every bound (a NaN horizon ran every stage to exit 0) and so did infinities
    path = PRESETS / "transport_1d.json" if override.startswith("problem.velocity") else heat_config
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--set", override]) == cli.EXIT_CONFIG
    assert "is not of type" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_seed_past_2_63_is_a_config_error(heat_config, tmp_path, capsys):
    # seed 2**64 + 5 used to load and draw exactly what seed 5 draws, while
    # every artifact header recorded the seed it was given
    assert cli.main(["verify", "--config", str(heat_config), "--out", str(tmp_path / "out"),
                     "--seed", "18446744073709551621"]) == cli.EXIT_CONFIG
    assert "config schema violation at seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_schema_errors_name_the_setting(heat_config, tmp_path, capsys):
    # the message used to be only "16.0 is not of type 'integer'", naming no key
    assert cli.main(["verify", "--config", str(heat_config), "--out", str(tmp_path / "out"),
                     "--set", "counts.n_theta=16.0"]) == cli.EXIT_CONFIG
    assert "config schema violation at counts.n_theta: 16.0 is not of type 'integer'" in capsys.readouterr().err
    with pytest.raises(ConfigError, match=r"^config schema violation at stage\.lr: nan is not of type 'number'$"):
        config.check_stage({"lr": float("nan"), "max_steps": 3})


def test_schema_is_valid_under_its_meta_schema():
    # load_config validates with prebuilt validators, which skip this check
    config._VALIDATOR.check_schema(config.SCHEMA)


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError):
        config.load_config(tmp_path / "nope.json")


def test_overrides(heat_config, tmp_path):
    cfg = config.load_config(
        heat_config,
        overrides=["counts.n_theta=9", 'train.schedule=[{"lr": 0.5, "max_steps": 4}]', 'problem.kind="heat"'],
        out_dir=str(tmp_path / "out"),
        seed=77,
    )
    assert cfg.raw["counts"]["n_theta"] == 9
    assert cfg.raw["train"]["schedule"] == [{"lr": 0.5, "max_steps": 4}]
    assert cfg.seed == 77


def test_override_parsing():
    key, value = config.parse_override("a.b.c=[1,2]")
    assert key == "a.b.c" and value == [1, 2]
    key, value = config.parse_override("x=plain-string")
    assert value == "plain-string"
    with pytest.raises(ConfigError):
        config.parse_override("missing-equals")


def test_full_pipeline_small(heat_config, tmp_path, monkeypatch):
    out = str(tmp_path / "out")
    cfg = config.load_config(heat_config, out_dir=out)
    report = pipeline.cmd_fit_initial(cfg)
    assert len(report) == 2
    stats = pipeline.cmd_sample_gram(cfg)
    assert stats["computed"] == 6
    stats = pipeline.cmd_gen_trajectories(cfg)
    assert stats["trajectories"] == 2
    stats = pipeline.cmd_train_control(cfg)
    assert stats["steps"] >= 1
    stats = pipeline.cmd_solve(cfg, anchor_index=0)
    assert os.path.exists(stats["path"])
    stats = pipeline.cmd_eval(cfg, anchor_index=0, n_x=512)
    assert os.path.exists(stats["path"])
    # 6 records: a full and a partial forward pass, one record per Gram chunk
    monkeypatch.setattr(cn, "_SCAN_ROWS", 4)
    monkeypatch.setattr(cn, "_CHUNK_BYTES", 1)
    assert cli.main(["verify", "--config", str(heat_config), "--out", out]) == 0
    report = json.loads(Path(out, "report.json").read_text())
    res = report["cache"]["residual"]
    assert report["cache"]["records"] == 6
    assert 0.0 <= res["p50"] <= res["p90"] <= res["max"] < np.inf
    cache, net = pipeline._read_gram_cache(cfg), pipeline._load_control(cfg)
    assert res["max"] == pytest.approx(cn.residual_scan(net, cache.records, cache.rows).max(), rel=1e-12)
    [anchor] = report["anchors"]
    assert anchor["anchor"] == 0 and anchor["blowup_step"] is None
    assert all(np.isfinite(anchor[k]) for k in ("m_v", "l_v", "euler_bound", "abs_err_max"))
    assert anchor["abs_err_max"] == stats["abs_err_max"]
    # the error curve's rows are (t, abs_err, rel_err), for the solution's theta rows
    header, rows = binfile.load(stats["path"], cfg.header("errors"))
    assert header["solution_sha256"] == binfile.digest(pipeline.load_solution(cfg, 0, pipeline._anchor(cfg, 0)[2]).thetas)
    assert rows.shape[1] == 3 and rows[:, 1].max() == stats["abs_err_max"]
    assert report["totals"] == {"blowups": 0, "escapes": 0, "passed": True}


def test_verify_residuals_are_the_gathered_scan_bit_for_bit(heat_config, tmp_path, monkeypatch):
    # the oracle gathers G and p of 256 records at a time and runs the field
    # on their thetas; verify streams the records three to a chunk
    cfg = _solved_run(heat_config, tmp_path / "out",
                      ["rom_arch.n_modes=6", "counts.n_theta=40", "counts.n_traj=0", _TWO_STEPS])
    cache = pipeline._read_gram_cache(cfg)
    monkeypatch.setattr(cn, "_CHUNK_BYTES", 3 * 8 * cache.records.shape[1])
    report = pipeline.cmd_verify(cfg)
    net = pipeline._load_control(cfg)
    theta, rhs, gram, _ = cache_parts(cache)

    def gathered_scan(rows):
        norms = []
        for i in range(0, rows.size, 256):
            idx = rows[i : i + 256]
            res = np.einsum("nij,nj->ni", gram[idx], cn.forward(net, theta[idx])) - rhs[idx]
            norms.append(np.linalg.norm(res, axis=1))
        return np.concatenate(norms)

    assert report["cache"]["records"] == cache.rows.size == 40
    want = np.quantile(gathered_scan(cache.rows), [0.5, 0.9, 1.0])
    assert np.array_equal([report["cache"]["residual"][k] for k in ("p50", "p90", "max")], want)
    rows = cache.rows[::3]  # and on a subset of the records, through residual_scan itself
    assert np.array_equal(cn.residual_scan(net, cache.records, rows), gathered_scan(rows))


def test_zero_field_solve_reproduces_fit_error(heat_config, tmp_path):
    # untrained (zero-init) control field: constant trajectory, so the error
    # at every time equals the fit-time error of theta0 against the decaying
    # reference at t=0 ... at t=0 specifically it must match the fit rmse.
    cfg = _solved_run(heat_config, tmp_path / "out", ['train.schedule=[{"lr": 1e-12, "max_steps": 1}]'])
    # the fit RMSE is read from the anchor store, its one record
    _, fit_rmse, theta0 = pipeline._anchor(cfg, 0)
    traj = pipeline.load_solution(cfg, 0, theta0)
    assert np.allclose(traj.thetas, traj.thetas[0], atol=1e-12)  # zero field
    stats = pipeline.cmd_eval(cfg, anchor_index=0, n_x=4096)
    _, curve = binfile.load(stats["path"], cfg.header("errors"))
    t0_abs = curve[0, 1]
    assert t0_abs <= 2.0 * max(fit_rmse, 1e-12)


def test_sample_gram_resume_noop(heat_config, tmp_path):
    out = str(tmp_path / "out")
    cfg = config.load_config(heat_config, out_dir=out)
    pipeline.cmd_sample_gram(cfg)
    payload = open(cfg.path("gram_cache"), "rb").read()
    stats = pipeline.cmd_sample_gram(cfg)
    assert stats["computed"] == 0
    assert open(cfg.path("gram_cache"), "rb").read() == payload


def test_cli_exit_codes(heat_config, tmp_path, capsys):
    out = str(tmp_path / "out")
    # config error
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["sample-gram", "--config", str(bad)]) == cli.EXIT_CONFIG
    # missing artifact: train before sampling
    assert cli.main(["train-control", "--config", str(heat_config), "--out", out]) == cli.EXIT_MISSING
    # happy path
    assert cli.main(["fit-initial", "--config", str(heat_config), "--out", out]) == 0
    assert cli.main(["sample-gram", "--config", str(heat_config), "--out", out]) == 0
    assert cli.main(["gen-trajectories", "--config", str(heat_config), "--out", out]) == 0
    assert cli.main(["train-control", "--config", str(heat_config), "--out", out]) == 0
    assert cli.main(["solve", "--config", str(heat_config), "--out", out, "--anchor", "0"]) == 0
    assert cli.main(["eval", "--config", str(heat_config), "--out", out, "--anchor", "0"]) == 0
    assert (
        cli.main(["export-slice", "--config", str(heat_config), "--out", out, "--anchor", "0", "--time", "0.01"])
        == cli.EXIT_CONFIG  # 1-D problem has no 2-D slice
    )
    # verify has no run to report on in an empty out dir
    empty = str(tmp_path / "empty")
    assert cli.main(["verify", "--config", str(heat_config), "--out", empty]) == cli.EXIT_MISSING
    capsys.readouterr()


def test_an_out_dir_that_cannot_be_made_is_a_config_error(heat_config, tmp_path, capsys):
    # an out dir that is a file is a config error, not a NotADirectoryError traceback (exit 1)
    taken = tmp_path / "taken"
    taken.write_text("a file")
    assert cli.main(["fit-initial", "--config", str(heat_config), "--out", str(taken)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"output directory {taken}{os.sep}" in err and "cannot be made" in err
    assert taken.read_text() == "a file"


def test_run_runs_the_whole_schedule_and_verifies(tmp_path, capsys):
    schedule = [{"lr": 1e-2, "max_steps": 12}, {"lr": 1e-3, "max_steps": 8}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(HEAT_CFG, train=dict(HEAT_CFG["train"], schedule=schedule))))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["totals"]["passed"]
    assert len(binfile.load(out / "curves" / "loss_history.bin", artifact_header("loss_history"))[1]) == 20
    assert sorted(p.name for p in (out / "curves").glob("errors_*.bin")) == ["errors_000.bin", "errors_001.bin"]
    commands = [line[3:] for line in capsys.readouterr().out.splitlines() if line.startswith("== ")]
    assert commands == ["fit-initial", "sample-gram", "gen-trajectories", "train-control",
                        *(f"{c} --anchor {k}" for k in (0, 1) for c in ("solve", "reference", "eval")), "verify"]


@pytest.mark.parametrize("n_eval", [0, -1, HEAT_CFG["initials"]["count"] + 1])
def test_run_rejects_eval_anchors_outside_the_store_before_any_command(n_eval, heat_config, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["run", "--config", str(heat_config), "--out", str(out), "--eval-anchors", str(n_eval)]
    assert cli.main(argv) == 2
    assert not out.exists()
    assert f"1..{HEAT_CFG['initials']['count']}" in capsys.readouterr().err


def test_run_forwards_set_and_seed_to_every_command(heat_config, tmp_path):
    out = tmp_path / "out"
    argv = ["run", "--config", str(heat_config), "--out", str(out), "--set", "counts.n_theta=4", "--seed", "5",
            "--eval-anchors", "1"]
    assert cli.main(argv) == 0
    cfg = config.load_config(heat_config, overrides=["counts.n_theta=4"], out_dir=str(out), seed=5)
    records = assembly._check_cache(cfg.path("gram_cache"), cfg.header("gram_cache"), pipeline._gram_thetas(cfg))[2]
    assert records.shape[0] == 4
    # each header records the seed and, from the checkpoint on, n_theta; a reader checks the record whole
    for name in ("anchors", "traj_cache", "checkpoint", "solution", "errors"):
        binfile.load_header(cfg.path(name, 0), cfg.header(name))
    assert json.loads((out / "report.json").read_text())["cache"]["records"] == 4
    assert not (out / "solutions" / "solution_001.bin").exists()


def test_verify_fails_on_blown_up_solve(heat_config, tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = _solved_run(heat_config, out)
    path = cfg.path("solution", 0)
    assert cli.main(["verify", "--config", str(heat_config), "--out", out]) == 0
    header, thetas = binfile.load(path, cfg.header("solution"))
    binfile.save(path, dict(header, blowup_step=3), thetas)
    assert cli.main(["verify", "--config", str(heat_config), "--out", out]) == cli.EXIT_VERIFY
    report = json.loads(Path(out, "report.json").read_text())
    assert report["anchors"][0]["blowup_step"] == 3
    assert report["totals"]["blowups"] == 1 and not report["totals"]["passed"]
    assert "BLEW UP at step 3" in capsys.readouterr().out


def test_verify_on_a_field_that_overflows_is_a_numeric_failure(heat_config, tmp_path, capsys):
    # the residual scan raises where it would have written nan quantiles
    out = str(tmp_path / "out")
    cfg = _solved_run(heat_config, out, [_TWO_STEPS])
    args = ["verify", "--config", str(heat_config), "--out", out, "--set", _TWO_STEPS]
    assert cli.main(args) == 0
    report = Path(out, "report.json").read_bytes()
    cn.save_control_checkpoint(overflowing_net(cfg.control_arch), cfg.path("checkpoint"), cfg.header("checkpoint"))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(args) == cli.EXIT_NUMERIC
    assert "control field evaluation overflowed" in capsys.readouterr().err
    assert Path(out, "report.json").read_bytes() == report


def test_allen_cahn_without_epsilon_is_config_error(capsys):
    problem = '{"kind":"allen_cahn","horizon":0.3}'
    args = ["fit-initial", "--config", str(PRESETS / "allen_cahn_2d.json"), "--set", f"problem={problem}"]
    assert cli.main(args) == cli.EXIT_CONFIG
    assert "'epsilon' is a required property" in capsys.readouterr().err


def test_zero_n_theta_is_config_error(heat_config, tmp_path, capsys):
    args = ["sample-gram", "--config", str(heat_config), "--out", str(tmp_path), "--set", "counts.n_theta=0"]
    assert cli.main(args) == cli.EXIT_CONFIG
    assert "0 is less than the minimum of 1" in capsys.readouterr().err


def test_spec_from_dict_roundtrip():
    specs = [
        fit.HeatCombo(np.array([0.1, 0.2, 0.3, 0.4])),
        fit.ChebCombo(terms=((1, 2, 0.5),)),
    ]
    for spec in specs:
        rebuilt = fit.spec_from_dict(spec.describe())
        assert rebuilt.describe() == spec.describe()
    # transport anchors have no spec, so random_theta is no longer a kind
    for doc in ({"kind": "closure", "label": "x"}, {"kind": "random_theta", "seed": 5}):
        with pytest.raises(ConfigError):
            fit.spec_from_dict(doc)


def test_overrides_do_not_leak_across_loads(heat_config, tmp_path):
    # initials.fit is a nested key the file omits: defaults fill it
    first = config.load_config(heat_config, overrides=["initials.fit.lr=0.5"], out_dir=str(tmp_path))
    assert first.raw["initials"]["fit"]["lr"] == 0.5
    second = config.load_config(heat_config, out_dir=str(tmp_path))
    assert second.raw["initials"]["fit"] == HEAT_CFG["initials"]["fit"]
    assert config._DEFAULTS["initials"]["fit"] == {"lr": 1e-3, "max_steps": 5000}


def test_train_control_uses_exactly_n_theta_records(heat_config, tmp_path):
    out = str(tmp_path / "out")
    cfg = config.load_config(heat_config, out_dir=out)
    pipeline.cmd_sample_gram(cfg)
    pipeline.cmd_gen_trajectories(cfg)
    fewer = config.load_config(heat_config, out_dir=out, overrides=["counts.n_theta=4"])
    assert pipeline.cmd_train_control(fewer)["records"] == 4
    more = config.load_config(heat_config, out_dir=out, overrides=["counts.n_theta=8"])
    with pytest.raises(MissingArtifact):
        pipeline.cmd_train_control(more)


def test_torn_gram_cache_exit_code_and_repair(heat_config, tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = config.load_config(heat_config, out_dir=out)
    pipeline.cmd_sample_gram(cfg)
    path = cfg.path("gram_cache")
    payload = Path(path).read_bytes()
    Path(path).write_bytes(payload[:-5])
    assert cli.main(["train-control", "--config", str(heat_config), "--out", out]) == cli.EXIT_NUMERIC
    assert "partly written" in capsys.readouterr().err
    stats = pipeline.cmd_sample_gram(cfg)
    assert stats["computed"] == 1
    assert Path(path).read_bytes() == payload


def test_resumed_training_continues_loss_history_steps(heat_config, tmp_path):
    out = str(tmp_path / "out")
    cfg = config.load_config(heat_config, out_dir=out)
    pipeline.cmd_sample_gram(cfg)
    pipeline.cmd_gen_trajectories(cfg)
    first = pipeline.cmd_train_control(cfg)
    second = pipeline.cmd_train_control(cfg, resume=True)
    path = Path(out, "curves", "loss_history.bin")
    header, _ = binfile.read_header(path, cfg.header("loss_history"))
    assert header["shape"] == [first["steps"] + second["steps"], 4]
    rows = binfile.load(path, cfg.header("loss_history"))[1]
    assert rows[:, 0].tolist() == list(range(1, first["steps"] + second["steps"] + 1))
    assert rows[first["steps"] - 1, 3] == first["final_loss"]
    assert rows[-1, 3] == second["final_loss"]


def test_resumed_training_checks_loss_history_before_it_trains(heat_config, tmp_path, capsys):
    # a torn history used to be found after training had replaced the checkpoint
    out = tmp_path / "out"
    base = ["--config", str(heat_config), "--out", str(out)]
    for command in ("sample-gram", "gen-trajectories", "train-control"):
        assert cli.main([command, *base]) == 0
    history = out / "curves" / "loss_history.bin"
    history.write_bytes(history.read_bytes()[:-7])
    checkpoint = out / "checkpoints" / "control.bin"
    payload = checkpoint.read_bytes()
    assert cli.main(["train-control", *base, "--resume"]) == cli.EXIT_NUMERIC
    assert "loss_history.bin" in capsys.readouterr().err
    assert checkpoint.read_bytes() == payload


@pytest.mark.parametrize("preset, overrides, message", [
    ("allen_cahn_2d.json", ["quadrature=gauss"], "('quadrature' was unexpected)"),
    ("allen_cahn_2d.json", ["initials.count=0"], "theta_space.kind 'anchor_balls' samples around the anchors; "
     "initials.count is 0"),
], ids=["gauss_2d", "no_anchors"])
def test_mismatched_settings_are_config_errors(tmp_path, capsys, preset, overrides, message):
    # each used to reach sample-gram and end in a ValueError traceback
    args = ["sample-gram", "--config", str(PRESETS / preset), "--out", str(tmp_path),
            "--set", "counts.n_theta=2", "--set", "counts.n_x=16"]
    assert cli.main(args + [arg for o in overrides for arg in ("--set", o)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "caches").exists()


_FAMILY_KEY = "Additional properties are not allowed ('family' was unexpected)"


@pytest.mark.parametrize("preset, overrides, message", [
    ("transport_1d.json", ['theta_space={"kind":"anchor_balls","radius":3.0}'],
     "transport draws its anchors from a box theta_space; theta_space.kind is 'anchor_balls'"),
    ("allen_cahn_2d.json", ["initials.family=random_theta"], _FAMILY_KEY),
    ("heat_fourier_1d.json", ["initials.family=random_theta"], _FAMILY_KEY),
    ("transport_1d.json", ['rom_arch={"kind":"resnet_zero_boundary","width":4,"depth":2}'],
     "problem.kind 'transport' needs the periodic kind 'resnet_periodic'; rom_arch.kind is 'resnet_zero_boundary'"),
    ("transport_1d.json", ['rom_arch={"kind":"linear_basis","n_modes":1}'],
     "problem.kind 'transport' needs the periodic kind 'resnet_periodic'; rom_arch.kind is 'linear_basis'"),
    ("heat_fourier_1d.json", ['rom_arch={"kind":"resnet_periodic","width":4,"depth":2}'],
     "problem.kind 'heat' needs a zero-boundary kind ('resnet_zero_boundary' or 'linear_basis'); "
     "rom_arch.kind is 'resnet_periodic'"),
    ("allen_cahn_2d.json", ['rom_arch={"kind":"resnet_periodic","width":4,"depth":2}'],
     "problem.kind 'allen_cahn' needs a zero-boundary kind ('resnet_zero_boundary' or 'linear_basis'); "
     "rom_arch.kind is 'resnet_periodic'"),
], ids=["random_theta_anchor_balls", "random_theta_allen_cahn", "random_theta_heat", "transport_zero_boundary",
        "transport_linear_basis", "heat_periodic", "allen_cahn_periodic"])
def test_combinations_no_reference_serves_are_config_errors(tmp_path, capsys, preset, overrides, message):
    # each used to fail late or not at all: random_theta on anchor balls sent
    # fit-initial to its own output (exit 3), on allen_cahn reference was a
    # ValueError traceback, random_theta on heat ran every stage to solve, and
    # a ROM whose boundary condition is not the reference's loaded. The
    # problem kind now picks the initial family, so asking for another family
    # is a schema error.
    args = ["fit-initial", "--config", str(PRESETS / preset), "--out", str(tmp_path)]
    assert cli.main(args + [arg for o in overrides for arg in ("--set", o)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "caches").exists()


def test_all_skipped_gram_cache_is_a_numeric_failure(tmp_path, capsys):
    # every record went non-finite: train-control used to end in
    # "ValueError: nothing to train on" (exit 1), and sample-gram printed
    # numpy's overflow and invalid-value RuntimeWarnings for each record
    base = ["--config", str(PRESETS / "transport_1d.json"), "--out", str(tmp_path / "out"),
            "--set", "theta_space.half_width=1e200", "--set", "counts.n_theta=4", "--set", "counts.n_x=16"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["sample-gram", *base]) == 0
    captured = capsys.readouterr()
    assert "4 skipped" in captured.out and captured.err == ""
    assert cli.main(["train-control", *base]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "theta_space" in err and "rerun sample-gram" in err
    assert not (tmp_path / "out" / "checkpoints" / "control.bin").exists()


@pytest.mark.parametrize("n_modes", ["0", "1.5", '"4"'], ids=["zero", "fractional", "string"])
def test_basis_functions_outside_the_two_families_are_config_errors(tmp_path, capsys, n_modes):
    # the sine basis holds the modes 1..n_modes, so n_modes is a whole number >= 1
    args = ["fit-initial", "--config", str(PRESETS / "heat_fourier_1d.json"), "--out", str(tmp_path),
            "--set", f"rom_arch.n_modes={n_modes}"]
    assert cli.main(args) == cli.EXIT_CONFIG
    assert "config schema violation at rom_arch.n_modes" in capsys.readouterr().err
    assert not (tmp_path / "caches").exists()


def test_gen_trajectories_counts_blowups_and_writes_finished_rows(heat_config, tmp_path):
    # a step of 1e308 takes every start past float64 after its first pair
    cfg = config.load_config(heat_config, out_dir=str(tmp_path), overrides=["problem.horizon=1e308", "counts.n_t=1"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pipeline.cmd_gen_trajectories(cfg) == {"trajectories": 2, "pairs": 2, "blowups": 2}
    header, thetas, vels = evolve.read_traj_cache(cfg.path("traj_cache"), cfg.header("traj_cache"))
    assert header["shape"] == [2, 4]
    assert np.all(np.isfinite(thetas)) and np.all(np.isfinite(vels)) and np.all(thetas != 0.0)


@pytest.mark.parametrize("name", sorted(p.name for p in PRESETS.glob("*.json")))
def test_shipped_presets_load(name, tmp_path):
    cfg = config.load_config(PRESETS / name, out_dir=str(tmp_path))
    problem = cfg.raw["problem"]
    dim = {"transport": len(problem.get("velocity", ())), "heat": 1, "allen_cahn": 2}[problem["kind"]]
    lo = -1.0 if problem["kind"] == "allen_cahn" else 0.0
    assert (cfg.rom_arch.lo, cfg.rom_arch.hi) == ((lo,) * dim, (1.0,) * dim)
    assert cfg.control_arch.input_dim == rom.param_count(cfg.rom_arch)


@pytest.mark.parametrize("override", ["seed=4", "counts.n_x=64", "theta_space.half_width=5"])
def test_train_control_rejects_stale_gram_cache(heat_config, tmp_path, capsys, override):
    # the readers used to check only arch_hash and trained on the old records
    base = ["--config", str(heat_config), "--out", str(tmp_path / "out")]
    assert cli.main(["sample-gram", *base]) == 0
    assert cli.main(["gen-trajectories", *base]) == 0
    assert cli.main(["train-control", *base, "--set", override]) == cli.EXIT_NUMERIC
    assert "rerun sample-gram" in capsys.readouterr().err
    assert cli.main(["train-control", *base]) == 0


def test_changed_velocity_rejects_gram_cache(tmp_path, capsys):
    base = ["--config", str(PRESETS / "transport_1d.json"), "--out", str(tmp_path / "out"),
            "--set", "counts.n_theta=4", "--set", "counts.n_x=16", "--set", _TWO_STEPS]
    assert cli.main(["sample-gram", *base]) == 0
    assert cli.main(["train-control", *base]) == 0
    for command in ("train-control", "verify"):
        assert cli.main([command, *base, "--set", "problem.velocity=[-3.0]"]) == cli.EXIT_NUMERIC
        assert "mismatch on 'problem.velocity'" in capsys.readouterr().err


def test_anchor_ball_count_change_keeps_gram_records(tmp_path):
    # anchor-ball point i depends only on (seed, i): a smaller count reads the
    # prefix of the cache and a larger one extends it
    preset, out = PRESETS / "allen_cahn_2d.json", str(tmp_path / "out")
    shrink = ["rom_arch.width=3", "control_arch.width=8", "counts.n_theta=6", "counts.n_x=16", "counts.n_traj=0",
              "initials.count=2", "initials.fit_n_x=32", "initials.fit.max_steps=5", _TWO_STEPS]
    base = ["--config", str(preset), "--out", out] + [arg for key in shrink for arg in ("--set", key)]
    for command in ("fit-initial", "sample-gram"):
        assert cli.main([command, *base]) == 0
    assert cli.main(["train-control", *base, "--set", "counts.n_theta=4"]) == 0
    cfg = config.load_config(preset, out_dir=out, overrides=shrink + ["counts.n_theta=8"])
    assert pipeline.cmd_sample_gram(cfg) == {"total": 8, "computed": 2, "resumed": 6, "skipped": 0}


def test_train_control_needs_the_trajectory_cache_it_declares(heat_config, tmp_path, capsys):
    # a missing cache used to be skipped: "+0 pairs" and a field trained on l1 alone
    base = ["--config", str(heat_config), "--out", str(tmp_path / "out")]
    for command in ("fit-initial", "sample-gram"):
        assert cli.main([command, *base]) == 0
    assert cli.main(["train-control", *base]) == cli.EXIT_MISSING
    err = capsys.readouterr().err
    assert "traj.bin not found" in err and "rerun gen-trajectories" in err
    assert not (tmp_path / "out" / "checkpoints" / "control.bin").exists()
    assert cli.main(["gen-trajectories", *base]) == 0
    assert cli.main(["train-control", *base]) == 0
    assert "(+10 pairs)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "override", ["counts.n_t=50", "seed=4", "counts.n_traj=3", "theta_space.half_width=0.5"]
)
def test_train_control_rejects_stale_traj_cache(heat_config, tmp_path, capsys, override):
    base = ["--config", str(heat_config), "--out", str(tmp_path / "out")]
    assert cli.main(["sample-gram", *base, "--set", override]) == 0
    assert cli.main(["gen-trajectories", *base]) == 0
    assert cli.main(["train-control", *base, "--set", override]) == cli.EXIT_NUMERIC
    assert "rerun gen-trajectories" in capsys.readouterr().err
    assert cli.main(["gen-trajectories", *base, "--set", override]) == 0
    assert cli.main(["train-control", *base, "--set", override]) == 0


def test_empty_traj_cache_records_the_step(heat_config, tmp_path):
    cfg = config.load_config(heat_config, out_dir=str(tmp_path), overrides=["counts.n_traj=0"])
    pipeline.cmd_sample_gram(cfg)
    assert pipeline.cmd_gen_trajectories(cfg) == {"trajectories": 0, "pairs": 0, "blowups": 0}
    header, thetas, _ = evolve.read_traj_cache(cfg.path("traj_cache"), cfg.header("traj_cache"))
    assert header["h"] == HEAT_CFG["problem"]["horizon"] / HEAT_CFG["counts"]["n_t"]
    assert thetas.shape == (0, 2)
    assert pipeline.cmd_train_control(cfg)["pairs"] == 0


def test_torn_binfile_artifacts_exit_code(heat_config, tmp_path, capsys):
    out = tmp_path / "out"
    base = ["--config", str(heat_config), "--out", str(out)]
    for command in ("fit-initial", "sample-gram", "gen-trajectories"):
        assert cli.main([command, *base]) == 0
    traj = out / "caches" / "traj.bin"
    traj.write_bytes(traj.read_bytes()[:-7])
    assert cli.main(["train-control", *base]) == cli.EXIT_NUMERIC
    assert "rerun gen-trajectories" in capsys.readouterr().err
    assert cli.main(["gen-trajectories", *base]) == 0
    assert cli.main(["train-control", *base]) == 0
    anchors = out / "caches" / "anchors.bin"
    anchors.write_bytes(anchors.read_bytes()[:-7])
    assert cli.main(["solve", *base]) == cli.EXIT_NUMERIC
    assert "rerun fit-initial" in capsys.readouterr().err
    assert sorted(p.name for p in (out / "caches").iterdir()) == ["anchors.bin", "gram.bin", "traj.bin"]


# each value is one the key's schema used to accept, so only the key's absence rejects it
_UNREAD_KEYS = [(f"initials.fit.{key}", 1) for key in ("zeta", "batch_size", "stop_loss", "stop_plateau_pct",
                                                       "plateau_window")]
_UNREAD_KEYS += [(f"{section}.{key}", 0.5) for section in ("train", "initials.fit")
                 for key in ("beta1", "beta2", "adam_eps")]
_UNREAD_KEYS += [("train.plateau_window", 100)]
# train.schedule holds each stage's lr and max_steps; the plateau stop is gone
_UNREAD_KEYS += [("train.lr", 0.001), ("train.max_steps", 100), ("train.stop_plateau_pct", 0.1)]
# the Chebyshev family's constants, at their values
_UNREAD_KEYS += [("initials.degree_max", 3), ("initials.max_terms", 6), ("initials.amplitude", 0.9)]
# the problem kind fixes the ROM's dimension and box
_UNREAD_KEYS += [("rom_arch.input_dim", 1), ("rom_arch.wrapper_spec", {}),
                 ("problem.domain", '{"lo":[0.0],"hi":[1.0]}')]
# keys of other kinds: heat reads no velocity or epsilon, a linear basis no
# net setting, a box no radius; n_modes replaced basis_spec
_UNREAD_KEYS += [("problem.velocity", [1.0]), ("problem.epsilon", 0.5), ("rom_arch.width", 8),
                 ("rom_arch.activation", "relu"), ("theta_space.radius", 5),
                 ("rom_arch.basis_spec", '[["fourier_sine",1],["fourier_sine",2]]')]
# every solve is RK4
_UNREAD_KEYS += [("solve.scheme", "euler")]
# the problem kind picks the initial family
_UNREAD_KEYS += [("initials.family", "heat_combo")]


@pytest.mark.parametrize("key, value", [pytest.param(k, v, id=k.removeprefix("initials.fit.")) for k, v in _UNREAD_KEYS])
def test_fit_keys_nothing_reads_are_config_errors(heat_config, tmp_path, key, value):
    args = ["fit-initial", "--config", str(heat_config), "--out", str(tmp_path), "--set", f"{key}={value}"]
    assert cli.main(args) == cli.EXIT_CONFIG


def test_keys_of_another_kind_are_config_errors_naming_the_key(heat_config, tmp_path, capsys):
    # after a full run each used to exit 4 on a stale header (theta_space,
    # arch_hash) or exit 0 with the key ignored (velocity, epsilon)
    base = ["--config", str(heat_config), "--out", str(tmp_path / "out")]
    _solved_run(heat_config, tmp_path / "out")
    for override in ("theta_space.radius=5", "rom_arch.width=8", "rom_arch.activation=relu",
                     "problem.velocity=[2.0]", "problem.epsilon=0.5"):
        assert cli.main(["solve", *base, "--set", override]) == cli.EXIT_CONFIG
        assert f"does not read {override.split('=')[0]} " in capsys.readouterr().err


@pytest.mark.parametrize("override", ["theta_space.half_width=2", "rom_arch.activation=tanh"])
def test_allen_cahn_rejects_keys_its_kinds_do_not_read(tmp_path, capsys, override):
    # anchor balls have a radius, not a half width; a zero-boundary net is always tanh
    shrink = ["rom_arch.width=3", "control_arch.width=8", "counts.n_theta=4", "counts.n_x=16", "counts.n_traj=0",
              "initials.count=1", "initials.fit_n_x=32", "initials.fit.max_steps=5", _TWO_STEPS]
    args = ["fit-initial", "--config", str(PRESETS / "allen_cahn_2d.json"), "--out", str(tmp_path)]
    assert cli.main(args + [arg for key in [*shrink, override] for arg in ("--set", key)]) == cli.EXIT_CONFIG
    assert f"does not read {override.split('=')[0]} " in capsys.readouterr().err
    assert not (tmp_path / "caches").exists()


def test_transport_dimension_is_the_velocity_length(tmp_path):
    cfg = config.load_config(PRESETS / "transport_1d.json", overrides=["problem.velocity=[1.0,1.0]"],
                             out_dir=str(tmp_path))
    assert cfg.rom_arch.input_dim == 2
    assert (cfg.rom_arch.lo, cfg.rom_arch.hi) == ((0.0, 0.0), (1.0, 1.0))
    assert cfg.operator.velocity.tolist() == [1.0, 1.0]


def test_threads_key_still_loads(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(HEAT_CFG, threads=2)))
    assert config.load_config(path, out_dir=str(tmp_path)).raw["threads"] == 2


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Probe:
    """calib.Probe's interface, timing nothing."""

    times = [1.0]

    def measure(self):
        return 1.0

    slowest_cpu = measure


# a result of each pipeline command with the fields perfbench/rep.py reads
_CMD_RESULTS = {
    "cmd_fit_initial": [{"rmse": 0.0}],
    "cmd_sample_gram": {"computed": 1, "skipped": 0},
    "cmd_gen_trajectories": {"trajectories": 1, "blowups": 0},
    "cmd_train_control": {},
    "cmd_solve": {"blowup_step": None},
    "cmd_reference": {},
    "cmd_eval": {"rel_err_max": 0.1},
}


def test_benchmark_workload_configs_load(tmp_path):
    # perfbench writes its own configs (with "threads"), drives them through
    # pipeline.cmd_* in rep.py, and its tracer reads functions and result
    # fields by name; a change that breaks any of them would break every
    # benchmark run
    workloads, rep, tracer = (_perfbench(name) for name in ("workloads", "rep", "tracer"))
    assert sorted(workloads.WORKLOADS) == ["allen_cahn2d", "heat1d", "transport1d"]
    called = []

    def command(cmd):
        # binds each call to the command's signature
        signature = inspect.signature(getattr(pipeline, cmd))

        def call(*args, **kwargs):
            signature.bind(*args, **kwargs)
            called.append(cmd)
            return _CMD_RESULTS[cmd]

        call.__name__ = cmd
        return call

    bound = types.SimpleNamespace(**{cmd: command(cmd) for cmd in _CMD_RESULTS})
    for name, spec in workloads.WORKLOADS.items():
        path = tmp_path / f"{name}.json"
        workloads.write_config(str(ROOT), name, 1, 2, str(path))
        cfg = config.load_config(path, out_dir=str(tmp_path / name))
        assert cfg.control_arch.input_dim == rom.param_count(cfg.rom_arch)
        inspect.signature(fit.fit_initials).bind_partial(**cfg.raw["initials"]["fit"])
        for lr, steps, pairs_only, batch in spec["train_stages"]:
            overrides = {"lr": lr, "max_steps": steps}
            if batch is not None:
                overrides["batch_size"] = batch
            config.check_stage(dict(overrides, pairs_only=pairs_only))
        called.clear()
        rep.run_stages(bound, cfg, spec, rep.Ops(), rep.Stages(_Probe(), 1.0), {"raw": {}})
        assert set(called) == set(tracer.PIPELINE_COMMANDS)

    # the functions the tracer names exist, and its hooks read what they return;
    # fit.fit_initial is gone (fit.fit_initials runs every fit) and so is
    # reference.eval_reference (export_slice calls reference_at), so their counters read 0
    names = {*tracer.INFO, *re.findall(r'(?:total|calls|own)\["(\w+\.\w+)"\]', inspect.getsource(tracer))}
    for name in sorted(names - {"fit.fit_initial", "reference.eval_reference"}):
        module, attr = name.split(".")
        assert inspect.isfunction(getattr(importlib.import_module(f"pdecontrol.{module}"), attr)), name
    assert {"steps", "target_reached"} <= set(fit.FitResult.__dataclass_fields__)
    assert {"thetas", "blowup_step", "escape_step"} <= set(evolve.ParamTrajectory.__dataclass_fields__)
    arch = cn.ControlArch(input_dim=2, width=4, depth=2)
    gram = gram_records(np.zeros((3, 2)), np.stack([np.eye(2)] * 3), np.ones((3, 2)))
    trained = cn.train(cn.ControlNet(arch, cn.init_control_params(arch, 0)), gram, None, lr=1e-3, zeta=0.0,
                       batch_size=0, stop_loss=0.0, max_steps=2, seed=0, rows=np.arange(3))
    assert isinstance(trained[0], cn.ControlNet)
    assert tracer.INFO["control_net.train"]((), {}, trained) == {"steps": 2}


_STAGE = {"lr": 1e-3, "max_steps": 3}
_BAD_STAGES = [dict(_STAGE, batch_size=-5), dict(_STAGE, max_steps=0), dict(_STAGE, stop_loss="x"),
               dict(_STAGE, lr=float("nan")), dict(_STAGE, max_steps=30.0)]
_BAD_SCHEDULES = [[], [{"lr": 1e-3, "max_steps": 0}], [{"lr": float("nan"), "max_steps": 3}],
                  [{"lr": 1e-3, "max_steps": 3, "zeta": 0.1}]]


@pytest.mark.parametrize(
    "override",
    _BAD_STAGES + [{"schedule": schedule} for schedule in _BAD_SCHEDULES],
    ids=["batch_size", "max_steps", "stop_loss", "lr_nan", "max_steps_float",
         "schedule_empty", "schedule_max_steps", "schedule_lr_nan", "schedule_unknown_key"],
)
def test_script_train_overrides_are_config_errors(heat_config, tmp_path, override):
    # a script's overrides used to skip the schema: a negative batch "diverged at step 1",
    # zero steps wrote a checkpoint with loss NaN, and a string stop_loss was a TypeError;
    # a bad schedule is exit 2 at load, before any command writes a file
    out = tmp_path / "out"
    if "schedule" in override:
        args = ["fit-initial", "--config", str(heat_config), "--out", str(out),
                "--set", f"train.schedule={json.dumps(override['schedule'])}"]
        assert cli.main(args) == cli.EXIT_CONFIG
        assert not out.exists()
        return
    cfg = config.load_config(heat_config, out_dir=str(out))
    pipeline.cmd_sample_gram(cfg)
    pipeline.cmd_gen_trajectories(cfg)
    with pytest.raises(ConfigError, match="schema violation"):
        pipeline.cmd_train_control(cfg, train_overrides=override)
    assert not os.path.exists(cfg.path("checkpoint"))


def test_schedule_in_one_run_writes_the_bytes_of_its_stages_run_one_by_one(tmp_path):
    # one train-control keeps the net in memory between stages; each stage still
    # gets a fresh ADAM and batch stream, so the files match resumed single stages
    schedule = [{"lr": 1e-2, "max_steps": 12, "batch_size": 0, "pairs_only": True},
                {"lr": 3e-3, "max_steps": 10}, {"lr": 1e-3, "max_steps": 8, "batch_size": 3}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(HEAT_CFG, train=dict(HEAT_CFG["train"], schedule=schedule))))
    cfg = config.load_config(path, out_dir=str(tmp_path / "one"))
    pipeline.cmd_sample_gram(cfg)
    pipeline.cmd_gen_trajectories(cfg)
    assert [s["steps"] for s in pipeline.cmd_train_control(cfg)["stages"]] == [12, 10, 8]
    staged = config.load_config(path, out_dir=str(tmp_path / "staged"))
    pipeline.cmd_sample_gram(staged)
    pipeline.cmd_gen_trajectories(staged)
    for i, stage in enumerate(schedule):
        stage = dict(stage)
        pairs_only = stage.pop("pairs_only", False)
        pipeline.cmd_train_control(staged, resume=i > 0, pairs_only=pairs_only, train_overrides=stage)
    for name in ("checkpoints/control.bin", "curves/loss_history.bin"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "staged" / name).read_bytes()


def test_spelled_out_fit_default_reuses_the_anchor_store(tmp_path, capsys):
    # the store records the effective initials settings, so spelling out a default changes nothing
    doc = json.loads(json.dumps(HEAT_CFG))
    del doc["initials"]["fit_n_x"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    base = ["--config", str(path), "--out", str(tmp_path / "out")]
    for command in ("fit-initial", "sample-gram", "gen-trajectories", "train-control"):
        assert cli.main([command, *base]) == 0
    assert cli.main(["solve", *base, "--set", "initials.fit_n_x=512"]) == 0
    assert cli.main(["solve", *base, "--set", "initials.fit_n_x=256"]) == cli.EXIT_NUMERIC
    assert "rerun fit-initial" in capsys.readouterr().err


def test_anchor_index_must_be_in_store(heat_config, tmp_path):
    out = tmp_path / "out"
    base = ["--config", str(heat_config), "--out", str(out)]
    _solved_run(heat_config, out)
    for k in ("-1", "2"):  # the store holds anchors 0 and 1
        assert cli.main(["solve", *base, "--anchor", k]) == cli.EXIT_MISSING
    # a solution under a negative index is not one of the run's solutions
    solutions = out / "solutions"
    (solutions / "solution_-01.bin").write_bytes((solutions / "solution_000.bin").read_bytes())
    assert cli.main(["eval", *base, "--anchor", "-1"]) == cli.EXIT_MISSING
    assert not (out / "curves" / "errors_-01.bin").exists()
    # a closed-form reference has no artifact to write, but the index is still checked
    assert cli.main(["reference", *base, "--anchor", "1"]) == 0
    assert cli.main(["reference", *base, "--anchor", "2"]) == cli.EXIT_MISSING

    # the 2-D commands check the index before any work
    cfg = config.load_config(PRESETS / "allen_cahn_2d.json", out_dir=str(tmp_path / "ac"))
    cfg.ensure_layout()
    anchor = (fit.ChebCombo(terms=((1, 1, 0.5),)), np.zeros(rom.param_count(cfg.rom_arch)), 0.0)
    fit.save_anchors(cfg.path("anchors"), dict(cfg.header("anchors"), m=rom.param_count(cfg.rom_arch)), [anchor])
    for k in (-1, 1):
        with pytest.raises(MissingArtifact):
            pipeline.cmd_reference(cfg, anchor_index=k, nx=16, nt=16)
        with pytest.raises(MissingArtifact):
            pipeline.cmd_export_slice(cfg, k, 0.0)


def _solved_run(heat_config, out, overrides=()):
    cfg = config.load_config(heat_config, out_dir=str(out), overrides=overrides)
    for stage in (pipeline.cmd_fit_initial, pipeline.cmd_sample_gram, pipeline.cmd_gen_trajectories,
                  pipeline.cmd_train_control, pipeline.cmd_solve):
        stage(cfg)
    pipeline.cmd_eval(cfg, anchor_index=0, n_x=256)
    return cfg


def test_torn_solution_and_error_curve_exit_code(heat_config, tmp_path, capsys):
    out = tmp_path / "out"
    _solved_run(heat_config, out)
    base = ["--config", str(heat_config), "--out", str(out)]
    curve = out / "curves" / "errors_000.bin"
    curve.write_bytes(curve.read_bytes()[:-5])
    assert cli.main(["verify", *base]) == cli.EXIT_NUMERIC
    assert "rerun eval" in capsys.readouterr().err
    solution = out / "solutions" / "solution_000.bin"
    solution.write_bytes(solution.read_bytes()[:-9])
    for command in ("eval", "verify"):
        assert cli.main([command, *base]) == cli.EXIT_NUMERIC
        assert "rerun solve" in capsys.readouterr().err


def test_verify_rejects_a_solution_of_another_control_field(heat_config, tmp_path, capsys):
    # verify used to report the later field's M_V and bounds for a solve run on the earlier one
    out = tmp_path / "out"
    _solved_run(heat_config, out)
    base = ["--config", str(heat_config), "--out", str(out)]
    assert cli.main(["verify", *base]) == 0
    assert cli.main(["train-control", *base, "--resume", "--set", 'train.schedule=[{"lr": 0.5, "max_steps": 30}]']) == 0
    assert cli.main(["verify", *base]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "mismatch on 'control_sha256'" in err and "rerun solve" in err
    # eval used to measure the earlier field's solution and exit 0
    assert cli.main(["eval", *base]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "mismatch on 'control_sha256'" in err and "rerun solve" in err
    # verify used to report the curve eval wrote for the earlier solution beside the new one's M_V
    assert cli.main(["solve", *base]) == 0
    assert cli.main(["verify", *base]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "mismatch on 'solution_sha256'" in err and "rerun eval" in err
    assert cli.main(["eval", *base]) == 0
    assert cli.main(["verify", *base]) == 0


def test_eval_reads_the_checkpoint_header_and_not_the_net(heat_config, tmp_path, monkeypatch):
    # the solution's control field is checked against the digest the
    # checkpoint's header records; xi is neither loaded nor hashed
    cfg = _solved_run(heat_config, tmp_path / "out")
    hashed = []
    digest = binfile.digest
    monkeypatch.setattr(cn, "load_control_checkpoint", None)
    monkeypatch.setattr(binfile, "digest", lambda array: hashed.append(array.shape) or digest(array))
    pipeline.cmd_eval(cfg, anchor_index=0, n_x=64)
    assert (cn.control_param_count(cfg.control_arch),) not in hashed


def test_verify_rejects_a_transport_solution_of_another_horizon(tmp_path, capsys):
    # with no trajectory cache no checkpoint input holds the horizon, and
    # verify paired the stored solution's step with the new horizon
    base = ["--config", str(PRESETS / "transport_1d.json"), "--out", str(tmp_path / "out"),
            "--set", "counts.n_theta=4", "--set", "counts.n_x=16", "--set", "initials.count=1", "--set", _TWO_STEPS]
    for command in ("fit-initial", "sample-gram", "train-control", "solve"):
        assert cli.main([command, *base]) == 0
    assert cli.main(["verify", *base]) == 0
    for command in ("verify", "eval"):
        assert cli.main([command, *base, "--set", "problem.horizon=0.5"]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "mismatch on 'problem.horizon'" in err and "rerun solve" in err
    assert cli.main(["solve", *base, "--set", "problem.horizon=0.5"]) == 0
    assert cli.main(["verify", *base, "--set", "problem.horizon=0.5"]) == 0


def test_cut_write_keeps_the_previous_artifact(heat_config, tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg = _solved_run(heat_config, out)
    pipeline.cmd_verify(cfg)
    writers = {
        cfg.path("checkpoint"): lambda: pipeline.cmd_train_control(cfg),
        cfg.path("solution", 0): lambda: pipeline.cmd_solve(cfg, anchor_index=0),
        out / "curves" / "errors_000.bin": lambda: pipeline.cmd_eval(cfg, anchor_index=0, n_x=256),
        out / "report.json": lambda: pipeline.cmd_verify(cfg),
    }

    def cut(src, dst):
        raise OSError("cut before the rename")

    for path, write in writers.items():
        path = Path(path)
        payload = path.read_bytes()
        path.write_bytes(b"previous")
        with monkeypatch.context() as m:
            m.setattr(os, "replace", cut)
            with pytest.raises(OSError, match="cut"):
                write()
        assert path.read_bytes() == b"previous"
        path.write_bytes(payload)
    assert not list(out.rglob("*.tmp"))


@pytest.mark.parametrize("override", ["rom_arch.n_modes=3", "initials.fit_n_x=48"])
def test_solve_rejects_anchor_store_from_other_fit_inputs(heat_config, tmp_path, capsys, override):
    # anchors of a 3-mode ROM reached the 2-mode control net: a ValueError traceback
    base = ["--config", str(heat_config), "--out", str(tmp_path / "out")]
    assert cli.main(["fit-initial", *base, "--set", override]) == 0
    for command in ("sample-gram", "gen-trajectories", "train-control"):
        assert cli.main([command, *base]) == 0
    for command in ("solve", "eval"):
        assert cli.main([command, *base]) == cli.EXIT_NUMERIC
        assert "rerun fit-initial" in capsys.readouterr().err
    for command in ("fit-initial", "solve", "eval"):
        assert cli.main([command, *base]) == 0


def test_eval_rejects_stale_imex_reference(tmp_path, capsys):
    # eval used to read a reference computed for another epsilon or initial
    base = [*SHRUNK_AC, "--out", str(tmp_path / "out")]
    for command in ("fit-initial", "sample-gram", "train-control", "solve"):
        assert cli.main([command, *base]) == 0
    assert cli.main(["reference", *base, "--nx", "16", "--nt", "16"]) == 0
    assert cli.main(["eval", *base, "--n-x", "64"]) == 0
    # the solution records the epsilon its field was trained under, and is read first
    assert cli.main(["eval", *base, "--n-x", "64", "--set", "problem.epsilon=0.5"]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "mismatch on 'problem.epsilon'" in err and "rerun solve" in err
    # new anchors: the solution starts at the old anchor, so eval and
    # export-slice stop before they read the reference
    new = [*base, "--set", "seed=1"]
    assert cli.main(["fit-initial", *new]) == 0
    for command in (["eval", "--n-x", "64"], ["export-slice", "--time", "0.1"]):
        assert cli.main([*command, *new]) == cli.EXIT_NUMERIC
        assert "rerun solve" in capsys.readouterr().err
    # a run of the new seed, solved afresh, beside the old reference of
    # another anchor's spec; a new seed also needs a new field, so it runs
    # in its own out dir
    fresh = [str(tmp_path / "fresh") if arg == str(tmp_path / "out") else arg for arg in new]
    for command in ("fit-initial", "sample-gram", "train-control", "solve"):
        assert cli.main([command, *fresh]) == 0
    shutil.copy(tmp_path / "out" / "reference" / "ref_000.bin", tmp_path / "fresh" / "reference")
    assert cli.main(["eval", *fresh, "--n-x", "64"]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "mismatch on 'spec' in" in err and "rerun reference" in err
    assert cli.main(["reference", *fresh, "--nx", "16", "--nt", "16"]) == 0
    assert cli.main(["eval", *fresh, "--n-x", "64"]) == 0
    # a reference cut short used to end in a zipfile.BadZipFile traceback
    ref = tmp_path / "fresh" / "reference" / "ref_000.bin"
    ref.write_bytes(ref.read_bytes()[:-30])
    assert cli.main(["eval", *fresh, "--n-x", "64"]) == cli.EXIT_NUMERIC
    assert "rerun reference" in capsys.readouterr().err


def test_a_refit_that_keeps_the_spec_keeps_the_imex_reference(tmp_path):
    # the reference recorded every leaf of the anchor store: after a refit
    # under another fit budget, which keeps the anchor's spec, eval exited 4
    # "header mismatch on 'initials.fit.max_steps' in .../ref_000.bin"
    base = [*SHRUNK_AC, "--out", str(tmp_path / "out")]
    for command in ("fit-initial", "sample-gram", "train-control", "solve"):
        assert cli.main([command, *base]) == 0
    assert cli.main(["reference", *base, "--nx", "16", "--nt", "16"]) == 0
    refit = [*base, "--set", "initials.fit.max_steps=6"]
    (tmp_path / "out" / "caches" / "gram.bin").unlink()  # its records were drawn around the old anchor
    for command in ("fit-initial", "sample-gram", "train-control", "solve"):
        assert cli.main([command, *refit]) == 0
    assert cli.main(["eval", *refit, "--n-x", "64"]) == 0


def test_solutions_outlive_a_store_that_grows(heat_config, tmp_path):
    # every solution recorded every leaf of the anchor store: after one more
    # anchor, which leaves anchor 0's row as it was, eval and verify exited 4
    # "header mismatch on 'initials.count' in .../solution_000.bin"
    base = ["--config", str(heat_config), "--out", str(tmp_path / "out"), "--set", "initials.count=3"]
    _solved_run(heat_config, tmp_path / "out")
    assert cli.main(["fit-initial", *base]) == 0
    for command in ("eval", "verify"):
        assert cli.main([command, *base]) == 0


@pytest.mark.parametrize("args", [["reference", "--nx", "8"], ["reference", "--nt", "15"], ["eval", "--n-x", "0"]])
def test_cli_rejects_grid_sizes_the_solvers_cannot_take(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        cli.main([*args, "--config", str(PRESETS / "allen_cahn_2d.json"), "--out", str(tmp_path)])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "is less than" in capsys.readouterr().err


@pytest.mark.parametrize("time", ["inf", "nan", "-inf"])
def test_export_slice_rejects_a_time_that_is_not_finite(tmp_path, capsys, time):
    # the slice nearest a non-finite time was the t = 0 one, written with exit 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["export-slice", f"--time={time}", "--config", str(PRESETS / "allen_cahn_2d.json"),
                  "--out", str(tmp_path)])
    assert exc.value.code == cli.EXIT_CONFIG
    assert f"{time} is not a finite number" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_solution_solved_before_a_refit_is_rejected(heat_config, tmp_path, capsys):
    # a solution used to carry a copy of its initial and fit RMSE, so eval and
    # verify measured it against the refitted anchor and exited 0. A refit
    # under another config fails the solution's record; this one moves
    # theta0 under the same record, which only the theta0 bit check sees
    cfg = _solved_run(heat_config, tmp_path / "out")
    header, thetas = binfile.load(cfg.path("anchors"), cfg.header("anchors"))
    binfile.save(cfg.path("anchors"), header, thetas + 0.5)
    base = ["--config", str(heat_config), "--out", str(tmp_path / "out")]
    for command in ("eval", "verify"):
        assert cli.main([command, *base]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "does not start at anchor 0" in err and "rerun solve" in err
    for command in ("solve", "eval", "verify"):
        assert cli.main([command, *base]) == 0


def test_transport_solution_solved_before_a_refit_into_another_box_is_rejected(tmp_path, capsys):
    # eval of the old solution against the refitted anchor printed max rel err 5.07 and exited 0
    base = ["--config", str(PRESETS / "transport_1d.json"), "--out", str(tmp_path / "out"),
            "--set", "counts.n_theta=4", "--set", "counts.n_x=16", "--set", "initials.count=1", "--set", _TWO_STEPS]
    for command in ("fit-initial", "sample-gram", "train-control", "solve"):
        assert cli.main([command, *base]) == 0
    refit = [*base, "--set", "theta_space.half_width=2.0"]
    assert cli.main(["fit-initial", *refit]) == 0
    assert cli.main(["eval", *refit]) == cli.EXIT_NUMERIC
    assert "rerun solve" in capsys.readouterr().err


_TRANSPORT_RUN = ["--config", str(PRESETS / "transport_1d.json"), "--set", "counts.n_theta=20", "--set", "counts.n_x=32",
                  "--set", "initials.count=2", "--set", 'train.schedule=[{"lr": 0.001, "max_steps": 5}]']


@pytest.mark.parametrize("override", [
    "problem.velocity=[3.0]", "counts.n_theta=10", "counts.n_x=64", "theta_space.half_width=2.0", "seed=1",
], ids=["velocity", "n_theta", "n_x", "half_width", "seed"])
def test_checkpoint_is_used_only_with_the_data_it_was_trained_on(tmp_path, capsys, override):
    # the checkpoint recorded only its control_arch: a field trained at
    # velocity 1 solved at velocity 3 (exit 0), and eval reported max rel err 1.03
    base = [*_TRANSPORT_RUN, "--out", str(tmp_path / "out")]
    for command in ("fit-initial", "sample-gram", "train-control"):
        assert cli.main([command, *base]) == 0
    if override.startswith(("theta_space", "seed")):
        # the anchors follow the box and the seed: refit them, so only the field is stale
        assert cli.main(["fit-initial", *base, "--set", override]) == 0
    for command in ("solve", "verify"):
        assert cli.main([command, *base, "--set", override]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert f"mismatch on {override.split('=')[0]!r} in" in err
        assert "control.bin; delete it and rerun train-control" in err


def test_resumed_training_checks_the_checkpoint_record(tmp_path, capsys):
    # n_theta=10 reads a prefix of the Gram cache, so only the checkpoint knows it trained on 20
    base = [*_TRANSPORT_RUN, "--out", str(tmp_path / "out")]
    for command in ("fit-initial", "sample-gram", "train-control"):
        assert cli.main([command, *base]) == 0
    assert cli.main(["train-control", "--resume", *base, "--set", "counts.n_theta=10"]) == cli.EXIT_NUMERIC
    assert "mismatch on 'counts.n_theta'" in capsys.readouterr().err
    # train.* is not recorded: a resumed run continues under a new schedule
    assert cli.main(["train-control", "--resume", *base, "--set", 'train.schedule=[{"lr": 1e-4, "max_steps": 2}]']) == 0
    # with no trajectories the horizon shaped no training data: the field solves to another horizon
    assert cli.main(["solve", *base, "--set", "problem.horizon=0.5"]) == 0


def test_a_field_trained_on_trajectory_pairs_is_stale_without_them(heat_config, tmp_path, capsys):
    # with counts.n_traj 0 the config expected no trajectory fields, and the
    # recorded ones were never compared: solve and verify exited 0, and a
    # resume rewrote the header without them
    base = ["--config", str(heat_config), "--out", str(tmp_path / "out"), "--set", "counts.n_traj=0"]
    _solved_run(heat_config, tmp_path / "out")
    for command in ("solve", "verify", "train-control --resume"):
        assert cli.main([*command.split(), *base]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "mismatch on 'counts.n_traj'" in err and "rerun train-control" in err


def test_checkpoint_records_the_trajectory_cache_and_the_anchor_balls(tmp_path, capsys):
    # anchor balls are drawn around the anchors: a refit moves the training data
    base = [*SHRUNK_AC, "--out", str(tmp_path / "ac")]
    for command in ("fit-initial", "sample-gram", "train-control", "solve"):
        assert cli.main([command, *base]) == 0
    refit = [*base, "--set", "initials.fit.max_steps=6"]
    assert cli.main(["fit-initial", *refit]) == 0
    assert cli.main(["solve", *refit]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "mismatch on 'initials.fit.max_steps'" in err and "rerun train-control" in err


def test_readme_config_keys_name_every_settable_leaf():
    # paths.* and notes were settable but missing from the summary
    section = (ROOT / "README.md").read_text().split("## Config keys (summary)\n", 1)[1].split("\n## ", 1)[0]
    leaves = settable_leaves(config.SCHEMA)
    assert len(leaves) == 34
    missing = [leaf for leaf in leaves if not all(re.search(rf"\b{re.escape(k)}\b", section) for k in leaf.split("."))]
    assert missing == []


def test_readme_binfile_snippet_prints_a_loss_history(heat_config, tmp_path, capsys, monkeypatch):
    # the snippet passes binfile.load what the file's own header holds, so it can drift from load's signature
    cfg = config.load_config(heat_config, out_dir=str(tmp_path / "out" / "heat"), overrides=[_TWO_STEPS])
    for stage in (pipeline.cmd_sample_gram, pipeline.cmd_gen_trajectories, pipeline.cmd_train_control):
        stage(cfg)
    snippet = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    assert '"out/heat/curves/loss_history.bin"' in snippet
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    exec(textwrap.dedent(snippet), {})
    rows = binfile.load(cfg.path("loss_history"), cfg.header("loss_history"))[1]
    assert capsys.readouterr().out.endswith(f"{rows}\n") and rows.shape == (2, 4)
