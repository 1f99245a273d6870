import importlib.util
import inspect
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from pdecontrol import assembly, binfile, cli, config, control_net as cn, evolve, fit, pipeline, reference, rom
from pdecontrol.errors import ConfigError, MissingArtifact

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ROOT / "configs"

HEAT_CFG = {
    "problem": {
        "kind": "heat",
        "domain": {"lo": [0.0], "hi": [1.0]},
        "horizon": 0.05,
    },
    "rom_arch": {
        "kind": "linear_basis",
        "basis_spec": [["fourier_sine", 1], ["fourier_sine", 2]],
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
    for key, value in (("horizon", -1.0), ("domain", {"lo": [1.0], "hi": [1.0]})):
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
    "theta_space.half_width=Infinity", "problem.domain.hi=[Infinity]",
])
def test_numbers_the_schema_let_through_are_config_errors(heat_config, tmp_path, capsys, override):
    # JSON's 1.0 passed as an integer and crashed later with a TypeError; NaN
    # passed every bound (a NaN horizon ran every stage to exit 0) and so did infinities
    assert cli.main(["verify", "--config", str(heat_config), "--out", str(tmp_path / "out"),
                     "--set", override]) == cli.EXIT_CONFIG
    assert "is not of type" in capsys.readouterr().err
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
    monkeypatch.setattr(pipeline, "_VERIFY_CHUNK", 4)  # 6 records: a full and a partial chunk
    assert cli.main(["verify", "--config", str(heat_config), "--out", out]) == 0
    report = json.loads(Path(out, "report.json").read_text())
    res = report["cache"]["residual"]
    assert report["cache"]["records"] == 6
    assert 0.0 <= res["p50"] <= res["p90"] <= res["max"] < np.inf
    cache = assembly.read_cache(cfg.path("gram_cache"))
    net = cn.load_control_checkpoint(pipeline.control_checkpoint_path(cfg))
    assert res["max"] == pytest.approx(cn.residual_scan(net, cache.theta, cache.gram, cache.rhs).max(), rel=1e-12)
    [anchor] = report["anchors"]
    assert anchor["anchor"] == 0 and anchor["blowup_step"] is None
    assert all(np.isfinite(anchor[k]) for k in ("m_v", "l_v", "euler_bound", "abs_err_max"))
    assert anchor["abs_err_max"] == stats["abs_err_max"]
    # the error curve's rows are (t, abs_err, rel_err), for the solution's theta rows
    header, rows = binfile.load(stats["path"], "error_curve", pipeline.CURVE_FORMAT_VERSION, None, "")
    assert header["solution_sha256"] == pipeline._digest(pipeline.load_solution(cfg, 0)[1].thetas)
    assert rows.shape[1] == 3 and rows[:, 1].max() == stats["abs_err_max"]
    assert report["totals"] == {"blowups": 0, "escapes": 0, "passed": True}


def test_zero_field_solve_reproduces_fit_error(heat_config, tmp_path):
    # untrained (zero-init) control field: constant trajectory, so the error
    # at every time equals the fit-time error of theta0 against the decaying
    # reference at t=0 ... at t=0 specifically it must match the fit rmse.
    out = str(tmp_path / "out")
    cfg = config.load_config(heat_config, out_dir=out, overrides=['train.schedule=[{"lr": 1e-12, "max_steps": 1}]'])
    pipeline.cmd_fit_initial(cfg)
    pipeline.cmd_sample_gram(cfg)
    pipeline.cmd_gen_trajectories(cfg)
    pipeline.cmd_train_control(cfg)
    sol = pipeline.cmd_solve(cfg, anchor_index=0)
    doc, traj = pipeline.load_solution(cfg, 0)
    assert np.allclose(traj.thetas, traj.thetas[0], atol=1e-12)  # zero field
    stats = pipeline.cmd_eval(cfg, anchor_index=0, n_x=4096)
    _, curve = binfile.load(stats["path"], "error_curve", pipeline.CURVE_FORMAT_VERSION, None, "")
    t0_abs = curve[0, 1]
    assert t0_abs <= 2.0 * max(doc["fit_rmse"], 1e-12)


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


def test_verify_fails_on_blown_up_solve(heat_config, tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = config.load_config(heat_config, out_dir=out)
    pipeline.cmd_fit_initial(cfg)
    pipeline.cmd_sample_gram(cfg)
    pipeline.cmd_gen_trajectories(cfg)
    pipeline.cmd_train_control(cfg)
    path = pipeline.cmd_solve(cfg, anchor_index=0)["path"]
    assert cli.main(["verify", "--config", str(heat_config), "--out", out]) == 0
    header, thetas = binfile.load(path, "solution", pipeline.SOLUTION_FORMAT_VERSION, None, "")
    binfile.save(path, dict(header, blowup_step=3), thetas)
    assert cli.main(["verify", "--config", str(heat_config), "--out", out]) == cli.EXIT_VERIFY
    report = json.loads(Path(out, "report.json").read_text())
    assert report["anchors"][0]["blowup_step"] == 3
    assert report["totals"]["blowups"] == 1 and not report["totals"]["passed"]
    assert "BLEW UP at step 3" in capsys.readouterr().out


def test_allen_cahn_without_epsilon_is_config_error(capsys):
    problem = '{"kind":"allen_cahn","domain":{"lo":[-1,-1],"hi":[1,1]},"horizon":0.3}'
    args = ["fit-initial", "--config", str(PRESETS / "allen_cahn_2d.json"), "--set", f"problem={problem}"]
    assert cli.main(args) == cli.EXIT_CONFIG
    assert "'epsilon' is a required property" in capsys.readouterr().err


def test_zero_n_theta_is_config_error(heat_config, tmp_path, capsys):
    args = ["sample-gram", "--config", str(heat_config), "--out", str(tmp_path), "--set", "counts.n_theta=0"]
    assert cli.main(args) == cli.EXIT_CONFIG
    assert "0 is less than the minimum of 1" in capsys.readouterr().err


def test_cli_checksum_mismatch_exit(heat_config, tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["fit-initial", "--config", str(heat_config), "--out", out]) == 0
    assert cli.main(["sample-gram", "--config", str(heat_config), "--out", out]) == 0
    # change the architecture under the same out dir: cached artifacts no longer match
    code = cli.main([
        "train-control", "--config", str(heat_config), "--out", out,
        "--set", 'rom_arch.basis_spec=[["fourier_sine",1],["fourier_sine",2],["fourier_sine",3]]',
    ])
    assert code == cli.EXIT_NUMERIC


def test_spec_from_dict_roundtrip():
    specs = [
        fit.RandomTheta(seed=5),
        fit.HeatCombo(np.array([0.1, 0.2, 0.3, 0.4])),
        fit.ChebCombo(terms=((1, 2, 0.5),)),
    ]
    for spec in specs:
        rebuilt = fit.spec_from_dict(spec.describe())
        assert rebuilt.describe() == spec.describe()
    with pytest.raises(ConfigError):
        fit.spec_from_dict({"kind": "closure", "label": "x"})


def test_overrides_do_not_leak_across_loads(heat_config, tmp_path):
    # paths and initials.fit are nested keys the file omits: defaults fill them
    first = config.load_config(
        heat_config, overrides=["paths.gram_cache=elsewhere.bin", "initials.fit.lr=0.5"], out_dir=str(tmp_path)
    )
    assert first.path("gram_cache").endswith("elsewhere.bin")
    second = config.load_config(heat_config, out_dir=str(tmp_path))
    assert second.raw["paths"] == {}
    assert second.raw["initials"]["fit"] == HEAT_CFG["initials"]["fit"]
    assert config._DEFAULTS["paths"] == {} and config._DEFAULTS["initials"]["fit"] == {"lr": 1e-3, "max_steps": 5000}


def test_sample_gram_rejects_changed_theta_space(heat_config, tmp_path, capsys):
    # a rerun with a wider box used to report resumed: 20, computed: 0
    out = str(tmp_path / "out")
    args = ["sample-gram", "--config", str(heat_config), "--out", out, "--set", "counts.n_theta=20"]
    assert cli.main(args) == 0
    assert cli.main(args + ["--set", "theta_space.half_width=5"]) == cli.EXIT_NUMERIC
    assert "different theta" in capsys.readouterr().err
    cfg = config.load_config(heat_config, out_dir=out, overrides=["counts.n_theta=20"])
    assert pipeline.cmd_sample_gram(cfg) == {"total": 20, "computed": 0, "resumed": 20, "skipped": 0}


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
    header, _ = binfile.read_header(path, "loss_history", cn.LOSS_HISTORY_FORMAT_VERSION, "")
    assert header["shape"] == [first["steps"] + second["steps"], 4]
    rows = cn.read_loss_history(path)
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
    assert "loss history" in capsys.readouterr().err
    assert checkpoint.read_bytes() == payload


@pytest.mark.parametrize("preset, overrides, message", [
    ("transport_1d.json", ["problem.velocity=[1.0,1.0]"], "problem.velocity has 2 components for a 1-D domain"),
    ("allen_cahn_2d.json", ["quadrature=gauss"], "('quadrature' was unexpected)"),
    ("allen_cahn_2d.json", ["initials.count=0"], "theta_space.kind 'anchor_balls' samples around the anchors; "
     "initials.count is 0"),
], ids=["velocity", "gauss_2d", "no_anchors"])
def test_mismatched_settings_are_config_errors(tmp_path, capsys, preset, overrides, message):
    # each used to reach sample-gram and end in a ValueError traceback
    args = ["sample-gram", "--config", str(PRESETS / preset), "--out", str(tmp_path),
            "--set", "counts.n_theta=2", "--set", "counts.n_x=16"]
    assert cli.main(args + [arg for o in overrides for arg in ("--set", o)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "caches").exists()


_FAMILY_KEY = "Additional properties are not allowed ('family' was unexpected)"


@pytest.mark.parametrize("preset, overrides, message", [
    ("allen_cahn_2d.json", ['problem.domain={"lo":[-1.0],"hi":[1.0]}'],
     "allen_cahn needs the domain (-1,1)^2, where its cheb_combo initials vanish on the boundary; "
     "the domain is [-1.0] to [1.0]"),
    ("transport_1d.json", ['theta_space={"kind":"anchor_balls","radius":3.0}'],
     "transport draws its random_theta anchors from a box theta_space; theta_space.kind is 'anchor_balls'"),
    ("allen_cahn_2d.json", ["initials.family=random_theta"], _FAMILY_KEY),
    ("heat_fourier_1d.json", ["initials.family=random_theta"], _FAMILY_KEY),
    ("heat_fourier_1d.json", ['rom_arch={"kind":"resnet_zero_boundary","width":4,"depth":2}',
                              'problem.domain={"lo":[0.0,0.0],"hi":[1.0,1.0]}'],
     "heat needs the domain (0,1), where its sine-series reference and heat_combo initials are defined; "
     "the domain is [0.0, 0.0] to [1.0, 1.0]"),
    ("heat_fourier_1d.json", ['rom_arch={"kind":"resnet_zero_boundary","width":4,"depth":2}',
                              'problem.domain={"lo":[0.0],"hi":[1.5]}'],
     "heat needs the domain (0,1), where its sine-series reference and heat_combo initials are defined; "
     "the domain is [0.0] to [1.5]"),
    ("allen_cahn_2d.json", ['problem.domain={"lo":[-1.0,-1.0],"hi":[1.0,2.0]}'],
     "allen_cahn needs the domain (-1,1)^2, where its cheb_combo initials vanish on the boundary; "
     "the domain is [-1.0, -1.0] to [1.0, 2.0]"),
    ("allen_cahn_2d.json", ['problem.domain={"lo":[0.0,0.0],"hi":[1.0,1.0]}'],
     "allen_cahn needs the domain (-1,1)^2, where its cheb_combo initials vanish on the boundary; "
     "the domain is [0.0, 0.0] to [1.0, 1.0]"),
    ("transport_1d.json", ['problem.domain={"lo":[0.0],"hi":[0.5]}'],
     "rom_arch.kind 'resnet_periodic' has period 1 in each coordinate, so the box sides must be whole numbers; "
     "the domain is [0.0] to [0.5]"),
], ids=["cheb_1d", "random_theta_anchor_balls", "random_theta_allen_cahn", "random_theta_heat", "heat_2d",
        "heat_wide_interval", "allen_cahn_unequal_axes", "allen_cahn_unit_square", "periodic_half_box"])
def test_combinations_no_reference_serves_are_config_errors(tmp_path, capsys, preset, overrides, message):
    # each used to fail late or not at all: cheb_combo on 1-D was an IndexError
    # traceback, random_theta on anchor balls sent fit-initial to its own output
    # (exit 3), on allen_cahn reference was a ValueError traceback, and
    # random_theta on heat, 2-D heat and the unequal Allen-Cahn axes ran every
    # stage to solve (the last one through eval, against a wrong reference), and
    # the period-1 ROM on (0, 0.5) differed from the wrapped reference by up to 4.1;
    # heat on (0, 1.5) loaded, although the sine series is -1 at x = 1.5, where
    # the zero-boundary ROM is 0. The problem kind now picks the initial family,
    # so asking for another family is a schema error.
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


@pytest.mark.parametrize("spec", ['[["cosine",1]]', '[["fourier_sine"]]', '[["fourier_sine",1.5]]'],
                         ids=["unknown_family", "no_index", "fractional_index"])
def test_basis_functions_outside_the_two_families_are_config_errors(tmp_path, capsys, spec):
    # the first two used to end in a ValueError and an IndexError traceback, the third loaded
    args = ["fit-initial", "--config", str(PRESETS / "heat_fourier_1d.json"), "--out", str(tmp_path),
            "--set", f"rom_arch.basis_spec={spec}"]
    assert cli.main(args) == cli.EXIT_CONFIG
    assert "is not ('fourier_sine', k) with integer k >= 1" in capsys.readouterr().err
    assert not (tmp_path / "caches").exists()


def test_gen_trajectories_counts_blowups_and_writes_finished_rows(heat_config, tmp_path):
    # a step of 1e308 takes every start past float64 after its first pair
    cfg = config.load_config(heat_config, out_dir=str(tmp_path), overrides=["problem.horizon=1e308", "counts.n_t=1"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pipeline.cmd_gen_trajectories(cfg) == {"trajectories": 2, "pairs": 2, "blowups": 2}
    header, thetas, vels = evolve.read_traj_cache(cfg.path("traj_cache"))
    assert header["shape"] == [2, 4]
    assert np.all(np.isfinite(thetas)) and np.all(np.isfinite(vels)) and np.all(thetas != 0.0)


def test_caches_of_the_previous_formats_are_rejected(heat_config, tmp_path, capsys):
    # format-3 Gram and format-4 trajectory caches recorded a quadrature
    # setting that the ROM kind now decides: neither is read
    base = ["--config", str(heat_config), "--out", str(tmp_path / "out")]
    for command in ("sample-gram", "gen-trajectories", "train-control"):
        assert cli.main([command, *base]) == 0
    caches = tmp_path / "out" / "caches"
    # train-control reads the Gram cache first, so the trajectory cache goes stale first
    for name, kind, version, old, remedy in (
        ("traj.bin", "traj_cache", evolve.TRAJ_FORMAT_VERSION, 4, "rerun gen-trajectories"),
        ("gram.bin", "gram_cache", assembly.CACHE_FORMAT_VERSION, 3, "rerun sample-gram"),
    ):
        path = caches / name
        header, offset = binfile.read_header(path, kind, version, "")
        data = path.read_bytes()[offset:]
        path.write_bytes(binfile.encode_header(dict(header, format_version=old, quadrature="gauss")) + data)
        assert cli.main(["train-control", *base]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert f"not a {kind} in format version {version}" in err and remedy in err


@pytest.mark.parametrize("name", sorted(p.name for p in PRESETS.glob("*.json")))
def test_shipped_presets_load(name, tmp_path):
    cfg = config.load_config(PRESETS / name, out_dir=str(tmp_path))
    domain = cfg.raw["problem"]["domain"]
    assert cfg.rom_arch.lo == tuple(domain["lo"]) and cfg.rom_arch.hi == tuple(domain["hi"])
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
        assert "mismatch on 'op_tag'" in capsys.readouterr().err


def test_changed_domain_rejects_gram_cache(tmp_path, capsys):
    # records assembled over [0, 1] must not train or verify a field on [0, 2]
    base = ["--config", str(PRESETS / "transport_1d.json"), "--out", str(tmp_path / "out"),
            "--set", "counts.n_theta=4", "--set", "counts.n_x=16", "--set", _TWO_STEPS]
    assert cli.main(["sample-gram", *base]) == 0
    assert cli.main(["train-control", *base]) == 0
    for command in ("train-control", "verify"):
        assert cli.main([command, *base, "--set", 'problem.domain={"lo":[0.0],"hi":[2.0]}']) == cli.EXIT_NUMERIC
        assert "mismatch on 'hi'" in capsys.readouterr().err


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


def test_control_dimension_mismatch_exit(heat_config, tmp_path, capsys):
    base = ["--config", str(heat_config), "--out", str(tmp_path / "out")]
    four = 'rom_arch.basis_spec=[["fourier_sine",1],["fourier_sine",2],["fourier_sine",3],["fourier_sine",4]]'
    three = 'rom_arch.basis_spec=[["fourier_sine",1],["fourier_sine",2],["fourier_sine",3]]'
    for command in ("fit-initial", "sample-gram", "gen-trajectories", "train-control"):
        assert cli.main([command, *base, "--set", four]) == 0
    for command in ("solve", "verify"):
        assert cli.main([command, *base, "--set", three]) == cli.EXIT_NUMERIC
        assert "mismatch on 'arch'" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["control_arch.width=4", "control_arch.depth=3"])
def test_control_architecture_mismatch_exit(heat_config, tmp_path, capsys, override):
    # solve and verify used to check only input_dim and ran the width-8 field under width 4
    base = ["--config", str(heat_config), "--out", str(tmp_path / "out")]
    for command in ("fit-initial", "sample-gram", "gen-trajectories", "train-control", "solve"):
        assert cli.main([command, *base]) == 0
    for command in ("solve", "verify", "train-control --resume"):
        assert cli.main([*command.split(), *base, "--set", override]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "mismatch on 'arch'" in err and "rerun train-control" in err
    assert cli.main(["verify", *base]) == 0


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
    header, thetas, _ = evolve.read_traj_cache(cfg.path("traj_cache"))
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
# the ROM's dimension and box come from problem.domain
_UNREAD_KEYS += [("rom_arch.input_dim", 1), ("rom_arch.wrapper_spec", {})]
# every solve is RK4
_UNREAD_KEYS += [("solve.scheme", "euler")]
# the problem kind picks the initial family
_UNREAD_KEYS += [("initials.family", "heat_combo")]


@pytest.mark.parametrize("key, value", [pytest.param(k, v, id=k.removeprefix("initials.fit.")) for k, v in _UNREAD_KEYS])
def test_fit_keys_nothing_reads_are_config_errors(heat_config, tmp_path, key, value):
    args = ["fit-initial", "--config", str(heat_config), "--out", str(tmp_path), "--set", f"{key}={value}"]
    assert cli.main(args) == cli.EXIT_CONFIG


def test_threads_key_still_loads(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(HEAT_CFG, threads=2)))
    assert config.load_config(path, out_dir=str(tmp_path)).raw["threads"] == 2


def test_benchmark_workload_configs_load(tmp_path):
    # perfbench writes its own configs (with "threads") and calls cmd_train_control
    # once per entry of its train_stages, as perfbench/rep.py does; a change that
    # rejects either would break every benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert sorted(workloads.WORKLOADS) == ["allen_cahn2d", "heat1d", "transport1d"]
    train_control = inspect.signature(pipeline.cmd_train_control)
    for name, spec in workloads.WORKLOADS.items():
        path = tmp_path / f"{name}.json"
        workloads.write_config(str(ROOT), name, 1, 2, str(path))
        cfg = config.load_config(path, out_dir=str(tmp_path / name))
        assert cfg.control_arch.input_dim == rom.param_count(cfg.rom_arch)
        inspect.signature(fit.fit_initial).bind_partial(**cfg.raw["initials"]["fit"])
        for i, (lr, steps, pairs_only, batch) in enumerate(spec["train_stages"]):
            overrides = {"lr": lr, "max_steps": steps}
            if batch is not None:
                overrides["batch_size"] = batch
            train_control.bind(cfg, resume=i > 0, pairs_only=pairs_only, train_overrides=overrides)
            config.check_stage(dict(overrides, pairs_only=pairs_only))


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
    assert not os.path.exists(pipeline.control_checkpoint_path(cfg))


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
    # the store records the effective initials block, so spelling out a default changes nothing
    doc = json.loads(json.dumps(HEAT_CFG))
    del doc["initials"]["fit"]["lr"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    base = ["--config", str(path), "--out", str(tmp_path / "out")]
    for command in ("fit-initial", "sample-gram", "gen-trajectories", "train-control"):
        assert cli.main([command, *base]) == 0
    assert cli.main(["solve", *base, "--set", "initials.fit.lr=0.001"]) == 0
    assert cli.main(["solve", *base, "--set", "initials.fit.lr=0.002"]) == cli.EXIT_NUMERIC
    assert "rerun fit-initial" in capsys.readouterr().err


def test_anchor_index_must_be_in_store(heat_config, tmp_path):
    out = tmp_path / "out"
    base = ["--config", str(heat_config), "--out", str(out)]
    for command in ("fit-initial", "sample-gram", "gen-trajectories", "train-control"):
        assert cli.main([command, *base]) == 0
    assert cli.main(["solve", *base, "--anchor", "0"]) == 0
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
    fit.save_anchors(cfg.path("anchors"), cfg.anchor_header(), [anchor])
    for k in (-1, 1):
        with pytest.raises(MissingArtifact):
            pipeline.cmd_reference(cfg, anchor_index=k, nx=16, nt=16)
        with pytest.raises(MissingArtifact):
            pipeline.cmd_export_slice(cfg, k, 0.0)


def _solved_run(heat_config, out):
    cfg = config.load_config(heat_config, out_dir=str(out))
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
    # verify used to report the curve eval wrote for the earlier solution beside the new one's M_V
    assert cli.main(["eval", *base]) == 0
    assert cli.main(["solve", *base]) == 0
    assert cli.main(["verify", *base]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "mismatch on 'solution_sha256'" in err and "rerun eval" in err
    assert cli.main(["eval", *base]) == 0
    assert cli.main(["verify", *base]) == 0


def test_cut_write_keeps_the_previous_artifact(heat_config, tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg = _solved_run(heat_config, out)
    pipeline.cmd_verify(cfg)
    writers = {
        pipeline.control_checkpoint_path(cfg): lambda: pipeline.cmd_train_control(cfg),
        pipeline.solution_path(cfg, 0): lambda: pipeline.cmd_solve(cfg, anchor_index=0),
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


@pytest.mark.parametrize("override", [
    'rom_arch.basis_spec=[["fourier_sine",1],["fourier_sine",2],["fourier_sine",3]]',
    "initials.eps0_target=0.5",
])
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
    shrink = ["rom_arch.width=3", "control_arch.width=8", "counts.n_theta=4", "counts.n_x=16", "counts.n_traj=0",
              "initials.count=1", "initials.fit_n_x=32", "initials.fit.max_steps=5", _TWO_STEPS,
              "solve.n_steps=4"]
    base = ["--config", str(PRESETS / "allen_cahn_2d.json"), "--out", str(tmp_path / "out")]
    base += [arg for key in shrink for arg in ("--set", key)]
    for command in ("fit-initial", "sample-gram", "train-control", "solve"):
        assert cli.main([command, *base]) == 0
    assert cli.main(["reference", *base, "--nx", "16", "--nt", "16"]) == 0
    assert cli.main(["eval", *base, "--n-x", "64"]) == 0
    assert cli.main(["eval", *base, "--n-x", "64", "--set", "problem.epsilon=0.5"]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "mismatch on 'epsilon'" in err and "rerun reference" in err
    # new anchors, solved afresh: the reference still holds the old initial
    new = [*base, "--set", "seed=1"]
    for command in ("fit-initial", "solve"):
        assert cli.main([command, *new]) == 0
    assert cli.main(["eval", *new, "--n-x", "64"]) == cli.EXIT_NUMERIC
    assert "mismatch on 'initial' in" in capsys.readouterr().err
    assert cli.main(["reference", *new, "--nx", "16", "--nt", "16"]) == 0
    assert cli.main(["eval", *new, "--n-x", "64"]) == 0
    # every artifact that is read back is a binfile of its kind
    kinds = {"gram.bin": ("gram_cache", assembly.CACHE_FORMAT_VERSION),
             "anchors.bin": ("anchor_store", fit.ANCHOR_FORMAT_VERSION),
             "control.bin": ("control_checkpoint", cn.FORMAT_VERSION),
             "loss_history.bin": ("loss_history", cn.LOSS_HISTORY_FORMAT_VERSION),
             "errors_000.bin": ("error_curve", pipeline.CURVE_FORMAT_VERSION),
             "solution_000.bin": ("solution", pipeline.SOLUTION_FORMAT_VERSION),
             "ref_000.bin": ("imex_reference", reference.GRID_FORMAT_VERSION)}
    read_back = [path for sub in ("caches", "checkpoints", "curves", "solutions", "reference")
                 for path in (tmp_path / "out" / sub).iterdir()]
    assert sorted(path.name for path in read_back) == sorted(kinds)
    for path in read_back:
        binfile.read_header(path, *kinds[path.name], "")
    # a reference cut short used to end in a zipfile.BadZipFile traceback
    ref = tmp_path / "out" / "reference" / "ref_000.bin"
    ref.write_bytes(ref.read_bytes()[:-30])
    assert cli.main(["eval", *new, "--n-x", "64"]) == cli.EXIT_NUMERIC
    assert "rerun reference" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["reference", "--nx", "8"], ["reference", "--nt", "15"], ["eval", "--n-x", "0"]])
def test_cli_rejects_grid_sizes_the_solvers_cannot_take(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        cli.main([*args, "--config", str(PRESETS / "allen_cahn_2d.json"), "--out", str(tmp_path)])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "is less than" in capsys.readouterr().err
