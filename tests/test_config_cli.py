import importlib.util
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from pdecontrol import assembly, cli, config, control_net as cn, evolve, fit, pipeline, rom
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
        "input_dim": 1,
        "basis_spec": [["fourier_sine", 1], ["fourier_sine", 2]],
    },
    "control_arch": {"width": 8, "depth": 2},
    "theta_space": {"kind": "box", "half_width": 1.0},
    "counts": {"n_theta": 6, "n_x": 32, "n_traj": 2, "n_t": 4},
    "quadrature": "gauss",
    "train": {"lr": 0.01, "zeta": 0.1, "batch_size": 0, "stop_loss": 1e-9,
              "stop_plateau_pct": None, "max_steps": 30},
    "solve": {"scheme": "rk4", "n_steps": 8},
    "initials": {"family": "heat_combo", "count": 2, "eps0_target": 0.01, "fit_n_x": 64,
                 "fit": {"lr": 0.01, "max_steps": 400}},
    "seed": 3,
}


@pytest.fixture
def heat_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(HEAT_CFG))
    return path


def test_load_and_defaults(heat_config, tmp_path):
    cfg = config.load_config(heat_config, out_dir=str(tmp_path / "out"))
    assert cfg.seed == 3
    assert cfg.raw["solve"]["scheme"] == "rk4"
    assert cfg.problem().dim == 1
    assert rom.param_count(cfg.rom_arch()) == 2
    assert cfg.control_arch().input_dim == 2


def test_schema_rejects_unknown_keys(tmp_path):
    doc = dict(HEAT_CFG)
    doc["bogus"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        config.load_config(path)


def test_schema_rejects_bad_values(tmp_path):
    doc = json.loads(json.dumps(HEAT_CFG))
    doc["problem"]["horizon"] = -1.0
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        config.load_config(path)


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError):
        config.load_config(tmp_path / "nope.json")


def test_overrides(heat_config, tmp_path):
    cfg = config.load_config(
        heat_config,
        overrides=["counts.n_theta=9", "train.lr=0.5", 'problem.kind="heat"'],
        out_dir=str(tmp_path / "out"),
        seed=77,
    )
    assert cfg.raw["counts"]["n_theta"] == 9
    assert cfg.raw["train"]["lr"] == 0.5
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
    assert report["totals"] == {"blowups": 0, "escapes": 0, "passed": True}


def test_zero_field_solve_reproduces_fit_error(heat_config, tmp_path):
    # untrained (zero-init) control field: constant trajectory, so the error
    # at every time equals the fit-time error of theta0 against the decaying
    # reference at t=0 ... at t=0 specifically it must match the fit rmse.
    out = str(tmp_path / "out")
    cfg = config.load_config(heat_config, out_dir=out, overrides=["train.max_steps=1", "train.lr=1e-12"])
    pipeline.cmd_fit_initial(cfg)
    pipeline.cmd_sample_gram(cfg)
    pipeline.cmd_gen_trajectories(cfg)
    pipeline.cmd_train_control(cfg)
    sol = pipeline.cmd_solve(cfg, anchor_index=0)
    doc, traj = pipeline.load_solution(cfg, 0)
    assert np.allclose(traj.thetas, traj.thetas[0], atol=1e-12)  # zero field
    stats = pipeline.cmd_eval(cfg, anchor_index=0, n_x=4096)
    curve = open(stats["path"]).read().strip().split("\n")
    t0_abs = float(curve[1].split(",")[1])
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
    doc = json.loads(Path(path).read_text())
    doc["blowup_step"] = 3
    Path(path).write_text(json.dumps(doc))
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
    assert config._DEFAULTS["paths"] == {} and config._DEFAULTS["initials"]["fit"] == {}


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


def test_json_artifacts_match_json_dump_bytes(heat_config, tmp_path):
    out = str(tmp_path / "out")
    cfg = config.load_config(heat_config, out_dir=out)
    pipeline.cmd_fit_initial(cfg)
    pipeline.cmd_sample_gram(cfg)
    pipeline.cmd_gen_trajectories(cfg)
    pipeline.cmd_train_control(cfg)
    path = pipeline.cmd_solve(cfg, anchor_index=0)["path"]
    written = Path(path).read_text()
    old = io.StringIO()
    json.dump(json.loads(written), old)
    assert written == old.getvalue()
    for name in ("anchors", "traj_cache"):
        text = Path(cfg.path(name)).read_text()
        old = io.StringIO()
        for line in text.splitlines():
            json.dump(json.loads(line), old)
            old.write("\n")
        assert text == old.getvalue()


def test_resumed_training_continues_loss_history_steps(heat_config, tmp_path):
    out = str(tmp_path / "out")
    cfg = config.load_config(heat_config, out_dir=out)
    pipeline.cmd_sample_gram(cfg)
    pipeline.cmd_gen_trajectories(cfg)
    first = pipeline.cmd_train_control(cfg)
    second = pipeline.cmd_train_control(cfg, resume=True, train_overrides={"lr": 1e-3})
    lines = Path(out, "curves", "loss_history.csv").read_text().splitlines()
    assert lines[0] == "step,l1,l2,l_total"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, first["steps"] + second["steps"] + 1))
    assert rows[first["steps"] - 1][3] == repr(first["final_loss"])
    assert rows[-1][3] == repr(second["final_loss"])


@pytest.mark.parametrize("name", sorted(p.name for p in PRESETS.glob("*.json")))
def test_shipped_presets_load(name, tmp_path):
    cfg = config.load_config(PRESETS / name, out_dir=str(tmp_path))
    cfg.problem()
    cfg.rom_arch()
    cfg.control_arch()


@pytest.mark.parametrize("override", ["seed=4", "counts.n_x=64", "quadrature=mc", "theta_space.half_width=5"])
def test_train_control_rejects_stale_gram_cache(heat_config, tmp_path, capsys, override):
    # the readers used to check only arch_hash and trained on the old records
    base = ["--config", str(heat_config), "--out", str(tmp_path / "out")]
    assert cli.main(["sample-gram", *base]) == 0
    assert cli.main(["train-control", *base, "--set", override]) == cli.EXIT_NUMERIC
    assert "rerun sample-gram" in capsys.readouterr().err
    assert cli.main(["train-control", *base]) == 0


def test_changed_velocity_rejects_gram_cache(tmp_path, capsys):
    base = ["--config", str(PRESETS / "transport_1d.json"), "--out", str(tmp_path / "out"),
            "--set", "counts.n_theta=4", "--set", "counts.n_x=16", "--set", "train.max_steps=2"]
    assert cli.main(["sample-gram", *base]) == 0
    assert cli.main(["train-control", *base]) == 0
    for command in ("train-control", "verify"):
        assert cli.main([command, *base, "--set", "problem.velocity=[-3.0]"]) == cli.EXIT_NUMERIC
        assert "mismatch on 'op_tag'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override", ["counts.n_t=50", "seed=4", "quadrature=mc", "counts.n_traj=3", "theta_space.half_width=0.5"]
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


def test_torn_json_lines_artifacts_exit_code(heat_config, tmp_path, capsys):
    out = tmp_path / "out"
    base = ["--config", str(heat_config), "--out", str(out)]
    for command in ("fit-initial", "sample-gram", "gen-trajectories"):
        assert cli.main([command, *base]) == 0
    traj = out / "caches" / "traj.jsonl"
    traj.write_text(traj.read_text()[:-7])
    assert cli.main(["train-control", *base]) == cli.EXIT_NUMERIC
    assert "rerun gen-trajectories" in capsys.readouterr().err
    assert cli.main(["gen-trajectories", *base]) == 0
    assert cli.main(["train-control", *base]) == 0
    anchors = out / "caches" / "anchors.jsonl"
    anchors.write_text(anchors.read_text()[:-7])
    assert cli.main(["solve", *base]) == cli.EXIT_NUMERIC
    assert "rerun fit-initial" in capsys.readouterr().err
    assert sorted(p.name for p in (out / "caches").iterdir()) == ["anchors.jsonl", "gram.bin", "traj.jsonl"]


@pytest.mark.parametrize("key", ["zeta", "batch_size", "stop_loss", "stop_plateau_pct", "plateau_window"])
def test_fit_keys_nothing_reads_are_config_errors(heat_config, tmp_path, key):
    args = ["fit-initial", "--config", str(heat_config), "--out", str(tmp_path), "--set", f"initials.fit.{key}=1"]
    assert cli.main(args) == cli.EXIT_CONFIG


def test_threads_key_still_loads(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(HEAT_CFG, threads=2)))
    assert config.load_config(path, out_dir=str(tmp_path)).raw["threads"] == 2


def test_benchmark_workload_configs_load(tmp_path):
    # perfbench writes its own configs (with "threads"); a schema change that
    # rejects them would break every benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert sorted(workloads.WORKLOADS) == ["allen_cahn2d", "heat1d", "transport1d"]
    for name in workloads.WORKLOADS:
        path = tmp_path / f"{name}.json"
        workloads.write_config(str(ROOT), name, 1, 2, str(path))
        cfg = config.load_config(path, out_dir=str(tmp_path / name))
        cfg.control_arch()
        cfg.train_config()
        cfg.fit_config()
