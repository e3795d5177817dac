import json
from pathlib import Path

import numpy as np
import pytest

from stlfunnel.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from stlfunnel.config import ConfigError, apply_overrides, build_run, load_config
from stlfunnel.dqn import load_checkpoint
from stlfunnel.evalmon import check_satisfaction, export_csv, read_trajectory_csv, rollout

BASE_CONFIG = {
    "environment": {
        "kind": "integrator", "tau": 0.5, "horizon": 8,
        "reset": {"kind": "fixed", "value": [0.0]},
    },
    "spec": {
        "formula": "G[2,8](x >= 0.2)",
        "rho_bounds": {"0": [-3.0, 3.0]},
    },
    "training": {
        "total_steps": 300, "batch_size": 8, "target_update_freq": 25,
        "eval_freq": 100, "eval_episodes": 1, "hidden_sizes": [16],
        "replay_capacity": 500, "seed": 0,
    },
    "reward_mode": "funnel",
}

OVERLAP_SPEC = {
    "formula": "G[0,8](x <= 4) & F[0,5](x >= 1)",
    "rho_bounds": {"0": [-3.0, 3.0], "1": [-3.0, 3.0]},
    "t_star": {"0": 3},
}


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def write_config(tmp_path, out_name="out", **changes):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in changes.items():
        cfg[key] = value
    cfg["output_dir"] = str(tmp_path / out_name)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path / out_name


# funnel -----------------------------------------------------------------------

def test_funnel_command_writes_schedule(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    assert main(["funnel", "--config", str(cfg)]) == EXIT_OK
    doc = json.loads((out / "schedule.json").read_text())
    assert doc["horizon"] == 8
    assert len(doc["segments"]) == 1
    lines = (out / "funnel.csv").read_text().splitlines()
    assert lines[0].startswith("t,segment,")
    assert len(lines) == 10


def test_funnel_overlapping_writes_per_segment_files(tmp_path):
    cfg, out = write_config(tmp_path, spec=OVERLAP_SPEC)
    assert main(["funnel", "--config", str(cfg)]) == EXIT_OK
    assert (out / "funnel_segment_0.csv").exists()
    assert (out / "funnel_segment_1.csv").exists()


# train ------------------------------------------------------------------------

def test_train_command_outputs(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["train", "--config", str(cfg)]) == EXIT_OK
    assert (out / "checkpoint.json").exists()
    log_lines = (out / "training_log.csv").read_text().splitlines()
    assert log_lines[0] == "step,episode,epsilon,loss,eval_satisfaction,eval_min_robustness"
    assert len(log_lines) == 5  # evals at 0, 100, 200 plus the final policy
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["steps_done"] == 300
    assert meta["environment"]["kind"] == "integrator"
    assert meta["spec"] == BASE_CONFIG["spec"]["formula"]


def test_train_rerun_is_bit_identical(tmp_path):
    cfg1, out1 = write_config(tmp_path, out_name="a")
    assert main(["train", "--config", str(cfg1)]) == EXIT_OK
    first = (out1 / "checkpoint.json").read_bytes()
    cfg2, out2 = write_config(tmp_path, out_name="b")
    assert main(["train", "--config", str(cfg2)]) == EXIT_OK
    assert (out2 / "checkpoint.json").read_bytes() == first


def test_train_seed_flag_changes_result(tmp_path):
    cfg1, out1 = write_config(tmp_path, out_name="a")
    main(["train", "--config", str(cfg1)])
    cfg2, out2 = write_config(tmp_path, out_name="b")
    main(["train", "--config", str(cfg2), "--seed", "9"])
    assert ((out1 / "checkpoint.json").read_bytes()
            != (out2 / "checkpoint.json").read_bytes())


def test_train_resume_continues_step_count(tmp_path):
    cfg, out = write_config(tmp_path)
    main(["train", "--config", str(cfg)])
    cfg2, out2 = write_config(tmp_path, out_name="resumed")
    assert main(["train", "--config", str(cfg2),
                 "--resume", str(out / "checkpoint.json")]) == EXIT_OK
    meta = json.loads((out2 / "run_meta.json").read_text())
    assert meta["steps_done"] == 600
    ckpt = json.loads((out2 / "checkpoint.json").read_text())
    assert ckpt["meta"]["steps_done"] == 600


def test_set_override_reaches_training(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["train", "--config", str(cfg),
                 "--set", "training.total_steps=0"]) == EXIT_OK
    log_lines = (out / "training_log.csv").read_text().splitlines()
    assert len(log_lines) == 1  # header only, no steps were run


def test_out_flag_overrides_output_dir(tmp_path):
    cfg, _ = write_config(tmp_path)
    target = tmp_path / "elsewhere"
    assert main(["funnel", "--config", str(cfg), "--out", str(target)]) == EXIT_OK
    assert (target / "schedule.json").exists()


# eval + monitor ---------------------------------------------------------------

def test_eval_and_monitor_round_trip(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    main(["train", "--config", str(cfg)])
    eval_out = tmp_path / "eval"
    assert main(["eval", "--config", str(cfg), "--out", str(eval_out),
                 "--checkpoint", str(out / "checkpoint.json"),
                 "--episodes", "3"]) == EXIT_OK
    summary = json.loads((eval_out / "summary.json").read_text())
    assert summary["n_episodes"] == 3
    assert len(summary["episodes"]) == 3
    assert 0.0 <= summary["satisfaction_rate"] <= 1.0
    assert (eval_out / "trajectory_000.csv").exists()
    assert (eval_out / "trajectory_002.meta.json").exists()

    mon_out = tmp_path / "mon"
    capsys.readouterr()
    assert main(["monitor", "--config", str(cfg), "--out", str(mon_out),
                 "--trajectory", str(eval_out / "trajectory_000.csv")]) == EXIT_OK
    verdict = json.loads((mon_out / "verdict.json").read_text())
    printed = json.loads(capsys.readouterr().out)
    assert verdict == printed
    # The offline verdict matches what eval computed for the same episode.
    ep0 = summary["episodes"][0]
    assert verdict["satisfied"] == ep0["satisfied"]
    assert verdict["robustness"] == pytest.approx(ep0["robustness"], abs=1e-12)


def test_eval_deterministic_trajectories(tmp_path):
    cfg, out = write_config(tmp_path)
    main(["train", "--config", str(cfg)])
    a, b = tmp_path / "ea", tmp_path / "eb"
    for dest in (a, b):
        main(["eval", "--config", str(cfg), "--out", str(dest),
              "--checkpoint", str(out / "checkpoint.json"), "--episodes", "2"])
    assert (a / "trajectory_001.csv").read_bytes() == (b / "trajectory_001.csv").read_bytes()


# error paths ------------------------------------------------------------------

def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["funnel", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_bad_formula_is_config_error(tmp_path, capsys):
    cfg, _ = write_config(tmp_path, spec={"formula": "G[5,2](x >= 0)",
                                          "rho_bounds": {"0": [-1, 1]}})
    assert main(["funnel", "--config", str(cfg)]) == EXIT_CONFIG
    assert "spec.formula" in capsys.readouterr().err


def test_missing_section_is_config_error(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"environment": BASE_CONFIG["environment"]}))
    assert main(["funnel", "--config", str(path)]) == EXIT_CONFIG
    assert "spec" in capsys.readouterr().err


def test_malformed_override_is_config_error(tmp_path, capsys):
    cfg, _ = write_config(tmp_path)
    assert main(["funnel", "--config", str(cfg), "--set", "no_equals"]) == EXIT_CONFIG


def test_missing_trajectory_is_io_error(tmp_path, capsys):
    cfg, _ = write_config(tmp_path)
    assert main(["monitor", "--config", str(cfg),
                 "--trajectory", str(tmp_path / "ghost.csv")]) == EXIT_IO
    assert "I/O error" in capsys.readouterr().err


@pytest.mark.parametrize("csv_bytes, message", [
    (b"t,x\n0,1.0\n1,1.0\n", "trajectory horizon 1 shorter than formula horizon 8"),
    (b"t,y\n0,1.0\n", "missing column 'x'"),
    (b"t,x\n0,1.0\n1,abc\n", "could not convert string to float: 'abc'"),
    (b"t,x\n0,1.0\n1,nan\n", "non-finite 'x' value 'nan' at data row 2"),
    (b"t,x\n0,inf\n", "non-finite 'x' value 'inf' at data row 1"),
    (b"t,x\n0,1.0\n1\n", "data row 2 has 1 fields"),
    (b"t,x\n0,\xff\n", "not text"),
], ids=["too-short", "missing-column", "non-numeric", "nan", "inf", "ragged-row", "not-text"])
def test_bad_trajectory_is_one_line_error(tmp_path, capsys, csv_bytes, message):
    cfg, _ = write_config(tmp_path)
    traj = tmp_path / "bad.csv"
    traj.write_bytes(csv_bytes)
    assert main(["monitor", "--config", str(cfg), "--trajectory", str(traj)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("trajectory error: ")
    assert message in err
    assert len(err.splitlines()) == 1


def _drop(key):
    def edit(doc):
        del doc[key]
    return edit


def _set_version(doc):
    doc["version"] = 99


def _weight_row_short(doc):
    doc["weights"][0] = doc["weights"][0][:-1]


def _bias_too_long(doc):
    doc["biases"][1].append(0.0)


def _moment_wrong_shape(doc):
    doc["optimizer"]["v"][1] = [[0.0]]


def _layer_missing(doc):
    doc["weights"].pop()


def _moment_missing(doc):
    del doc["optimizer"]["m"]


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ckpt")
    cfg, out = write_config(tmp)
    assert main(["train", "--config", str(cfg)]) == EXIT_OK
    return json.loads((out / "checkpoint.json").read_text())


@pytest.mark.parametrize("command", ["eval", "train"])
@pytest.mark.parametrize("edit, message", [
    (None, "corrupt checkpoint"),
    (_set_version, "checkpoint version 99 unsupported"),
    (_weight_row_short, "weights[0] has shape (15, 2), layer_sizes [2, 16, 13] need (16, 2)"),
    (_bias_too_long, "biases[1] has shape (14,)"),
    (_moment_wrong_shape, "Adam moment v: weights[1] has shape (1, 1)"),
    (_layer_missing, "3 arrays for 4 weights and biases"),
    (_drop("n_actions"), "missing key 'n_actions'"),
    (_drop("state_dim"), "missing key 'state_dim'"),
    (_drop("horizon"), "missing key 'horizon'"),
    (_drop("optimizer"), "missing key 'optimizer'"),
    (_moment_missing, "missing optimizer key 'm'"),
], ids=["invalid-json", "version", "weight-row-short", "bias-too-long", "moment-shape",
        "layer-missing", "no-n_actions", "no-state_dim", "no-horizon", "no-optimizer",
        "no-moment"])
def test_bad_checkpoint_is_one_line_error(tmp_path, capsys, trained_checkpoint,
                                          command, edit, message):
    cfg, _ = write_config(tmp_path)
    ckpt = tmp_path / "bad.json"
    if edit is None:
        ckpt.write_text(json.dumps(trained_checkpoint)[:-10])
    else:
        doc = json.loads(json.dumps(trained_checkpoint))
        edit(doc)
        ckpt.write_text(json.dumps(doc))
    flag = "--checkpoint" if command == "eval" else "--resume"
    assert main([command, "--config", str(cfg), flag, str(ckpt)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error: ")
    assert message in err
    assert len(err.splitlines()) == 1


# config module ----------------------------------------------------------------

def test_apply_overrides_nesting_and_json_scalars():
    cfg = {"training": {"seed": 0}}
    apply_overrides(cfg, ["training.seed=7", "training.lr=0.005",
                          "reward_mode=ablation-no-funnel",
                          "spec.t_star.0=12"])
    assert cfg["training"]["seed"] == 7
    assert cfg["training"]["lr"] == 0.005
    assert cfg["reward_mode"] == "ablation-no-funnel"
    assert cfg["spec"]["t_star"]["0"] == 12


def test_build_run_estimates_bounds_from_box(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["spec"] = {"formula": "G[2,8](x >= 0.2)",
                   "box": {"x": [-3.0, 3.2]}, "grid_n": 101}
    ctx = build_run(cfg)
    seg = ctx.schedule.segments[0]
    assert seg.params.rho_max == pytest.approx(3.0, abs=1e-9)


def test_build_run_requires_box_or_bounds():
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["spec"] = {"formula": "G[2,8](x >= 0.2)"}
    with pytest.raises(ConfigError, match="spec.box"):
        build_run(cfg)


def test_build_run_rejects_unknown_reward_mode():
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["reward_mode"] = "bonus"
    with pytest.raises(ConfigError, match="reward_mode"):
        build_run(cfg)


def test_build_run_rejects_bad_training_key():
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["training"]["minibatch"] = 3
    with pytest.raises(ConfigError, match="training"):
        build_run(cfg)


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("[1,2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(path)


# shipped configs ----------------------------------------------------------------

@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_runs_end_to_end(path, tmp_path):
    ctx = build_run(load_config(path))
    out = tmp_path / "out"
    common = ["--config", str(path), "--out", str(out)]
    assert main(["funnel", *common]) == EXIT_OK
    assert (out / "schedule.json").exists()
    assert main(["train", *common, "--set", "training.total_steps=300",
                 "--set", "training.eval_freq=150",
                 "--set", "training.eval_episodes=1"]) == EXIT_OK
    log_lines = (out / "training_log.csv").read_text().splitlines()
    assert len(log_lines) == 4  # header, evals at 0 and 150, the final policy

    agent = load_checkpoint(out / "checkpoint.json", expected_n_actions=ctx.env.n_actions)
    traj = rollout(agent, ctx.env, ctx.reward_spec, seed=[0, 1], phi=ctx.phi)
    export_csv(traj, out / "traj.csv")
    back = read_trajectory_csv(out / "traj.csv", list(ctx.env.schema))
    for name in ("states", "actions", "rewards", "rho_psi", "gamma_lower", "margin",
                 "satisfied_so_far"):
        assert np.array_equal(getattr(traj, name), getattr(back, name), equal_nan=True), name
    assert check_satisfaction(ctx.phi, back) == check_satisfaction(ctx.phi, traj)
