import io
import json
from pathlib import Path

import numpy as np
import pytest

from stlfunnel.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, main
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


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED_CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


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
    assert (out / "checkpoint.npz").exists()
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
    first = (out1 / "checkpoint.npz").read_bytes()
    cfg2, out2 = write_config(tmp_path, out_name="b")
    assert main(["train", "--config", str(cfg2)]) == EXIT_OK
    assert (out2 / "checkpoint.npz").read_bytes() == first


def test_train_seed_flag_changes_result(tmp_path):
    cfg1, out1 = write_config(tmp_path, out_name="a")
    main(["train", "--config", str(cfg1)])
    cfg2, out2 = write_config(tmp_path, out_name="b")
    main(["train", "--config", str(cfg2), "--seed", "9"])
    assert ((out1 / "checkpoint.npz").read_bytes()
            != (out2 / "checkpoint.npz").read_bytes())


def test_train_resume_continues_step_count(tmp_path):
    cfg, out = write_config(tmp_path)
    main(["train", "--config", str(cfg)])
    cfg2, out2 = write_config(tmp_path, out_name="resumed")
    assert main(["train", "--config", str(cfg2),
                 "--resume", str(out / "checkpoint.npz")]) == EXIT_OK
    meta = json.loads((out2 / "run_meta.json").read_text())
    assert meta["steps_done"] == 600
    assert load_checkpoint(out2 / "checkpoint.npz").meta["steps_done"] == 600


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
                 "--checkpoint", str(out / "checkpoint.npz"),
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
              "--checkpoint", str(out / "checkpoint.npz"), "--episodes", "2"])
    assert (a / "trajectory_001.csv").read_bytes() == (b / "trajectory_001.csv").read_bytes()


# error paths ------------------------------------------------------------------

def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["funnel", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b"\xff\xfe{}")
    assert main(["funnel", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config {cfg} is not valid JSON: ")
    assert len(err.splitlines()) == 1


# tau = 1e308 overflows the integrator's state at step 2 of a greedy rollout:
# the eval episode, or the evaluation train runs at step 0.
DIVERGING = ["--config", str(CONFIG_DIR / "integrator_reach_stay.json"),
             "--set", "environment.tau=1e308"]


def assert_one_diverged_line(capsys):
    assert capsys.readouterr().err == "diverged: non-finite state at step 2: dynamics diverged\n"


def test_diverging_train_is_one_line_exit_3(tmp_path, capsys):
    assert main(["train", *DIVERGING, "--out", str(tmp_path),
                 "--set", "training.total_steps=1"]) == EXIT_DIVERGED
    assert_one_diverged_line(capsys)


def test_diverging_eval_is_one_line_exit_3(tmp_path, capsys):
    untrained = ["--set", "training.total_steps=0"]
    assert main(["train", *DIVERGING, *untrained, "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", *DIVERGING, *untrained, "--out", str(tmp_path / "eval"),
                 "--checkpoint", str(tmp_path / "checkpoint.npz"),
                 "--episodes", "1"]) == EXIT_DIVERGED
    assert_one_diverged_line(capsys)


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


# Every key path of a shipped config, overridden with a value of each JSON type,
# exits 0 or 2: a malformed value is one "config error: <section>: ..." line,
# never a traceback. training.* overrides run `train` (zero steps unless the
# step count is under test), everything else `funnel`.

INTEGRATOR = CONFIG_DIR / "integrator_reach_stay.json"
ODD_VALUES = ["null", "true", '"x"', "[1]", '{"a": 1}', "-1", "0", "1.5"]


def key_paths(node, prefix=""):
    for key, value in node.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from key_paths(value, f"{prefix}{key}.")


def run_override(override: str) -> int:
    argv = ["funnel", "--config", str(INTEGRATOR), "--set", override]
    if override.startswith("training."):
        argv[0] = "train"
        if not override.startswith("training.total_steps="):
            argv += ["--set", "training.total_steps=0"]
    return main(argv)


@pytest.mark.parametrize("path", list(key_paths(load_config(INTEGRATOR))))
def test_any_override_exits_0_or_one_config_error_line(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the config's relative output_dir lands here
    for value in ODD_VALUES:
        code = run_override(f"{path}={value}")
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_CONFIG), (value, err)
        if code == EXIT_CONFIG:
            assert len(err.splitlines()) == 1, (value, err)


@pytest.mark.parametrize("override, section", [
    ("spec.formula=5", "spec.formula"),
    ("spec.formula=[1]", "spec.formula"),
    ("spec.box.x=5", "spec"),
    ('spec.t_star.0="a"', "spec"),
    ("spec.rho_bounds=[1]", "spec"),
    ("spec.rho_bounds.0=1.5", "spec"),
    ("spec.gamma_inf.0=null", "spec"),
    ("environment.horizon=null", "environment"),
    ("environment.tau=null", "environment"),
    ("environment.reset=3", "environment"),
    ("environment.reset.low=0", "environment"),
    ("training=[1]", "training"),
    ("output_dir=null", "output_dir"),
    ("environment.horizon=1e400", "environment"),
    ("spec.t_star.0=1e400", "spec"),
    ('training.hidden_sizes=["a"]', "training"),
    ("training.hidden_sizes=[0]", "training"),
    ('training.seed="a"', "training"),
    ("training.total_steps=1.5", "training"),
    ('training.epsilon_decay_steps="a"', "training"),
    ("training.batch_size=2.5", "training"),
    ("environment.tau=NaN", "environment"),
    ("environment.tau=1e400", "environment"),
    ("environment.reset.low=[NaN]", "environment"),
    ("environment.reset.high=[1e400]", "environment"),
    ('environment.reset={"kind": "fixed", "value": [NaN]}', "environment"),
    ("environment.constants.g=NaN", "environment"),
    ("environment.constants.m=1e400", "environment"),
    ("training.lr=NaN", "training"),
    ("training.lr=1e400", "training"),
    ("training.state_scale=[1e400]", "training"),
    ("spec.rho_bounds.0=[NaN,5]", "spec"),
    ("spec.rho_bounds.0=[-1e400,5]", "spec"),
])
def test_malformed_value_is_config_error_naming_its_section(override, section, tmp_path,
                                                           monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_override(override) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {section}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("config, override, message", [
    ("pendulum_three_phase", "environment.constants.mass=7",
     "unknown constant 'mass' for pendulum, which has g, m, l, mu"),
    ("integrator_reach_stay", "environment.constants.bogus=7",
     "unknown constant 'bogus' for integrator, which has no constants"),
])
def test_unknown_environment_constant_is_config_error(config, override, message, tmp_path,
                                                      capsys):
    argv = ["funnel", "--config", str(CONFIG_DIR / f"{config}.json"),
            "--out", str(tmp_path), "--set", override]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: environment: {message}\n"


def test_missing_key_names_section_and_key(tmp_path, capsys):
    env = {k: v for k, v in BASE_CONFIG["environment"].items() if k != "kind"}
    cfg, _ = write_config(tmp_path, environment=env)
    assert main(["funnel", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: environment: missing required key 'kind'\n"


def monitor_verdict(tmp_path, capsys, text: str):
    cfg, _ = write_config(tmp_path)
    traj = tmp_path / "traj.csv"
    traj.write_text(text)
    code = main(["monitor", "--config", str(cfg), "--trajectory", str(traj)])
    out = capsys.readouterr().out
    verdict = json.loads(out)
    del verdict["trajectory"]
    return code, verdict


def test_monitor_reads_only_t_and_state_columns(tmp_path, capsys):
    # monitor neither requires nor parses the columns that are not states.
    rows = [f"{t},{0.1 * t + 0.05:.17g},3,-0.5,{0.1 * t - 0.15:.17g}" for t in range(9)]
    clean = "t,x,action,reward,rho_psi_0\n" + "\n".join(rows) + "\n"
    bad_reward = clean.replace(",-0.5,", ",abc,")
    no_rho = "\n".join(line.rsplit(",", 1)[0] for line in clean.splitlines()) + "\n"
    assert "abc" in bad_reward and "rho_psi_0" not in no_rho
    code, want = monitor_verdict(tmp_path, capsys, clean)
    assert code == EXIT_OK and want["satisfied"] is True
    for text in (bad_reward, no_rho):
        assert monitor_verdict(tmp_path, capsys, text) == (EXIT_OK, want)


@pytest.mark.parametrize("formula, reason", [
    ("x >= 0", "top-level conjunct x >= 0 has no temporal operator"),
    ("x >= 0 | G[0,2](x >= 1)", "is a disjunction over a temporal operator"),
    ("!G[0,2](x >= 0)", "is a negation over a temporal operator"),
])
def test_formula_outside_fragment_names_the_reason(formula, reason, tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.chdir(tmp_path)
    assert run_override(f"spec.formula={json.dumps(formula)}") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: spec.formula: ")
    assert reason in err
    assert "neither" not in err
    assert len(err.splitlines()) == 1


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
    (b"t,x\n1,1.0\n0,1.0\n", "column 't' reads '1' at data row 1, expected 0"),
    (b"t,x\n0,1.0\n2,1.0\n", "column 't' reads '2' at data row 2, expected 1"),
    (b"t,x\n0,1.0\n0,1.0\n", "column 't' reads '0' at data row 2, expected 1"),
    (b"t,x\n", "trajectory CSV has no data rows"),
    (b"t,x\n0,1.0\n1,1.0,\n", "data row 2 has 3 fields, the header has 2"),
], ids=["too-short", "missing-column", "non-numeric", "nan", "inf", "ragged-row", "not-text",
        "t-reversed", "t-gap", "t-duplicate", "no-rows", "trailing-comma"])
def test_bad_trajectory_is_one_line_error(tmp_path, capsys, csv_bytes, message):
    cfg, _ = write_config(tmp_path)
    traj = tmp_path / "bad.csv"
    traj.write_bytes(csv_bytes)
    assert main(["monitor", "--config", str(cfg), "--trajectory", str(traj)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("trajectory error: ")
    assert message in err
    assert len(err.splitlines()) == 1


# A bad checkpoint edit takes the header dict and the arrays of a good
# checkpoint and either changes them in place (the test writes them back as an
# .npz) or returns the bytes to write instead.

TRIPPED = []


def _trip():
    TRIPPED.append("unpickled")


class Tripwire:
    """Unpickling one records it: a loader that refuses pickles never does."""

    def __reduce__(self):
        return _trip, ()


def npz_bytes(header, arrays) -> bytes:
    if not isinstance(header, bytes):
        header = json.dumps(header).encode()
    buf = io.BytesIO()
    np.savez(buf, header=np.frombuffer(header, np.uint8), **arrays)
    return buf.getvalue()


def _drop(key):
    def edit(header, arrays):
        del header[key]
    return edit


def _set(key, value):
    def edit(header, arrays):
        header[key] = value
    return edit


def _truncated(header, arrays):
    return npz_bytes(header, arrays)[:-10]


def _not_zip(header, arrays):
    return b"\x93NUMPY this is not a zip archive\n"


def _v1_json(header, arrays):
    return json.dumps({"version": 1, "weights": [], "biases": []}).encode()


def _header_not_json(header, arrays):
    return npz_bytes(b'{"version": 2, ', arrays)


def _params_one_short(header, arrays):
    arrays["params"] = arrays["params"][:-1]


def _params_one_long(header, arrays):
    arrays["params"] = np.append(arrays["params"], 0.0)


def _layer_missing(header, arrays):
    del header["layer_sizes"][1]


def _moment_wrong_length(header, arrays):
    arrays["adam_v"] = arrays["adam_v"][:7]


def _moment_missing(header, arrays):
    del arrays["adam_m"]


def _params_object(header, arrays):
    arrays["params"] = np.array([Tripwire()] * arrays["params"].size, dtype=object)


def _steps_done(value):
    def edit(header, arrays):
        header["meta"]["steps_done"] = value
    return edit


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ckpt")
    cfg, out = write_config(tmp)
    assert main(["train", "--config", str(cfg)]) == EXIT_OK
    return (out / "checkpoint.npz").read_bytes()


# (edit, message, id) for edits that both eval and train --resume reject.
LOADER_CASES = [
    (_truncated, "corrupt checkpoint", "truncated"),
    (_not_zip, "is not an .npz archive, this stlfunnel reads version 2", "not-zip"),
    (_v1_json, "is a version-1 JSON checkpoint, this stlfunnel reads version 2", "v1-json"),
    (_header_not_json, "corrupt checkpoint", "invalid-json"),
    (_set("version", 99), "checkpoint version 99 unsupported (expected 2)", "version"),
    (_params_one_short,
     "params is float64 (268,), layer_sizes [2, 16, 13] need float64 (269,)", "weight-row-short"),
    (_params_one_long, "params is float64 (270,)", "bias-too-long"),
    (_moment_wrong_length,
     "adam_v is float64 (7,), layer_sizes [2, 16, 13] need float64 (269,)", "moment-shape"),
    (_layer_missing,
     "params is float64 (269,), layer_sizes [2, 13] need float64 (39,)", "layer-missing"),
    (_params_object, "Object arrays cannot be loaded when allow_pickle=False", "object-dtype"),
    (_drop("n_actions"), "missing key 'n_actions'", "no-n_actions"),
    (_drop("state_dim"), "missing key 'state_dim'", "no-state_dim"),
    (_drop("horizon"), "missing key 'horizon'", "no-horizon"),
    (_drop("optimizer"), "missing key 'optimizer'", "no-optimizer"),
    (_moment_missing, "missing array 'adam_m'", "no-moment"),
    (_set("horizon", 9), "checkpoint has horizon 9, environment expects 8", "horizon-mismatch"),
    (_set("meta", [1]), "meta is not a JSON object", "meta-not-object"),
]
# Edits that only train --resume reads: eval ignores the step count.
RESUME_CASES = [
    (_steps_done("many"), "meta.steps_done must be a nonnegative integer, got 'many'",
     "steps-done-not-int"),
    (_steps_done(-5), "meta.steps_done must be a nonnegative integer, got -5",
     "steps-done-negative"),
]


@pytest.mark.parametrize("command, edit, message", [
    *(pytest.param(command, edit, message, id=f"{case}-{command}")
      for command in ("eval", "train") for edit, message, case in LOADER_CASES),
    *(pytest.param("train", edit, message, id=f"{case}-train")
      for edit, message, case in RESUME_CASES),
])
def test_bad_checkpoint_is_one_line_error(tmp_path, capsys, trained_checkpoint,
                                          command, edit, message):
    cfg, _ = write_config(tmp_path)
    with np.load(io.BytesIO(trained_checkpoint)) as archive:
        arrays = {name: archive[name] for name in archive.files}
    header = json.loads(arrays.pop("header").tobytes())
    raw = edit(header, arrays)
    ckpt = tmp_path / "bad.npz"
    ckpt.write_bytes(npz_bytes(header, arrays) if raw is None else raw)
    flag = "--checkpoint" if command == "eval" else "--resume"
    assert main([command, "--config", str(cfg), flag, str(ckpt)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error: ")
    assert message in err
    assert len(err.splitlines()) == 1
    assert TRIPPED == []


def test_eval_rejects_checkpoint_of_another_horizon(tmp_path, capsys):
    config = str(CONFIG_DIR / "integrator_reach_stay.json")
    out = tmp_path / "train"
    assert main(["train", "--config", config, "--out", str(out),
                 "--set", "training.total_steps=0"]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", "--config", config, "--out", str(tmp_path / "eval"),
                 "--checkpoint", str(out / "checkpoint.npz"), "--episodes", "1",
                 "--set", "environment.horizon=100",
                 "--set", "spec.formula=G[0,100](abs(x-5) <= 5 | abs(x-45) <= 5)",
                 "--set", "spec.t_star.0=80"]) == EXIT_IO
    err = capsys.readouterr().err
    assert err == "checkpoint error: checkpoint has horizon 200, environment expects 100\n"


def test_eval_does_not_compare_config_digests(tmp_path, caplog):
    cfg, out = write_config(tmp_path, training={**BASE_CONFIG["training"], "total_steps": 0})
    evaluate = ["eval", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.npz"),
                "--episodes", "1"]
    assert main(["train", "--config", str(cfg)]) == EXIT_OK
    with caplog.at_level("WARNING", logger="stlfunnel.dqn"):
        assert main([*evaluate, "--out", str(tmp_path / "same")]) == EXIT_OK
        assert main([*evaluate, "--out", str(tmp_path / "other"), "--seed", "5"]) == EXIT_OK
    assert not any("digest" in r.message for r in caplog.records)


def test_resume_warns_when_config_digest_differs(tmp_path, caplog):
    cfg, out = write_config(tmp_path, training={**BASE_CONFIG["training"], "total_steps": 0})
    resume = ["train", "--config", str(cfg), "--resume", str(out / "checkpoint.npz")]
    assert main(["train", "--config", str(cfg)]) == EXIT_OK
    with caplog.at_level("WARNING", logger="stlfunnel.dqn"):
        assert main([*resume, "--out", str(tmp_path / "same")]) == EXIT_OK
        assert not any("digest" in r.message for r in caplog.records)
        assert main([*resume, "--out", str(tmp_path / "other"),
                     "--set", "training.lr=0.01"]) == EXIT_OK
    assert any("digest" in r.message for r in caplog.records)


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
def test_shipped_config_runs_end_to_end(path, tmp_path, assert_monitor_columns_exact):
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

    agent = load_checkpoint(out / "checkpoint.npz", expected_n_actions=ctx.env.n_actions)
    traj = rollout(agent, ctx.env, ctx.reward_spec, seed=[0, 1], phi=ctx.phi)
    export_csv(traj, out / "traj.csv")
    back = read_trajectory_csv(out / "traj.csv", list(ctx.env.schema))
    assert np.array_equal(traj.states, back.states)
    assert_monitor_columns_exact(traj, out / "traj.csv")
    assert check_satisfaction(ctx.phi, back) == check_satisfaction(ctx.phi, traj)
    assert traj.satisfied_so_far[-1] == check_satisfaction(ctx.phi, traj).satisfied
