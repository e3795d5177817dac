import dataclasses
import json
import math

import numpy as np
import pytest

from stlfunnel.dqn import (
    CheckpointError, NeuralAgent, ReplayBuffer, TrainConfig, epsilon_at,
    epsilon_greedy, load_checkpoint, save_checkpoint, td_target, train,
)
from stlfunnel.envs import EnvConfig, make_env
from stlfunnel.funnel import build_schedule
from stlfunnel.reward import MODE_FUNNEL, RewardSpec
from stlfunnel.robustness import RhoBounds
from stlfunnel.stl.formula import temporal_conjuncts
from stlfunnel.stl.parser import parse_formula


def tiny_problem(horizon=5, seed=0, **cfg_kwargs):
    env = make_env(EnvConfig(kind="integrator", tau=0.5, horizon=horizon,
                             reset_fixed=(0.0,)))
    phi = parse_formula(f"G[2,{horizon}](x >= 0.2)", ["x"])
    sched = build_schedule(phi, [RhoBounds(-3.0, 3.0)], horizon)
    spec = RewardSpec(schedule=sched,
                      psis=tuple(c.body for c in temporal_conjuncts(phi)),
                      mode=MODE_FUNNEL)
    cfg = TrainConfig(total_steps=cfg_kwargs.pop("total_steps", 300),
                      batch_size=8, target_update_freq=25, eval_freq=100,
                      eval_episodes=1, hidden_sizes=(16,), replay_capacity=500,
                      seed=seed, **cfg_kwargs)
    return env, phi, spec, cfg


# Epsilon schedule -------------------------------------------------------------

def test_epsilon_schedule_endpoints_and_midpoint():
    cfg = TrainConfig(total_steps=1000, epsilon_start=1.0, epsilon_end=0.05,
                      epsilon_decay_steps=400)
    assert epsilon_at(cfg, 0) == 1.0
    assert epsilon_at(cfg, 200) == pytest.approx(0.525)
    assert epsilon_at(cfg, 400) == 0.05
    assert epsilon_at(cfg, 10 ** 9) == 0.05


def test_epsilon_decay_defaults_to_half_the_run():
    cfg = TrainConfig(total_steps=1000)
    assert cfg.decay_steps == 500
    assert epsilon_at(cfg, 500) == cfg.epsilon_end


# Action selection -------------------------------------------------------------

def test_greedy_when_epsilon_zero_with_low_index_ties():
    rng = np.random.default_rng(0)
    assert epsilon_greedy(lambda: np.array([1.0, 3.0, 2.0]), 0.0, rng, 3) == 1
    assert epsilon_greedy(lambda: np.array([2.0, 2.0, 1.0]), 0.0, rng, 3) == 0


def test_epsilon_greedy_action_frequencies():
    rng = np.random.default_rng(123)
    q = np.array([0.0, 0.0, 1.0, 0.0])
    n = 100_000
    counts = np.zeros(4)
    for _ in range(n):
        counts[epsilon_greedy(lambda: q, 0.2, rng, 4)] += 1
    freqs = counts / n
    # Greedy action: 1 - eps + eps/|A| = 0.85; each other: eps/|A| = 0.05.
    assert freqs[2] == pytest.approx(0.85, abs=0.01)
    for i in (0, 1, 3):
        assert freqs[i] == pytest.approx(0.05, abs=0.01)


def test_epsilon_greedy_validates_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        epsilon_greedy(lambda: np.array([]), 0.1, rng, 0)
    with pytest.raises(ValueError):
        epsilon_greedy(lambda: np.array([1.0]), 1.5, rng, 1)


def test_epsilon_greedy_calls_a_q_function_only_on_greedy_steps():
    q = np.array([0.3, 1.0, -2.0, 0.5])
    calls = []

    def q_fn():
        calls.append(None)
        return q

    rng, replay = np.random.default_rng(5), np.random.default_rng(5)
    greedy_steps = 0
    for eps in (0.0, 0.3, 0.97, 1.0) * 250:
        explores = eps > 0 and replay.random() < eps
        want = int(replay.integers(0, 4)) if explores else 1
        assert epsilon_greedy(q_fn, eps, rng, 4) == want
        greedy_steps += not explores
    assert len(calls) == greedy_steps
    assert 250 < greedy_steps < 1000
    assert rng.bit_generator.state == replay.bit_generator.state


# Replay buffer ----------------------------------------------------------------

def test_replay_ring_overwrites_oldest():
    buf = ReplayBuffer(capacity=4, state_dim=1)
    for i in range(6):
        buf.add([float(i)], i, 0.0, [0.0], 0, False)
    assert len(buf) == 4
    assert sorted(buf.s[:, 0]) == [2.0, 3.0, 4.0, 5.0]


def test_replay_sampling_is_uniform():
    buf = ReplayBuffer(capacity=100, state_dim=1)
    for i in range(100):
        buf.add([float(i)], i, 0.0, [0.0], 0, False)
    rng = np.random.default_rng(7)
    draws = buf.sample(100_000, rng)["a"]
    observed = np.bincount(draws, minlength=100)
    expected = len(draws) / 100
    chi2 = np.sum((observed - expected) ** 2 / expected)
    # p > 0.01 at 99 degrees of freedom: below the chi-square 0.99 quantile.
    assert chi2 < 134.64161685578915


def test_replay_empty_sample_rejected():
    buf = ReplayBuffer(capacity=4, state_dim=1)
    with pytest.raises(ValueError):
        buf.sample(1, np.random.default_rng(0))


# TD targets -------------------------------------------------------------------

class _FixedTargetAgent:
    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)

    def target_q_batch(self, S, T):
        return np.vstack([self.table for _ in np.atleast_2d(S)])


def test_td_target_arithmetic():
    agent = _FixedTargetAgent([1.0, 2.0, -0.5])
    batch = {
        "s_next": np.zeros((3, 1)),
        "t": np.array([0, 4, 1]),
        "r": np.array([0.8, 1.0, -1.51]),
        "terminal": np.array([False, True, False]),
    }
    y = td_target(batch, agent, discount=1.0, horizon=5)
    # Non-terminal: r + max Q = 0.8 + 2 = 2.8; terminal: r alone.
    assert y == pytest.approx([2.8, 1.0, 0.49])


def test_td_target_discount():
    agent = _FixedTargetAgent([2.0])
    batch = {"s_next": np.zeros((1, 1)), "t": np.array([0]),
             "r": np.array([1.0]), "terminal": np.array([False])}
    y = td_target(batch, agent, discount=0.9, horizon=5)
    assert y[0] == pytest.approx(2.8)


def test_td_target_rejects_nonterminal_beyond_horizon():
    agent = _FixedTargetAgent([0.0])
    batch = {"s_next": np.zeros((1, 1)), "t": np.array([5]),
             "r": np.array([0.0]), "terminal": np.array([False])}
    with pytest.raises(ValueError, match="horizon"):
        td_target(batch, agent, discount=0.9, horizon=5)


def test_update_loss_is_mean_squared_td_error():
    rng = np.random.default_rng(70)
    agent = NeuralAgent(2, 7, (16, 16), 20, 1e-3, rng)
    buffer = ReplayBuffer(200, 2)
    for _ in range(200):
        t = int(rng.integers(0, 20))
        buffer.add(rng.normal(size=2), int(rng.integers(0, 7)), rng.normal(),
                   rng.normal(size=2), t, t == 19)
    for m in (1, 5, 32, 64):
        batch = buffer.sample(m, rng)
        y = td_target(batch, agent, 0.95, 20)
        out, _ = agent.net.forward_batch(agent._input_batch(batch["s"], batch["t"]))
        err = out[np.arange(m), batch["a"]] - y
        assert agent.update(batch, 0.95) == pytest.approx(float(np.mean(err ** 2)),
                                                          rel=1e-12, abs=0)
        # The update's sum-then-divide gives the bits of np.mean itself.
        assert float(np.add.reduce(err * err)) / m == float(np.mean(err ** 2))


# Training loop ----------------------------------------------------------------

def test_training_same_seed_is_bit_identical():
    env, phi, spec, cfg = tiny_problem(seed=5)
    r1 = train(env, spec, phi, cfg)
    r2 = train(env, spec, phi, cfg)
    for a, b in zip(r1.agent.net.weights, r2.agent.net.weights):
        assert np.array_equal(a, b)
    np.testing.assert_array_equal([row.loss for row in r1.log],
                                  [row.loss for row in r2.log])


def test_training_seed_changes_outcome():
    env, phi, spec, _ = tiny_problem(seed=1)
    _, _, _, cfg2 = tiny_problem(seed=2)
    _, _, _, cfg1 = tiny_problem(seed=1)
    r1 = train(env, spec, phi, cfg1)
    r2 = train(env, spec, phi, cfg2)
    assert not all(np.array_equal(a, b) for a, b in
                   zip(r1.agent.net.weights, r2.agent.net.weights))


def test_training_zero_steps_is_a_no_op():
    env, phi, spec, cfg = tiny_problem(total_steps=0)
    result = train(env, spec, phi, cfg)
    assert result.episodes == 0
    assert result.log == []


def test_training_counts_episodes():
    env, phi, spec, cfg = tiny_problem(horizon=5, total_steps=50)
    result = train(env, spec, phi, cfg)
    assert result.episodes == 10  # 50 steps / 5 steps per episode


def test_training_log_records_evaluations():
    env, phi, spec, cfg = tiny_problem(total_steps=300)
    result = train(env, spec, phi, cfg)
    steps = [row.step for row in result.log]
    assert steps == [0, 100, 200, 300]  # periodic evals plus a final one
    for row in result.log[1:]:
        assert math.isfinite(row.loss)
        assert 0.0 <= row.eval_satisfaction <= 1.0


def test_horizon_mismatch_rejected():
    env, phi, spec, cfg = tiny_problem(horizon=5)
    bad_env = make_env(EnvConfig(kind="integrator", tau=0.5, horizon=6,
                                 reset_fixed=(0.0,)))
    with pytest.raises(ValueError, match="horizon"):
        train(bad_env, spec, phi, cfg)


def test_tiny_task_is_learnable():
    # Hold x >= 0.2 from step 2 on; moving right immediately suffices.
    env, phi, spec, cfg = tiny_problem(total_steps=3000, seed=3)
    from stlfunnel import evalmon
    result = train(env, spec, phi, cfg)
    traj = evalmon.rollout(result.agent, env, spec, seed=0, greedy=True)
    rep = evalmon.check_satisfaction(phi, traj)
    assert rep.satisfied


# Checkpointing ----------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    env, phi, spec, cfg = tiny_problem(total_steps=200)
    result = train(env, spec, phi, cfg)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(result.agent, path, cfg.digest(), meta={"steps_done": 200})
    loaded = load_checkpoint(path, expected_n_actions=env.n_actions,
                             config_digest=cfg.digest())
    s = env.reset(np.random.default_rng(0))
    for t in range(env.horizon):
        assert np.array_equal(loaded.q_values(s, t), result.agent.q_values(s, t))
    assert loaded.meta == {"steps_done": 200}
    assert loaded.optimizer.step_count == result.agent.optimizer.step_count


def rewrite_checkpoint(path, edit):
    """Apply edit(header, arrays) to the checkpoint at path and save it back."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    header = json.loads(arrays.pop("header").tobytes())
    edit(header, arrays)
    with open(path, "wb") as fh:
        np.savez(fh, header=np.frombuffer(json.dumps(header).encode(), np.uint8), **arrays)


def test_checkpoint_corrupt_file(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(b"PK\x03\x04 not a whole archive")
    with pytest.raises(CheckpointError, match="corrupt"):
        load_checkpoint(path)
    with open(path, "wb") as fh:
        np.savez(fh, header=np.frombuffer(b'{"layer_sizes": [2, 1]}', np.uint8))
    with pytest.raises(CheckpointError, match="corrupt.*missing 'version'"):
        load_checkpoint(path)
    path.write_text(json.dumps({"version": 1}))
    with pytest.raises(CheckpointError, match="version-1 JSON checkpoint"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    env, phi, spec, cfg = tiny_problem(total_steps=10)
    result = train(env, spec, phi, cfg)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(result.agent, path)
    rewrite_checkpoint(path, lambda header, arrays: header.update(version=99))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_action_count_mismatch(tmp_path):
    env, phi, spec, cfg = tiny_problem(total_steps=10)
    result = train(env, spec, phi, cfg)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(result.agent, path)
    with pytest.raises(CheckpointError, match="actions"):
        load_checkpoint(path, expected_n_actions=7)
    with pytest.raises(CheckpointError, match="horizon 5, environment expects 6"):
        load_checkpoint(path, expected_horizon=6)
    with pytest.raises(CheckpointError, match="state_dim 1, environment expects 2"):
        load_checkpoint(path, expected_state_dim=2)
    load_checkpoint(path, expected_n_actions=env.n_actions, expected_horizon=env.horizon,
                    expected_state_dim=len(env.schema))


def test_agent_parameters_stay_views_through_sync_clone_and_load(tmp_path):
    env, phi, spec, cfg = tiny_problem(total_steps=200)
    agent = train(env, spec, phi, cfg).agent

    def check_views(a):
        for net in (a.net, a.target_net):
            for arr in net.weights + net.biases:
                assert np.shares_memory(arr, net.params)

    agent.sync_target()
    check_views(agent)
    assert np.array_equal(agent.target_net.params, agent.net.params)
    assert not np.shares_memory(agent.target_net.params, agent.net.params)

    twin = agent.clone()
    check_views(twin)
    pairs = [(twin.net.params, agent.net.params),
             (twin.target_net.params, agent.target_net.params),
             (twin.optimizer.m, agent.optimizer.m), (twin.optimizer.v, agent.optimizer.v)]
    for mine, theirs in pairs:
        assert np.array_equal(mine, theirs)
        assert not np.shares_memory(mine, theirs)
    assert twin.optimizer.net is twin.net
    assert twin.optimizer.step_count == agent.optimizer.step_count
    before = [mine.copy() for mine, _ in pairs]
    batch = {"s": np.zeros((4, 1)), "a": np.array([0, 1, 2, 3]),
             "r": np.array([0.1, 0.2, 0.3, 0.4]), "s_next": np.ones((4, 1)),
             "t": np.array([0, 1, 2, 3]), "terminal": np.array([False] * 4)}
    agent.update(batch, 0.9)
    agent.sync_target()
    for (mine, theirs), old in zip(pairs, before):
        assert np.array_equal(mine, old)
        assert not np.array_equal(theirs, old)

    path = tmp_path / "ckpt.npz"
    save_checkpoint(agent, path)
    loaded = load_checkpoint(path)
    check_views(loaded)
    assert np.array_equal(loaded.net.params, agent.net.params)
    assert np.array_equal(loaded.target_net.params, agent.net.params)
    assert np.array_equal(loaded.optimizer.m, agent.optimizer.m)
    assert np.array_equal(loaded.optimizer.v, agent.optimizer.v)
    assert loaded.optimizer.step_count == agent.optimizer.step_count
    # Only a network that trains holds gradient and optimizer scratch space.
    for idle in (agent.target_net, twin.net, twin.target_net, loaded.net, loaded.target_net):
        assert idle.grad is None
    assert agent.net.grad is not None
    assert twin.optimizer._scratch is None and loaded.optimizer._scratch is None


def test_checkpoint_digest_mismatch_warns_only(tmp_path, caplog):
    env, phi, spec, cfg = tiny_problem(total_steps=10)
    result = train(env, spec, phi, cfg)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(result.agent, path, config_digest="aaaa")
    with caplog.at_level("WARNING", logger="stlfunnel.dqn"):
        load_checkpoint(path, config_digest="bbbb")
    assert any("digest" in r.message for r in caplog.records)


def test_checkpoint_is_written_to_exactly_the_given_path(tmp_path):
    env, phi, spec, cfg = tiny_problem(total_steps=10)
    agent = train(env, spec, phi, cfg).agent
    save_checkpoint(agent, tmp_path / "x.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]
    assert np.array_equal(load_checkpoint(tmp_path / "x.json").net.params, agent.net.params)


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    env, phi, spec, cfg = tiny_problem(total_steps=50)
    first = train(env, spec, phi, cfg).agent
    path = tmp_path / "ckpt.npz"
    save_checkpoint(first, path)
    before = path.read_bytes()

    second = train(env, spec, phi, dataclasses.replace(cfg, seed=1)).agent
    write_array = np.lib.format.write_array
    calls = []

    def fail_on_second_array(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise OSError("disk full")
        write_array(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", fail_on_second_array)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(second, path)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.npz"]
    assert path.read_bytes() == before
    loaded = load_checkpoint(path)
    s = env.reset(np.random.default_rng(0))
    for t in range(env.horizon):
        assert np.array_equal(loaded.q_values(s, t), first.q_values(s, t))
        assert not np.array_equal(loaded.q_values(s, t), second.q_values(s, t))


# Config -----------------------------------------------------------------------

def test_train_config_validation():
    with pytest.raises(ValueError, match="discount"):
        TrainConfig(discount=1.0)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="epsilon"):
        TrainConfig(epsilon_start=0.1, epsilon_end=0.5)


def test_train_config_digest_tracks_contents():
    a = TrainConfig(seed=0)
    b = TrainConfig(seed=0)
    c = TrainConfig(seed=1)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
