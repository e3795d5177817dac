import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import action_index

from stlfunnel.config import build_run, load_config
from stlfunnel.dqn import NeuralAgent, TrainConfig, epsilon_greedy, train
from stlfunnel.envs import EnvConfig, IntegratorEnv, make_env
from stlfunnel import evalmon
from stlfunnel.evalmon import (
    Trajectory, TrajectoryError, check_satisfaction, export_csv, export_funnel_csv,
    fill_prefix_satisfaction, read_trajectory_csv, rollout,
)
from stlfunnel.funnel import build_schedule, gamma_eval
from stlfunnel.reward import (
    MODE_ABLATION, MODE_FUNNEL, RewardSpec, reward,
)
from stlfunnel.robustness import RhoBounds, rho_pointwise
from stlfunnel.stl.formula import temporal_conjuncts
from stlfunnel.stl.parser import parse_formula


def integrator_problem(horizon=8):
    env = make_env(EnvConfig(kind="integrator", tau=0.5, horizon=horizon,
                             reset_fixed=(0.0,)))
    phi = parse_formula(f"G[2,{horizon}](x >= 0.2)", ["x"])
    sched = build_schedule(phi, [RhoBounds(-3.0, 3.0)], horizon)
    spec = RewardSpec(schedule=sched,
                      psis=tuple(c.body for c in temporal_conjuncts(phi)),
                      mode=MODE_FUNNEL)
    return env, phi, spec


class _ConstantAgent:
    """Always picks the same action index."""

    def __init__(self, action, n_actions):
        self.action = action
        self.n_actions = n_actions

    def q_values(self, s, t):
        q = np.zeros(self.n_actions)
        q[self.action] = 1.0
        return q


def synthetic_trajectory(values, phi, spec=None, schema=("x",)):
    n = len(values)
    states = np.asarray(values, dtype=float).reshape(n, -1)
    psis = spec.psis if spec is not None else ()
    rho = np.array([[float(rho_pointwise(p, dict(zip(schema, row))))
                     for p in psis] for row in states]).reshape(n, len(psis))
    traj = Trajectory(
        schema=tuple(schema), states=states,
        actions=np.full(n, -1, dtype=np.int64), rewards=np.zeros(n),
        rho_psi=rho, gamma_lower=np.full(n, np.nan),
        margin=np.full(n, np.nan), satisfied_so_far=np.ones(n))
    fill_prefix_satisfaction(traj, phi)
    return traj


# Rollouts ---------------------------------------------------------------------

def test_rollout_shapes_and_final_action():
    env, phi, spec = integrator_problem()
    agent = _ConstantAgent(action_index(env.grid, (3.0,)), env.n_actions)
    traj = rollout(agent, env, spec, seed=0)
    assert traj.states.shape == (9, 1)
    assert traj.actions[-1] == -1
    assert all(a >= 0 for a in traj.actions[:-1])
    assert traj.horizon == 8


def test_rollout_constant_policy_dynamics():
    env, phi, spec = integrator_problem()
    agent = _ConstantAgent(action_index(env.grid, (3.0,)), env.n_actions)
    traj = rollout(agent, env, spec, seed=0)
    # x grows by tau * v = 1.5 per step from 0.
    assert traj.states[:, 0] == pytest.approx(1.5 * np.arange(9))


def test_rollout_records_reward_and_monitor_columns():
    env, phi, spec = integrator_problem()
    agent = _ConstantAgent(action_index(env.grid, (3.0,)), env.n_actions)
    traj = rollout(agent, env, spec, seed=0, phi=phi)
    for t in range(traj.horizon + 1):
        sd = env.state_dict(traj.states[t])
        assert traj.rewards[t] == pytest.approx(reward(spec, sd, t), abs=1e-12)
        seg = spec.schedule.active_segments(t)[0]
        assert traj.gamma_lower[t] == pytest.approx(-gamma_eval(seg, t) + seg.params.rho_max, abs=1e-12)
        assert traj.margin[t] == pytest.approx(traj.rewards[t], abs=1e-12)
    assert traj.satisfied_so_far.tolist() == [1.0] * 9


def test_rollout_deterministic_given_seed():
    env, phi, spec = integrator_problem()
    cfg = TrainConfig(total_steps=200, batch_size=8, target_update_freq=25,
                      eval_freq=100, eval_episodes=1, hidden_sizes=(16,),
                      replay_capacity=500, seed=0)
    agent = train(env, spec, phi, cfg).agent
    a = rollout(agent, env, spec, seed=11, greedy=False, epsilon=0.3)
    b = rollout(agent, env, spec, seed=11, greedy=False, epsilon=0.3)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.actions, b.actions)


def test_rollout_horizon_mismatch_rejected():
    env, phi, spec = integrator_problem()
    other = make_env(EnvConfig(kind="integrator", tau=0.5, horizon=9,
                               reset_fixed=(0.0,)))
    agent = _ConstantAgent(0, other.n_actions)
    with pytest.raises(ValueError, match="horizon"):
        rollout(agent, other, spec, seed=0)


# Rollout against the per-step reference --------------------------------------

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
COLUMNS = ("states", "actions", "rewards", "rho_psi", "gamma_lower", "margin",
           "satisfied_so_far")


def reference_active(schedule, t):
    """Segments active at step t, by the rule FunnelSchedule.active_segments states."""
    if schedule.overlapping:
        return [seg for seg in schedule.segments if seg.t_begin <= t <= seg.t_end]
    return [next(seg for seg in schedule.segments if t <= seg.t_end)]


def reference_rollout(agent, env, spec, seed=0, greedy=True, epsilon=0.0, phi=None):
    """Step-by-step reference for rollout(): the reward, the robustness and the
    funnel margin are evaluated at every step from the scalar functions."""
    horizon = env.horizon
    rng = np.random.default_rng(seed)
    n_psi = len(spec.psis)
    states = np.empty((horizon + 1, len(env.schema)))
    actions = np.full(horizon + 1, -1, dtype=np.int64)
    rewards = np.empty(horizon + 1)
    rho = np.empty((horizon + 1, n_psi))
    gamma_lower = np.full(horizon + 1, np.nan)
    margin = np.full(horizon + 1, np.nan)
    s = env.reset(rng)
    for t in range(horizon + 1):
        if not np.all(np.isfinite(s)):
            raise RuntimeError(f"non-finite state at step {t}: dynamics diverged")
        states[t] = s
        sd = env.state_dict(s)
        rewards[t] = reward(spec, sd, t)
        rho[t] = [float(rho_pointwise(psi, sd)) for psi in spec.psis]
        active = reference_active(spec.schedule, t)
        assert active == spec.schedule.active_segments(t)
        if active:
            seg_margins = [rho[t][seg.psi_index] + gamma_eval(seg, t) - seg.params.rho_max
                           for seg in active]
            j = int(np.argmin(seg_margins))
            margin[t] = seg_margins[j]
            gamma_lower[t] = -gamma_eval(active[j], t) + active[j].params.rho_max
        if t < horizon:
            q = agent.q_values(s, t)
            a = int(np.argmax(q)) if greedy else epsilon_greedy(q, epsilon, rng)
            actions[t] = a
            s = env.step(s, a)
    traj = Trajectory(
        schema=tuple(env.schema), states=states, actions=actions, rewards=rewards,
        rho_psi=rho, gamma_lower=gamma_lower, margin=margin,
        satisfied_so_far=np.ones(horizon + 1),
        metadata={"seed": seed if isinstance(seed, int) else list(seed),
                  "greedy": greedy, "mode": spec.mode})
    if phi is not None:
        fill_prefix_satisfaction(traj, phi)
    return traj


def reference_csv(traj) -> str:
    """Row-by-row reference for export_csv."""
    n_psi = traj.rho_psi.shape[1]
    header = ["t", *traj.schema, "action", "reward",
              *[f"rho_psi_{i}" for i in range(n_psi)],
              "gamma_lower", "margin", "satisfied_so_far"]
    lines = [",".join(header)]
    for t in range(traj.horizon + 1):
        row = [str(t)]
        row += ["%.17g" % v for v in traj.states[t]]
        row.append(str(int(traj.actions[t])))
        row.append("%.17g" % traj.rewards[t])
        row += ["%.17g" % v for v in traj.rho_psi[t]]
        row.append("%.17g" % traj.gamma_lower[t])
        row.append("%.17g" % traj.margin[t])
        row.append(str(int(traj.satisfied_so_far[t])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _gapped_problem(mode):
    """Overlapping F conjuncts that leave steps 0-1 and 7-10 uncovered, with
    uniform resets so that some episodes miss an obligation."""
    env = make_env(EnvConfig(kind="integrator", tau=0.5, horizon=10,
                             reset_kind="uniform", reset_low=(-1.0,), reset_high=(4.0,)))
    phi = parse_formula("F[2,4](x >= 1) & F[3,6](x <= 3)", ["x"])
    sched = build_schedule(phi, [RhoBounds(-3.0, 3.0)] * 2, 10)
    spec = RewardSpec(schedule=sched, psis=tuple(c.body for c in temporal_conjuncts(phi)),
                      mode=mode)
    return env, spec, phi, None


def _infinite_margin_problem():
    """The G conjunct's robustness is +inf at every state, so from step 4 on
    the only active margin is +inf; the segment that precedes it in the
    schedule is inactive there and must not be taken on the tie."""
    env = make_env(EnvConfig(kind="integrator", tau=0.5, horizon=10, reset_fixed=(0.0,)))
    phi = parse_formula("F[0,3](x >= 1) & G[2,10](x >= 1 | True)", ["x"])
    sched = build_schedule(phi, [RhoBounds(-3.0, 3.0)] * 2, 10, t_star_overrides={1: 2})
    spec = RewardSpec(schedule=sched, psis=tuple(c.body for c in temporal_conjuncts(phi)))
    return env, spec, phi, None


def _config_problem(name):
    ctx = build_run(load_config(CONFIG_DIR / f"{name}.json"))
    return ctx.env, ctx.reward_spec, ctx.phi, ctx.train_cfg.state_scale


ROLLOUT_PROBLEMS = {
    "sequential": lambda: _config_problem("diffdrive_sequential"),
    "sequential-pendulum": lambda: _config_problem("pendulum_three_phase"),
    "overlapping": lambda: _config_problem("overlap_demo"),
    "ablation": lambda: _config_problem("diffdrive_ablation"),
    "overlapping-gaps": lambda: _gapped_problem(MODE_FUNNEL),
    "ablation-gaps": lambda: _gapped_problem(MODE_ABLATION),
    "overlapping-infinite-margin": _infinite_margin_problem,
}


def _untrained_agent(env, state_scale, seed=4):
    return NeuralAgent(len(env.schema), env.n_actions, (32, 32), env.horizon, 1e-3,
                       np.random.default_rng(seed), state_scale=state_scale)


@pytest.mark.parametrize("greedy", [True, False], ids=["greedy", "eps-greedy"])
@pytest.mark.parametrize("problem", sorted(ROLLOUT_PROBLEMS))
def test_rollout_equals_per_step_reference(problem, greedy):
    env, spec, phi, scale = ROLLOUT_PROBLEMS[problem]()
    agent = _untrained_agent(env, scale)
    for seed in (0, [3, 1]):
        kwargs = dict(seed=seed, greedy=greedy, epsilon=0.0 if greedy else 0.3, phi=phi)
        got = rollout(agent, env, spec, **kwargs)
        want = reference_rollout(agent, env, spec, **kwargs)
        for name in COLUMNS:
            assert np.array_equal(getattr(got, name), getattr(want, name),
                                  equal_nan=True), name
        assert got.schema == want.schema
        assert got.metadata == want.metadata


@pytest.mark.parametrize("problem", sorted(ROLLOUT_PROBLEMS))
def test_export_csv_bytes_equal_per_row_reference(problem, tmp_path):
    env, spec, phi, scale = ROLLOUT_PROBLEMS[problem]()
    traj = rollout(_untrained_agent(env, scale), env, spec, seed=2, phi=phi)
    path, meta = tmp_path / "traj.csv", tmp_path / "traj.meta.json"
    export_csv(traj, path, metadata_path=meta)
    assert path.read_bytes() == reference_csv(traj).encode()
    assert json.loads(meta.read_text()) == traj.metadata


def test_export_csv_writes_nan_columns_and_missed_obligations(tmp_path):
    env, spec, phi, _ = _gapped_problem(MODE_FUNNEL)
    # Drive x down from its reset so the F[2,4](x >= 1) obligation is missed.
    agent = _ConstantAgent(action_index(env.grid, (-3.0,)), env.n_actions)
    traj = rollout(agent, env, spec, seed=0, phi=phi)
    assert np.isnan(traj.margin[[0, 1, 7, 10]]).all()
    assert traj.satisfied_so_far[-1] == 0.0
    path = tmp_path / "traj.csv"
    export_csv(traj, path)
    assert path.read_text() == reference_csv(traj)


class _DivergingIntegrator(IntegratorEnv):
    """Integrator whose state turns infinite once x exceeds 2."""

    def step(self, state, action_index):
        nxt = super().step(state, action_index)
        return np.array([np.inf]) if nxt[0] > 2.0 else nxt


def test_rollout_raises_at_first_non_finite_step():
    env = _DivergingIntegrator(EnvConfig(kind="integrator", tau=0.5, horizon=8,
                                         reset_fixed=(0.0,)))
    _, _, spec = integrator_problem()
    agent = _ConstantAgent(action_index(env.grid, (3.0,)), env.n_actions)
    # x = 0, 1.5, then 3.0 > 2 turns into inf at step 2.
    for run in (rollout, reference_rollout):
        with pytest.raises(RuntimeError, match="non-finite state at step 2"):
            run(agent, env, spec, seed=0)


# Satisfaction -----------------------------------------------------------------

def test_check_satisfaction_g_counterexample():
    phi = parse_formula("G[0,2](x >= 0)", ["x"])
    sched = build_schedule(phi, [RhoBounds(-3.0, 3.0)], 2, t_star_overrides={0: 1})
    spec = RewardSpec(schedule=sched, psis=(temporal_conjuncts(phi)[0].body,),
                      mode=MODE_FUNNEL)
    traj = synthetic_trajectory([1.0, -0.1, 2.0], phi, spec)
    rep = check_satisfaction(phi, traj)
    assert not rep.satisfied
    assert rep.robustness == pytest.approx(-0.1)
    assert rep.obligation_min == pytest.approx(-0.1)


def test_check_satisfaction_zero_robustness_counts():
    phi = parse_formula("G[0,2](x >= 0)", ["x"])
    sched = build_schedule(phi, [RhoBounds(-3.0, 3.0)], 2, t_star_overrides={0: 1})
    spec = RewardSpec(schedule=sched, psis=(temporal_conjuncts(phi)[0].body,),
                      mode=MODE_FUNNEL)
    traj = synthetic_trajectory([1.0, 0.0, 2.0], phi, spec)
    assert check_satisfaction(phi, traj).satisfied


def test_check_satisfaction_conjunction_obligation_min():
    phi = parse_formula("F[0,2](x >= 1) & G[3,4](x <= 3)", ["x"])
    sched = build_schedule(phi, [RhoBounds(-3.0, 3.0)] * 2, 4)
    spec = RewardSpec(schedule=sched,
                      psis=tuple(c.body for c in temporal_conjuncts(phi)),
                      mode=MODE_FUNNEL)
    traj = synthetic_trajectory([0.0, 2.5, 0.0, 1.0, 2.0], phi, spec)
    rep = check_satisfaction(phi, traj)
    assert rep.satisfied
    # F conjunct: max(x) - 1 = 1.5 over [0,2]; G conjunct: 3 - max = 1.
    assert rep.obligation_min == pytest.approx(1.0)
    assert rep.robustness == pytest.approx(1.0)


def test_check_satisfaction_evaluates_once(monkeypatch):
    phi = parse_formula("F[0,2](x >= 1) & G[3,4](x <= 3)", ["x"])
    sched = build_schedule(phi, [RhoBounds(-3.0, 3.0)] * 2, 4)
    spec = RewardSpec(schedule=sched,
                      psis=tuple(c.body for c in temporal_conjuncts(phi)),
                      mode=MODE_FUNNEL)
    traj = synthetic_trajectory([0.0, 2.5, 0.0, 1.0, 2.0], phi, spec)
    calls = []
    real = evalmon.rho_trace

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(evalmon, "rho_trace", counting)
    rep = check_satisfaction(phi, traj)
    assert calls == [phi]
    assert rep.obligation_min == rep.robustness == 1.0


def test_check_satisfaction_short_trajectory_rejected():
    env, phi, spec = integrator_problem()
    agent = _ConstantAgent(0, env.n_actions)
    traj = rollout(agent, env, spec, seed=0)
    long_phi = parse_formula("G[0,20](x >= 0)", ["x"])
    with pytest.raises(TrajectoryError, match="horizon"):
        check_satisfaction(long_phi, traj)


def test_prefix_satisfaction_g_flags_from_violation_onward():
    phi = parse_formula("G[1,3](x >= 0)", ["x"])
    sched = build_schedule(phi, [RhoBounds(-3.0, 3.0)], 3)
    spec = RewardSpec(schedule=sched, psis=(temporal_conjuncts(phi)[0].body,),
                      mode=MODE_FUNNEL)
    traj = synthetic_trajectory([-5.0, 1.0, -0.5, 1.0], phi, spec)
    # Step 0 is outside the obligation window; step 2 violates and the flag
    # stays down afterwards.
    assert traj.satisfied_so_far.tolist() == [1.0, 1.0, 0.0, 0.0]


def test_prefix_satisfaction_f_fails_at_window_end():
    phi = parse_formula("F[0,2](x >= 1)", ["x"])
    sched = build_schedule(phi, [RhoBounds(-3.0, 3.0)], 4)
    spec = RewardSpec(schedule=sched, psis=(temporal_conjuncts(phi)[0].body,),
                      mode=MODE_FUNNEL)
    traj = synthetic_trajectory([0.0, 0.0, 0.0, 5.0, 5.0], phi, spec)
    # The window [0,2] has no hit: step 2, its last candidate, shows the failure.
    assert traj.satisfied_so_far.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]


def _flags(formula, values):
    """satisfied_so_far and the verdict of formula on the x values."""
    phi = parse_formula(formula, ["x"])
    traj = synthetic_trajectory(values, phi)
    return traj.satisfied_so_far.tolist(), check_satisfaction(phi, traj).satisfied


def test_prefix_satisfaction_fg_drops_after_last_candidate_window():
    # Candidate windows [t', t'+3] for t' in 0..4 each hold a -1; the last one,
    # [4, 7], shows its first negative step at 5. A single holding step in the
    # footprint does not keep the flag up.
    flags, satisfied = _flags("F[0,4]G[0,3](x >= 0)", [1.0, -1.0] * 6 + [1.0])
    assert flags == [1.0] * 5 + [0.0] * 8
    assert not satisfied


def test_prefix_satisfaction_f_window_ending_at_horizon_drops():
    flags, satisfied = _flags("F[0,4](x >= 1)", [0.0] * 5)
    assert flags == [1.0, 1.0, 1.0, 1.0, 0.0]
    assert not satisfied


def test_prefix_satisfaction_negated_temporal_keeps_all_ones():
    # Outside the fragment: a negation above G has no violation step.
    flags, _ = _flags("!G[0,2](x >= 0)", [1.0, 1.0, 1.0])
    assert flags == [1.0, 1.0, 1.0]


# CSV round trip ---------------------------------------------------------------

def test_trajectory_csv_round_trip_exact(tmp_path, assert_monitor_columns_exact):
    env, phi, spec = integrator_problem()
    agent = _ConstantAgent(action_index(env.grid, (0.5,)), env.n_actions)
    traj = rollout(agent, env, spec, seed=3, phi=phi)
    path = tmp_path / "traj.csv"
    meta = tmp_path / "traj.meta.json"
    export_csv(traj, path, metadata_path=meta)
    back = read_trajectory_csv(path, list(env.schema))
    assert np.array_equal(traj.states, back.states)
    assert_monitor_columns_exact(traj, path)
    assert meta.exists()


def test_trajectory_csv_header(tmp_path):
    env, phi, spec = integrator_problem()
    agent = _ConstantAgent(0, env.n_actions)
    traj = rollout(agent, env, spec, seed=0)
    path = tmp_path / "traj.csv"
    export_csv(traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x,action,reward,rho_psi_0,gamma_lower,margin,satisfied_so_far"


def test_read_trajectory_requires_state_columns(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,y\n0,1.0\n")
    with pytest.raises(TrajectoryError, match="missing column"):
        read_trajectory_csv(path, ["x"])


def test_read_trajectory_minimal_columns(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,x\n0,1.5\n1,2.5\n")
    traj = read_trajectory_csv(path, ["x"])
    assert traj.states[:, 0] == pytest.approx([1.5, 2.5])
    for name in ("actions", "rewards", "rho_psi", "gamma_lower", "margin",
                 "satisfied_so_far"):
        assert getattr(traj, name) is None, name


# Each variant spells the states [[1.5, 10.0], [2.5, -3.0]] of columns x, y.
@pytest.mark.parametrize("text", [
    "t,x,y,reward\r\n0,1.5,10,0\r\n1,2.5,-3,0\r\n",
    "t,x,y,reward\n0,1.5,10,0\n\n1,2.5,-3,0\n",
    "t,x,y,reward\n0, 1.5,10,0\n1,2.5, -3,0\n",
    " t,x,y,reward\n 0,1.5,10,0\n 1,2.5,-3,0\n",
    "t,x,y,reward\n0,1.5,1_0,0\n1,2.5,-3,0\n",
    "t,x,y\n0,1.5,10\n1,2.5,-3",
    "t, x, y\n0, 1.5, 10\n1, 2.5, -3\n",
    "x, t, y\n1.5, 0, 10\n2.5, 1, -3\n",
    "\ufefft,x,y\n0,1.5,10\n1,2.5,-3\n",
], ids=["crlf", "blank-line", "space-before-cell", "space-before-t", "underscore",
        "no-final-newline", "comma-space", "comma-space-t-not-first", "byte-order-mark"])
def test_read_trajectory_accepts_csv_variants(tmp_path, text):
    path = tmp_path / "traj.csv"
    path.write_bytes(text.encode())
    traj = read_trajectory_csv(path, ["x", "y"])
    assert traj.states.tolist() == [[1.5, 10.0], [2.5, -3.0]]


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=20))
@example([(-0.0, 5e-324), (np.finfo(float).max, -np.finfo(float).max),
          (2.2250738585072009e-308, -4.9406564584124654e-324)])
def test_read_trajectory_states_round_trip_exactly(tmp_path_factory, rows):
    states = np.array(rows, dtype=float)
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    path.write_text("t,x,action,y\n" + "".join(
        f"{i},{x:.17g},-1,{y:.17g}\n" for i, (x, y) in enumerate(rows)))
    back = read_trajectory_csv(path, ["x", "y"])
    assert np.array_equal(back.states, states)
    assert np.array_equal(np.signbit(back.states), np.signbit(states))


# Funnel CSV -------------------------------------------------------------------

def test_funnel_csv_rows_and_boundary_discontinuity(tmp_path):
    phi = parse_formula("F[2,4](x >= 1) & G[6,8](x <= 3)", ["x"])
    sched = build_schedule(phi, [RhoBounds(-0.5, 0.5)] * 2, 8,
                           gamma_inf_overrides={0: 0.1, 1: 0.1})
    path = tmp_path / "funnel.csv"
    export_funnel_csv(sched, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,segment,psi_index,gamma,lower_bound,rho_max"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 9  # sequential: one active segment per step
    gamma = {int(r[0]): float(r[3]) for r in rows}
    seg_of = {int(r[0]): int(r[1]) for r in rows}
    assert seg_of[4] == 0 and seg_of[5] == 1
    # Boundary: the funnel re-opens, so gamma jumps back up.
    assert gamma[5] > gamma[4]
    assert gamma[4] == pytest.approx(sched.segments[0].params.rho_max, abs=1e-9)


def test_funnel_csv_matches_schedule_values(tmp_path):
    env, phi, spec = integrator_problem()
    path = tmp_path / "funnel.csv"
    export_funnel_csv(spec.schedule, path)
    for line in path.read_text().splitlines()[1:]:
        t, seg_id, psi_i, g, lb, rm = line.split(",")
        seg = spec.schedule.segments[int(seg_id)]
        assert float(g) == pytest.approx(gamma_eval(seg, int(t)), abs=1e-12)
        assert float(lb) == pytest.approx(-gamma_eval(seg, int(t)) + seg.params.rho_max, abs=1e-12)


# Monitor/reward consistency ---------------------------------------------------

def test_monitor_margin_equals_reward_to_machine_precision():
    env, phi, spec = integrator_problem()
    cfg = TrainConfig(total_steps=300, batch_size=8, target_update_freq=25,
                      eval_freq=150, eval_episodes=1, hidden_sizes=(16,),
                      replay_capacity=500, seed=2)
    agent = train(env, spec, phi, cfg).agent
    traj = rollout(agent, env, spec, seed=5)
    for t in range(traj.horizon + 1):
        sd = env.state_dict(traj.states[t])
        assert abs(traj.margin[t] - reward(spec, sd, t)) <= 1e-12
