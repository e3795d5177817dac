"""End-to-end acceptance checks, one per criterion, each printing a single
PASS/FAIL line (echoed in the terminal summary after the run). The
training-based checks run real multi-minute jobs on one core.

The Boolean-satisfaction criterion on the uniform-reset integrator task is
expected to fail for any policy: satisfaction of an always-from-zero formula
depends on the random reset state at time zero, which no action influences,
so at most ~40% of episodes can satisfy it. The check is implemented
literally and reported honestly, together with the policy-dependent
reach-and-stay rate on the same trained agent.

The funnel-vs-ablation comparison on the sequential diff-drive task is also
expected to fail: with non-overlapping obligation windows exactly one funnel
segment is active at each step, so the shaped reward equals the ablation
reward plus a term depending only on t. A time-only reward offset shifts
every Q(s, a, t) by the same amount and leaves the greedy policy unchanged,
so neither signal is systematically better; across seeds the ablation trains
at least as well. Both rates are reported honestly.
"""

import math
import multiprocessing
import os
import time

import numpy as np
import pytest

import conftest

from test_robustness import columns_of, oracle_bool, oracle_rho, random_formula, random_trace

from stlfunnel import evalmon
from stlfunnel.dqn import TrainConfig, td_target, train
from stlfunnel.envs import EnvConfig, make_env
from stlfunnel.funnel import FunnelParams, build_schedule, gamma_eval, synth_l
from stlfunnel.mlp import MLP
from stlfunnel.reward import MODE_ABLATION, MODE_FUNNEL, RewardSpec, reward
from stlfunnel.robustness import RhoBounds, rho_pointwise, rho_trace
from stlfunnel.stl.formula import formula_horizon, temporal_conjuncts
from stlfunnel.stl.parser import parse_formula


def report(criterion: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[{status}] criterion {criterion}: {description}{suffix}"
    print(line)
    conftest.criterion_lines.append(line)
    assert ok, f"criterion {criterion}: {description}{suffix}"


# Criterion 1: robustness oracle equivalence -----------------------------------

def test_criterion_1_robustness_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        phi = random_formula(rng, int(rng.integers(1, 5)), max_interval=6)
        need = formula_horizon(phi)
        length = need + int(rng.integers(1, max(2, 50 - need)))
        trace = random_trace(rng, length)
        got = rho_trace(phi, columns_of(trace), 0)
        want = oracle_rho(phi, trace, 0)
        worst = max(worst, abs(got - want))
        sign_ok = got == 0 or (got > 0) == oracle_bool(phi, trace, 0)
        if worst > 1e-12 or not sign_ok:
            report(1, "robustness oracle equivalence", False,
                   f"mismatch on {phi.pretty()}")
    elapsed = time.time() - t0
    report(1, "robustness oracle equivalence",
           worst <= 1e-12 and elapsed < 60,
           f"1000 formulas, max |delta| {worst:.2e}, {elapsed:.1f} s")


# Criterion 2: funnel identities -----------------------------------------------

def test_criterion_2_funnel_identities():
    rng = np.random.default_rng(77)
    worst = 0.0
    monotone = True
    for _ in range(100):
        rho_max = float(rng.uniform(0.05, 5.0))
        gamma0 = rho_max * float(rng.uniform(1.05, 20.0))
        gamma_inf = float(rng.uniform(1e-4, 0.95)) * min(gamma0, rho_max)
        t_star = int(rng.integers(1, 1000))
        params = FunnelParams(gamma0, gamma_inf, synth_l(gamma0, gamma_inf, rho_max, t_star),
                              rho_max, t_star)
        worst = max(worst, abs(params.gamma(t_star) - rho_max))
        samples = [params.gamma(t) for t in range(0, min(t_star, 200) + 1)]
        monotone &= all(a > b for a, b in zip(samples, samples[1:]))

    # Multi-segment schedule re-opens at gamma0 at every boundary.
    phi = parse_formula(
        "G[400,700](abs(theta) <= 0.05 & abs(omega) <= 0.05)"
        " & G[1000,1200](abs(1.57-theta) <= 0.05 & abs(omega) <= 0.05)"
        " & G[1700,2000](abs(-1.57-theta) <= 0.05 & abs(omega) <= 0.05)",
        ["theta", "omega"])
    sched = build_schedule(phi, [RhoBounds(0.05 - math.pi, 0.05)] * 3, 2000,
                           gamma_inf_overrides={i: 0.01 for i in range(3)})
    reopens = all(
        abs(gamma_eval(seg, seg.t_begin) - seg.params.gamma0) <= 1e-12
        for seg in sched.segments)

    report(2, "funnel closure/monotonicity/re-opening identities",
           worst <= 1e-9 and monotone and reopens,
           f"100 draws, max |gamma(t*)-rho_max| {worst:.2e}")


# Criterion 3: pendulum decay-rate table ---------------------------------------

def test_criterion_3_pendulum_decay_rates():
    t_stars = [400, 300, 500]  # local closure after each segment clock reset
    formula_values = (0.01090, 0.01453, 0.00872)
    printed_values = (0.0103, 0.0138, 0.0083)
    got = [synth_l(math.pi, 0.01, 0.05, ts) for ts in t_stars]
    formula_ok = all(abs(g - w) <= 1e-5 for g, w in zip(got, formula_values))
    printed_close = all(abs(g - p) / g < 0.06 for g, p in zip(got, printed_values))
    for g, p in zip(got, printed_values):
        print(f"  decay-rate discrepancy vs printed value: formula {g:.6f} "
              f"vs printed {p} ({abs(g - p) / g * 100:.1f}%); formula value is used")
    report(3, "pendulum funnel decay rates from the closed formula",
           formula_ok and printed_close,
           "l = " + ", ".join(f"{g:.5f}" for g in got))


# Criteria 4-6 share trained agents --------------------------------------------

def _integrator_problem():
    env = make_env(EnvConfig(kind="integrator", tau=0.1, horizon=200,
                             reset_kind="uniform", reset_low=(0.0,),
                             reset_high=(50.0,)))
    phi = parse_formula("G[0,200](abs(x-5) <= 5 | abs(x-45) <= 5)", ["x"])
    sched = build_schedule(phi, [RhoBounds(-15.0, 5.0)], 200,
                           t_star_overrides={0: 150})
    spec = RewardSpec(schedule=sched,
                      psis=tuple(c.body for c in temporal_conjuncts(phi)),
                      mode=MODE_FUNNEL)
    cfg = TrainConfig(total_steps=60_000, batch_size=64, target_update_freq=500,
                      eval_freq=30_000, eval_episodes=2, hidden_sizes=(64, 64),
                      replay_capacity=60_000, seed=0, lr=1e-3)
    return env, phi, spec, cfg


def _diffdrive_problem(mode):
    env = make_env(EnvConfig(kind="diffdrive", tau=0.05, horizon=400,
                             reset_fixed=(0.0, 0.0, 0.0)))
    phi = parse_formula(
        "G[180,260](norm2(x-2.5, y-2.5) <= 0.5)"
        " & G[320,400](norm2(x-3, y-3) <= 0.5)", ["x", "y", "theta"])
    bounds = [RhoBounds(-4.5, 0.5), RhoBounds(-5.2, 0.5)]
    # Wider asymptotic tube: the default gamma_inf of rho_max/100 keeps
    # tightening the envelope long after closure, penalizing states that
    # satisfy the disk obligation outright.
    sched = build_schedule(phi, bounds, 400,
                           gamma_inf_overrides={0: 0.4, 1: 0.4})
    spec = RewardSpec(schedule=sched,
                      psis=tuple(c.body for c in temporal_conjuncts(phi)),
                      mode=mode)
    cfg = TrainConfig(total_steps=300_000, batch_size=64,
                      target_update_freq=1000, eval_freq=5000,
                      eval_episodes=1, hidden_sizes=(64, 64),
                      replay_capacity=150_000, seed=0, lr=5e-4,
                      discount=0.97, epsilon_decay_steps=150_000,
                      state_scale=(5.0, 5.0, 3.2), keep_best=True)
    return env, phi, spec, cfg


def _diffdrive_rate(mode):
    env, phi, spec, cfg = _diffdrive_problem(mode)
    result = train(env, spec, phi, cfg)
    agent = result.best_agent if result.best_agent is not None else result.agent
    ok = 0
    for ep in range(20):
        traj = evalmon.rollout(agent, env, spec, seed=[cfg.seed, ep],
                               greedy=True)
        rep = evalmon.check_satisfaction(phi, traj)
        ok += rep.obligation_min > 0
    return ok / 20


@pytest.fixture(scope="module")
def diffdrive_rates():
    """The funnel rate, and a pending result that yields the ablation rate.

    The two trainings are independent seeded computations, so the ablation
    runs in a spawned process with one BLAS thread while the funnel run
    trains here; the results are those of running them one after the other.
    """
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read by the child's numpy import
    try:
        pool = multiprocessing.get_context("spawn").Pool(1)
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved
    try:
        ablation = pool.apply_async(_diffdrive_rate, (MODE_ABLATION,))
        yield _diffdrive_rate(MODE_FUNNEL), ablation
    finally:
        pool.terminate()  # stops an ablation run that no test collected
        pool.join()


def test_criterion_4_integrator_boolean_satisfaction():
    env, phi, spec, cfg = _integrator_problem()
    result = train(env, spec, phi, cfg)
    sats, stays = [], []
    t_star = spec.schedule.segments[0].params.t_star
    for ep in range(20):
        traj = evalmon.rollout(result.agent, env, spec, seed=[cfg.seed, ep],
                               greedy=True)
        rep = evalmon.check_satisfaction(phi, traj)
        sats.append(rep.satisfied)
        stays.append(float(np.min(traj.rho_psi[t_star:, 0])) >= 0.0)
    sat_rate = float(np.mean(sats))
    stay_rate = float(np.mean(stays))
    print(f"  reach-and-stay rate (policy-dependent diagnostic): "
          f"{stay_rate:.2f} over [t*={t_star}, 200]")
    report(4, "integrator Boolean satisfaction rate >= 0.90",
           sat_rate >= 0.90,
           f"boolean rate {sat_rate:.2f}; reset-limited, see module docstring; "
           f"reach-and-stay {stay_rate:.2f}")


@pytest.mark.slow
def test_criterion_5_diffdrive_sequential_reach(diffdrive_rates):
    diffdrive_funnel_rate, _ = diffdrive_rates
    report(5, "diff-drive sequential reach rate >= 0.80",
           diffdrive_funnel_rate >= 0.80,
           f"min-obligation-robustness > 0 in {diffdrive_funnel_rate:.2f} of 20 episodes")


@pytest.mark.slow
def test_criterion_6_ablation_strictly_worse(diffdrive_rates):
    diffdrive_funnel_rate, ablation = diffdrive_rates
    ablation_rate = ablation.get(timeout=3600)
    report(6, "no-funnel ablation strictly below funnel satisfaction",
           ablation_rate < diffdrive_funnel_rate,
           f"funnel {diffdrive_funnel_rate:.2f} vs ablation {ablation_rate:.2f}; "
           "sequential windows make the rewards differ by a time-only offset, "
           "see module docstring")


# Criterion 7: overlap reward property suite -----------------------------------

def test_criterion_7_overlap_reward_is_pointwise_min():
    phi = parse_formula(
        "G[0,100](norminf(x-2, y-2) <= 2)"
        " & F[0,50](norm2(x-3, y-1) <= 0.3)"
        " & F[50,90](norm2(x-1, y-3) <= 0.3)", ["x", "y"])
    bounds = [RhoBounds(-2.0, 2.0), RhoBounds(-4.0, 0.3), RhoBounds(-4.0, 0.3)]
    sched = build_schedule(phi, bounds, 100, t_star_overrides={0: 30})
    assert sched.overlapping
    spec = RewardSpec(schedule=sched,
                      psis=tuple(c.body for c in temporal_conjuncts(phi)),
                      mode=MODE_FUNNEL)
    rng = np.random.default_rng(5)
    checked = 0
    for t in range(0, 101):
        active = sched.active_segments(t)
        for _ in range(50):
            s = {"x": float(rng.uniform(-1, 5)), "y": float(rng.uniform(-1, 5))}
            got = reward(spec, s, t)
            if not active:
                expect = 0.0
            else:
                expect = min(
                    float(rho_pointwise(spec.psis[seg.psi_index], s))
                    + gamma_eval(seg, t) - seg.params.rho_max
                    for seg in active)
            if not math.isclose(got, expect, rel_tol=1e-12, abs_tol=1e-12):
                report(7, "overlap reward equals min over active segments",
                       False, f"t={t} s={s}: {got} != {expect}")
            checked += 1
    report(7, "overlap reward equals min over active segments",
           True, f"{checked} (step, state) pairs over the full horizon")


# Criterion 8: gradient and tabular checks -------------------------------------

class _ChainEnv:
    """Three-state chain with stay/advance actions; duck-types Environment."""

    schema = ("x",)
    horizon = 4
    n_actions = 2

    def reset(self, rng=None):
        return np.array([0.0])

    def step(self, state, action_index):
        return np.array([min(state[0] + action_index, 2.0)])

    def state_dict(self, state):
        return {"x": float(state[0])}


class TabularAgent:
    """Table-backed Q-function sharing the NeuralAgent interface; validates the
    training loop against exact finite-horizon value iteration."""

    def __init__(self, n_states: int, n_actions: int, horizon: int, state_to_index,
                 lr: float = 1.0):
        self.q = np.zeros((n_states, n_actions, horizon + 1))
        self.target_q = np.zeros_like(self.q)
        self.horizon = horizon
        self.n_actions = n_actions
        self.state_to_index = state_to_index
        self.lr = lr

    def q_values(self, s, t) -> np.ndarray:
        return self.q[self.state_to_index(s), :, t]

    def target_q_batch(self, S, T) -> np.ndarray:
        idx = [self.state_to_index(s) for s in np.atleast_2d(S)]
        return self.target_q[idx, :, np.asarray(T)]

    def sync_target(self):
        np.copyto(self.target_q, self.q)

    def update(self, batch: dict, discount: float) -> float:
        y = td_target(batch, self, discount, self.horizon)
        errs = []
        for i in range(len(y)):
            si = self.state_to_index(batch["s"][i])
            a, t = int(batch["a"][i]), int(batch["t"][i])
            err = y[i] - self.q[si, a, t]
            self.q[si, a, t] += self.lr * err
            errs.append(err * err)
        return float(np.mean(errs))


def _chain_spec():
    phi = parse_formula("G[1,4](x >= 1)", ["x"])
    sched = build_schedule(phi, [RhoBounds(-1.0, 1.0)], 4)
    return phi, RewardSpec(schedule=sched,
                           psis=(temporal_conjuncts(phi)[0].body,),
                           mode=MODE_FUNNEL)


def test_criterion_8_gradients_and_tabular_value_iteration():
    # Backprop vs central finite differences.
    net = MLP([3, 10, 6, 2], rng=np.random.default_rng(8))
    rng = np.random.default_rng(9)
    X = rng.normal(size=(7, 3))
    target = rng.normal(size=(7, 2))
    out, acts = net.forward_batch(X)
    d_out = 2.0 * (out - target) / out.size
    dW, db = net.backward(acts, d_out)

    def loss():
        o, _ = net.forward_batch(X)
        return float(np.mean((o - target) ** 2))

    worst_rel = 0.0
    h = 1e-6
    for li, W in enumerate(net.weights):
        flat = W.reshape(-1)
        for k in range(0, flat.size, max(flat.size // 7, 1)):
            old = flat[k]
            flat[k] = old + h
            up = loss()
            flat[k] = old - h
            down = loss()
            flat[k] = old
            num = (up - down) / (2 * h)
            ana = dW[li].reshape(-1)[k]
            denom = max(abs(num), abs(ana), 1e-8)
            worst_rel = max(worst_rel, abs(num - ana) / denom)
    grad_ok = worst_rel < 1e-4

    # Tabular Q-learning through the shared training loop vs value iteration.
    env = _ChainEnv()
    phi, spec = _chain_spec()
    agent = TabularAgent(n_states=3, n_actions=2, horizon=4,
                         state_to_index=lambda s: int(round(float(np.atleast_1d(s)[0]))),
                         lr=1.0)
    cfg = TrainConfig(total_steps=6000, batch_size=16, target_update_freq=1,
                      eval_freq=10 ** 9, epsilon_start=1.0, epsilon_end=1.0,
                      replay_capacity=6000, seed=0, discount=0.9)
    train(env, spec, None, cfg, agent=agent)

    horizon, discount = 4, 0.9
    r = np.array([[reward(spec, {"x": float(x)}, t) for t in range(horizon)]
                  for x in range(3)])
    q_star = np.zeros((3, 2, horizon + 1))
    for t in range(horizon - 1, -1, -1):
        for x in range(3):
            for a in range(2):
                x2 = min(x + a, 2)
                q_star[x, a, t] = r[x, t]
                if t + 1 < horizon:
                    q_star[x, a, t] += discount * q_star[x2, :, t + 1].max()

    worst_q = 0.0
    for t in range(horizon):
        reachable = range(min(t, 2) + 1)  # from x=0 at t=0, x <= t
        for x in reachable:
            for a in range(2):
                worst_q = max(worst_q, abs(agent.q[x, a, t] - q_star[x, a, t]))
    tab_ok = worst_q <= 1e-6

    report(8, "finite-difference gradients and tabular value-iteration match",
           grad_ok and tab_ok,
           f"max FD rel err {worst_rel:.2e}, max |Q - Q*| {worst_q:.2e}")
