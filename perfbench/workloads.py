"""The benchmark's workloads, their operations and their output checks.

Each workload is a closed loop with one caller that repeats a fixed round of
operations. The operations are the public calls that ``stlfunnel train``,
``stlfunnel eval`` and ``stlfunnel monitor`` make:

- train: ``config.build_run`` then ``dqn.train`` for a fixed step count;
- episode: ``evalmon.rollout`` (greedy), ``evalmon.check_satisfaction`` and
  ``evalmon.export_csv`` with its metadata sidecar;
- trace: ``evalmon.read_trajectory_csv`` and ``evalmon.check_satisfaction``.

Every operation counts as attempted; it counts as failed when it raises or
when an output check rejects its result. Inputs come from the run seed only.
"""

from __future__ import annotations

import copy
import hashlib
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stlfunnel import config, dqn, evalmon, stl

import oracle


def cpu_clock() -> float:
    """CPU seconds used by this process and its waited-for children.

    Operations are timed in CPU time, not wall time. The program is
    single-threaded with one BLAS thread, so on an idle machine the two agree.
    On a shared 2-CPU VM, wall time also counts the time other tenants hold
    the CPU, which came in bursts that doubled single operations.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Expected:
    """Call counts the traced run must reproduce, derived from the configs."""

    train_steps: int = 0
    updates: int = 0
    rollout_steps: int = 0
    keep_best_evals: int = 0

    def add_train(self, ctx, steps: int):
        tc = ctx.train_cfg
        evals = -(-steps // tc.eval_freq) + 1 if steps > 0 else 0
        self.train_steps += steps
        self.updates += max(0, steps - tc.batch_size + 1)
        self.rollout_steps += evals * tc.eval_episodes * ctx.env.horizon
        if tc.keep_best:
            self.keep_best_evals += evals


@dataclass
class RunState:
    """State shared by the operations of one benchmark run."""

    root: Path
    workdir: Path
    seed: int
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    train_rates: list[float] = field(default_factory=list)
    episode_ms: list[float] = field(default_factory=list)
    trace_ms: list[float] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    expected: Expected = field(default_factory=Expected)

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)

    def draw_seed(self) -> int:
        return int(self.rng.integers(2 ** 31))

    def attempt(self, what: str, fn, *args):
        """Run one operation; returns its value, or None when it failed."""
        self.attempted += 1
        try:
            value, problem = fn(*args)
        except Exception as exc:  # an operation that raises is a failed operation
            value, problem = None, f"{type(exc).__name__}: {exc}"
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {problem}")
            return None
        return value

    def reset_samples(self):
        self.train_rates.clear()
        self.episode_ms.clear()
        self.trace_ms.clear()
        self.expected = Expected()


def weights_digest(agent) -> str:
    h = hashlib.sha256()
    for arr in (*agent.net.weights, *agent.net.biases):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


# Operations -------------------------------------------------------------------

def _train(s: RunState, doc: dict, steps: int, phi_off: bool = False):
    """build_run then dqn.train; phi_off trains without evaluations (warm-up)."""
    doc = copy.deepcopy(doc)
    doc["training"]["total_steps"] = steps
    if phi_off:
        doc["training"]["keep_best"] = False
    doc["training"]["seed"] = s.draw_seed()
    ctx = config.build_run(doc)
    t0 = cpu_clock()
    result = dqn.train(ctx.env, ctx.reward_spec, None if phi_off else ctx.phi, ctx.train_cfg)
    elapsed = cpu_clock() - t0
    losses = [row.loss for row in result.log[1:]]
    if not losses or not all(math.isfinite(x) for x in losses):
        return None, f"training loss not finite: {losses}"
    agent = result.best_agent if result.best_agent is not None else result.agent
    return (steps / elapsed, agent, ctx), None


def _episode(s: RunState, agent, ctx, csv_path: Path):
    t0 = cpu_clock()
    traj = evalmon.rollout(agent, ctx.env, ctx.reward_spec, seed=[s.draw_seed(), 0],
                           greedy=True, phi=ctx.phi)
    report = evalmon.check_satisfaction(ctx.phi, traj)
    evalmon.export_csv(traj, csv_path, metadata_path=csv_path.with_suffix(".meta.json"))
    ms = (cpu_clock() - t0) * 1e3
    return (ms, report), oracle.mismatch(ctx.phi, traj.states, ctx.env.schema, report)


def _trace(phi, schema, csv_path: Path, eval_report=None):
    t0 = cpu_clock()
    traj = evalmon.read_trajectory_csv(csv_path, list(schema))
    report = evalmon.check_satisfaction(phi, traj)
    ms = (cpu_clock() - t0) * 1e3
    problem = oracle.mismatch(phi, traj.states, schema, report)
    if problem is None and eval_report is not None and (
            (report.satisfied, report.robustness, report.obligation_min)
            != (eval_report.satisfied, eval_report.robustness, eval_report.obligation_min)):
        problem = f"monitor verdict {report} differs from eval verdict {eval_report}"
    return ms, problem


def train(s: RunState, doc: dict, steps: int):
    out = s.attempt("train", _train, s, doc, steps)
    if out is None:
        return None
    rate, agent, ctx = out
    s.train_rates.append(rate)
    s.expected.add_train(ctx, steps)
    s.digests[ctx.env.cfg.kind] = weights_digest(agent)
    return agent, ctx


def evaluate(s: RunState, jobs):
    """Episodes, then monitoring of each exported CSV.

    jobs: (agent, ctx, csv_path) per episode, run in order.
    """
    done = []
    for agent, ctx, csv_path in jobs:
        out = s.attempt("episode", _episode, s, agent, ctx, csv_path)
        s.expected.rollout_steps += ctx.env.horizon
        if out is not None:
            ms, report = out
            s.episode_ms.append(ms)
            done.append((ctx, csv_path, report))
    for ctx, csv_path, report in done:
        monitor(s, ctx.phi, ctx.env.schema, csv_path, report)


def monitor(s: RunState, phi, schema, csv_path: Path, eval_report=None):
    ms = s.attempt("trace", _trace, phi, schema, csv_path, eval_report)
    if ms is not None:
        s.trace_ms.append(ms)


# Inputs -------------------------------------------------------------------------

def load_doc(root: Path, name: str) -> dict:
    return config.load_config(root / "configs" / f"{name}.json")


def overlap_doc(rng: np.random.Generator) -> dict:
    """A diff-drive spec whose three conjuncts overlap in time, so the reward
    is the minimum over the active funnel segments. Bounds and the G closure
    step are explicit: estimating them from a box, as configs/overlap_demo.json
    does, gives gamma0 == rho_max and build_run rejects it."""
    horizon = 120
    cx, cy = rng.uniform(1.8, 2.2, size=2)
    dx1, dy1, dx2, dy2 = rng.uniform(0.5, 1.0, size=4)
    a1, a2 = int(rng.integers(0, 20)), int(rng.integers(40, 60))
    formula = (
        f"G[0,{horizon}](norminf(x-{cx:.4f}, y-{cy:.4f}) <= 2)"
        f" & F[{a1},{a1 + 40}](norm2(x-{cx + dx1:.4f}, y-{cy - dy1:.4f}) <= 0.3)"
        f" & F[{a2},{a2 + 40}](norm2(x-{cx - dx2:.4f}, y-{cy + dy2:.4f}) <= 0.3)")
    return {
        "environment": {"kind": "diffdrive", "tau": 0.1, "horizon": horizon,
                        "reset": {"kind": "fixed", "value": [cx, cy, 0.0]}},
        "spec": {"formula": formula,
                 "rho_bounds": {"0": [-2.0, 2.0], "1": [-4.0, 0.3], "2": [-4.0, 0.3]},
                 "t_star": {"0": 60}},
        "training": {"hidden_sizes": [64, 64], "state_scale": [5.0, 5.0, 3.2]},
        "reward_mode": "funnel",
    }


def fg_trace(rng: np.random.Generator, width: int, csv_path: Path):
    """An F[a,a+w]G[c2,c2+w] formula and a random-walk trace it can be checked
    on, written as a trajectory CSV. The robustness recursion costs
    (w+1)^2 predicate evaluations whatever the offsets and the data."""
    schema = ("x", "y", "theta")
    a, c2 = int(rng.integers(0, 21)), int(rng.integers(0, 21))
    px, py = rng.uniform(-1.0, 1.0, size=2)
    radius = rng.uniform(0.3, 0.8)
    text = (f"F[{a},{a + width}]G[{c2},{c2 + width}]"
            f"(abs(x-{px:.4f}) <= {radius:.4f})")
    phi = stl.parse_formula(text, list(schema))
    n = 2 * width + 41
    steps = rng.normal(0.0, 0.05, size=(n, 3))
    steps[0] = (px + rng.uniform(-0.5, 0.5), py + rng.uniform(-0.5, 0.5), 0.0)
    states = np.cumsum(steps, axis=0)
    with open(csv_path, "w") as fh:
        fh.write("t," + ",".join(schema) + "\n")
        for t, row in enumerate(states):
            fh.write(f"{t}," + ",".join("%.17g" % v for v in row) + "\n")
    return phi, schema


# Workloads ------------------------------------------------------------------------

class TrainWorkload:
    """One shipped config as shipped, trained for a fixed step count per round,
    then evaluated greedily and monitored as ``stlfunnel eval``/``monitor`` do."""

    def __init__(self, config_name: str, steps: int, episodes: int):
        self.config_name = config_name
        self.steps = steps
        self.episodes = episodes

    def setup(self, s: RunState):
        self.doc = load_doc(s.root, self.config_name)
        config.build_run(copy.deepcopy(self.doc))

    def check_setup(self, s: RunState):
        pass

    def prepare(self, s: RunState):
        pass

    def warmup(self, s: RunState):
        s.attempt("warmup", _train, s, self.doc, 200, True)

    def round(self, s: RunState):
        trained = train(s, self.doc, self.steps)
        if trained is None:
            return
        agent, ctx = trained
        evaluate(s, [(agent, ctx, s.workdir / f"ep{i}.csv") for i in range(self.episodes)])
        self.last_agent = agent

    def finish(self, s: RunState):
        """Checkpoint round-trip of the last trained agent."""
        if getattr(self, "last_agent", None) is not None:
            s.attempt("checkpoint", _roundtrip, s, self.last_agent, s.workdir / "final.json")


class EvalMonitorWorkload:
    """Greedy evaluation and offline monitoring with seeded, untrained agents.

    Setup loads one checkpoint per spec. A round trains the integrator config
    briefly, then runs the episode mix below and monitors every exported CSV
    plus generated F[a,c1]G[c2,b] traces at two window widths. The counts put
    the p50 of episode latency inside the diff-drive group and its p90 inside
    the pendulum group; for traces, the p50 falls inside the pendulum CSV
    group and the p90 inside the 300-step window group.
    """

    EPISODES = (("integrator", 2), ("overlap", 1), ("diffdrive", 4), ("pendulum", 3))
    FG_WIDTHS = ((100, 4), (300, 3))
    TRAIN_STEPS = 1000
    CONFIGS = {"pendulum": "pendulum_three_phase", "diffdrive": "diffdrive_sequential",
               "integrator": "integrator_reach_stay"}

    def setup(self, s: RunState):
        """Build every run context and load one checkpoint per spec."""
        self.docs = {k: load_doc(s.root, name) for k, name in self.CONFIGS.items()}
        self.docs["overlap"] = overlap_doc(np.random.default_rng(s.seed))
        self.ctx, self.saved, self.agents = {}, {}, {}
        for i, (key, doc) in enumerate(self.docs.items()):
            ctx = config.build_run(copy.deepcopy(doc))
            tc, env = ctx.train_cfg, ctx.env
            agent = dqn.NeuralAgent(len(env.schema), env.n_actions, tc.hidden_sizes,
                                    env.horizon, tc.lr, np.random.default_rng([s.seed, i]),
                                    state_scale=tc.state_scale)
            path = s.workdir / f"checkpoint_{key}.json"
            dqn.save_checkpoint(agent, path, config_digest=tc.digest())
            self.agents[key] = dqn.load_checkpoint(path, expected_n_actions=env.n_actions,
                                                   config_digest=tc.digest())
            self.ctx[key], self.saved[key] = ctx, agent

    def check_setup(self, s: RunState):
        for key, agent in self.saved.items():
            s.attempt("checkpoint", _same_q, s, agent, self.agents[key])

    def prepare(self, s: RunState):
        rng = np.random.default_rng([s.seed, 99])
        self.fg = []
        for width, count in self.FG_WIDTHS:
            for j in range(count):
                path = s.workdir / f"fg{width}_{j}.csv"
                phi, schema = fg_trace(rng, width, path)
                self.fg.append((phi, schema, path))

    def warmup(self, s: RunState):
        s.attempt("warmup", _train, s, self.docs["integrator"], 200, True)
        evaluate(s, [(self.agents["diffdrive"], self.ctx["diffdrive"], s.workdir / "warm.csv")])

    def round(self, s: RunState):
        train(s, self.docs["integrator"], self.TRAIN_STEPS)
        evaluate(s, [(self.agents[key], self.ctx[key], s.workdir / f"{key}{j}.csv")
                     for key, count in self.EPISODES for j in range(count)])
        for phi, schema, path in self.fg:
            monitor(s, phi, schema, path)

    def finish(self, s: RunState):
        pass


def _same_q(s: RunState, agent, loaded):
    """Checkpoint check: the loaded agent's q_values equal the original's."""
    rng = np.random.default_rng(s.seed)
    for t in (0, agent.horizon // 2, agent.horizon - 1):
        state = rng.normal(size=agent.state_dim)
        if not np.array_equal(agent.q_values(state, t), loaded.q_values(state, t)):
            return None, f"q_values differ after checkpoint round-trip at t={t}"
    return True, None


def _roundtrip(s: RunState, agent, path: Path):
    dqn.save_checkpoint(agent, path)
    return _same_q(s, agent, dqn.load_checkpoint(path, expected_n_actions=agent.n_actions))


def make(name: str):
    if name == "train-pendulum":
        return TrainWorkload("pendulum_three_phase", steps=3000, episodes=5)
    if name == "train-diffdrive":
        return TrainWorkload("diffdrive_sequential", steps=5000, episodes=12)
    if name == "eval-monitor":
        return EvalMonitorWorkload()
    raise ValueError(f"unknown workload {name!r}")
