"""Span tracing for the benchmark's traced run.

Every layer boundary is a public function of the package, wrapped at the name
its caller looks up (for example ``dqn.reward``, the name the training loop
calls, and ``evalmon.reward_fn``, the name rollouts call). A span records its
name, its parent span, and its start and end. Spans stay in memory and are
written out once, when the run ends. A span's self time is its duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
from array import array
from importlib import import_module
from types import SimpleNamespace
from time import perf_counter

import numpy as np

# Span names in report order.
SPANS = (
    "mlp.forward_single", "mlp.forward_batch", "mlp.backward", "mlp.adam_step",
    "dqn.train", "dqn.update", "dqn.td_target", "dqn.replay_add", "dqn.replay_sample",
    "dqn.sync_target", "dqn.clone", "dqn.save_checkpoint", "dqn.load_checkpoint",
    "envs.step", "reward.reward", "robustness.rho_pointwise", "robustness.rho_trace",
    "evalmon.rollout", "evalmon.check_satisfaction", "evalmon.export_csv",
    "evalmon.read_trajectory_csv", "config.build_run", "stl.parse_formula",
)


def wrap_points() -> list[tuple[object, str, str]]:
    """(owner, attribute, span) for every name a caller looks up at run time."""
    pkg = SimpleNamespace(**{
        name: import_module(f"stlfunnel.{name}")
        for name in ("config", "dqn", "envs", "evalmon", "mlp", "reward", "stl")})
    return [
        (pkg.mlp.MLP, "forward_single", "mlp.forward_single"),
        (pkg.mlp.MLP, "forward_batch", "mlp.forward_batch"),
        (pkg.mlp.MLP, "backward", "mlp.backward"),
        (pkg.mlp.Adam, "step", "mlp.adam_step"),
        (pkg.dqn, "train", "dqn.train"),
        (pkg.dqn.NeuralAgent, "update", "dqn.update"),
        (pkg.dqn, "td_target", "dqn.td_target"),
        (pkg.dqn.ReplayBuffer, "add", "dqn.replay_add"),
        (pkg.dqn.ReplayBuffer, "sample", "dqn.replay_sample"),
        (pkg.dqn.NeuralAgent, "sync_target", "dqn.sync_target"),
        (pkg.dqn.NeuralAgent, "clone", "dqn.clone"),
        (pkg.dqn, "save_checkpoint", "dqn.save_checkpoint"),
        (pkg.dqn, "load_checkpoint", "dqn.load_checkpoint"),
        (pkg.envs.PendulumEnv, "step", "envs.step"),
        (pkg.envs.DiffDriveEnv, "step", "envs.step"),
        (pkg.envs.IntegratorEnv, "step", "envs.step"),
        (pkg.dqn, "reward", "reward.reward"),
        (pkg.evalmon, "reward_fn", "reward.reward"),
        (pkg.reward, "rho_pointwise", "robustness.rho_pointwise"),
        (pkg.evalmon, "rho_trace", "robustness.rho_trace"),
        (pkg.evalmon, "rollout", "evalmon.rollout"),
        (pkg.evalmon, "check_satisfaction", "evalmon.check_satisfaction"),
        (pkg.evalmon, "export_csv", "evalmon.export_csv"),
        (pkg.evalmon, "read_trajectory_csv", "evalmon.read_trajectory_csv"),
        (pkg.config, "build_run", "config.build_run"),
        (pkg.config, "parse_formula", "stl.parse_formula"),
        (pkg.stl, "parse_formula", "stl.parse_formula"),
    ]


class Tracer:
    """In-memory span recorder that patches wrappers in and out."""

    def __init__(self):
        self.names: list[str] = list(SPANS)
        self.kind = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, span: str, fn):
        sid = self.names.index(span)
        kind, parent, start, end, stack = self.kind, self.parent, self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(kind)
            kind.append(sid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()

        return traced

    def install(self, points):
        for owner, attr, span in points:
            if attr not in vars(owner):
                raise AttributeError(f"{owner!r} defines no {attr!r} to trace as {span}")
            original = vars(owner)[attr]
            setattr(owner, attr, self.wrap(span, original))
            self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _arrays(self):
        return (np.array(self.kind, dtype=np.int32), np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=np.float64), np.array(self.end, dtype=np.float64))

    def calls(self) -> dict[str, int]:
        counts = np.bincount(self._arrays()[0], minlength=len(self.names))
        return {name: int(counts[i]) for i, name in enumerate(self.names)}

    def summary(self, wall_s: float) -> dict[str, float]:
        """<span>.calls, <span>.self_us_p50 and <span>.self_share for every span."""
        kind, parent, start, end = self._arrays()
        dur = end - start
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_t = dur - child
        out = {}
        for i, name in enumerate(self.names):
            mine = self_t[kind == i]
            out[f"{name}.calls"] = int(mine.size)
            out[f"{name}.self_us_p50"] = float(np.median(mine) * 1e6) if mine.size else 0.0
            out[f"{name}.self_share"] = float(mine.sum() / wall_s) if mine.size else 0.0
        return out

    def save(self, path):
        kind, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), kind=kind, parent=parent,
                            start=start, end=end)
