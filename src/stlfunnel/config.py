"""Run configuration: a single JSON document driving every CLI command.

Sections: environment (simulator + horizon + reset), spec (formula text,
state box for robustness-bound estimation, optional per-conjunct overrides),
training (Q-learning hyperparameters), reward_mode, output_dir. Command-line
overrides use dot paths, e.g. training.seed=3.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass

from .envs import EnvConfig, Environment, make_env
from .funnel import FunnelSchedule, build_schedule
from .robustness import RhoBounds, estimate_rho_bounds
from .reward import MODE_FUNNEL, RewardSpec
from .stl.formula import Formula, temporal_conjuncts
from .stl.parser import parse_formula
from .dqn import TrainConfig

__all__ = ["ConfigError", "RunContext", "load_config", "apply_overrides", "build_run"]


class ConfigError(ValueError):
    pass


@dataclass
class RunContext:
    env: Environment
    phi: Formula
    schedule: FunnelSchedule
    reward_spec: RewardSpec
    train_cfg: TrainConfig
    output_dir: str
    raw: dict

    @property
    def spec_text(self) -> str:
        return self.raw["spec"]["formula"]


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _parse_scalar(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply key.path=value overrides in place; values parse as JSON scalars."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key.path=value")
        path, value = item.split("=", 1)
        keys = path.split(".")
        node = cfg
        for key in keys[:-1]:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        node[keys[-1]] = _parse_scalar(value)
    return cfg


@contextmanager
def _section(where: str):
    """Turn a failure to build one config section into a ConfigError naming it;
    a ConfigError raised inside passes through unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        detail = f"missing required key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"{where}: {detail}") from exc


def _build_env(env_cfg: dict) -> Environment:
    reset = env_cfg.get("reset", {"kind": "default"})
    reset_kind = reset.get("kind", "default")
    if reset_kind in ("default", "fixed"):
        kwargs = {"reset_kind": "fixed"}
        if reset_kind == "fixed":
            kwargs["reset_fixed"] = tuple(reset["value"])
    elif reset_kind == "uniform":
        kwargs = {"reset_kind": "uniform", "reset_low": tuple(reset["low"]),
                  "reset_high": tuple(reset["high"])}
    else:
        raise ValueError(f"reset kind {reset_kind!r} unknown")
    return make_env(EnvConfig(kind=env_cfg["kind"], tau=float(env_cfg.get("tau", 0.01)),
                              horizon=int(env_cfg.get("horizon", 200)),
                              constants=env_cfg.get("constants", {}), **kwargs))


def _int_key_map(raw: dict | None) -> dict[int, object]:
    """A per-conjunct mapping with its JSON string keys read as conjunct indices."""
    return {int(k): v for k, v in (raw or {}).items()}


def build_run(cfg: dict) -> RunContext:
    """Every section of cfg built into a RunContext; ConfigError names the
    section of the first value that does not build."""
    with _section("environment"):
        env = _build_env(cfg["environment"])
    with _section("spec.formula"):
        spec_cfg = cfg["spec"]
        phi = parse_formula(spec_cfg["formula"], list(env.schema))
        conjuncts = temporal_conjuncts(phi)
    with _section("spec"):
        box = {k: tuple(v) for k, v in spec_cfg.get("box", {}).items()}
        grid_n = int(spec_cfg.get("grid_n", 101))
        bound_overrides = _int_key_map(spec_cfg.get("rho_bounds"))
        bounds = []
        for idx, c in enumerate(conjuncts):
            if idx in bound_overrides:
                lo, hi = bound_overrides[idx]
                bounds.append(RhoBounds(float(lo), float(hi)))
            elif not box:
                raise ConfigError(
                    f"spec.box required to estimate rho bounds for conjunct {idx} "
                    "(or supply spec.rho_bounds)")
            else:
                bounds.append(estimate_rho_bounds(c.body, box, grid_n))
        t_star = {k: int(v) for k, v in _int_key_map(spec_cfg.get("t_star")).items()}
        gamma_inf = {k: float(v) for k, v in _int_key_map(spec_cfg.get("gamma_inf")).items()}
        schedule = build_schedule(phi, bounds, env.horizon,
                                  gamma_inf_overrides=gamma_inf, t_star_overrides=t_star)
    with _section("reward_mode"):
        reward_spec = RewardSpec(schedule=schedule, psis=tuple(c.body for c in conjuncts),
                                 mode=cfg.get("reward_mode", MODE_FUNNEL))
    with _section("training"):
        train_raw = dict(cfg.get("training", {}))
        if "hidden_sizes" in train_raw:
            train_raw["hidden_sizes"] = tuple(train_raw["hidden_sizes"])
        if train_raw.get("state_scale") is not None:
            train_raw["state_scale"] = tuple(train_raw["state_scale"])
        train_cfg = TrainConfig(**train_raw)
        if train_cfg.state_scale is not None and len(train_cfg.state_scale) != len(env.schema):
            raise ValueError(f"state_scale has {len(train_cfg.state_scale)} values, "
                             f"the state has {len(env.schema)}")
    with _section("output_dir"):
        output_dir = os.fspath(cfg.get("output_dir", "out"))
    return RunContext(env=env, phi=phi, schedule=schedule, reward_spec=reward_spec,
                      train_cfg=train_cfg, output_dir=output_dir, raw=cfg)
