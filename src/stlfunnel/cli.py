"""Command-line entry point.

Subcommands: funnel (synthesize and dump the funnel schedule), train (run
time-aware Q-learning), eval (greedy evaluation episodes + trajectory CSVs),
monitor (offline satisfaction check of a trajectory CSV). Every command takes
--config, optional --seed/--out, and repeatable --set dot.path=value
overrides. Exit codes: 0 success, 2 config error, 3 diverging dynamics or
loss in training or evaluation, 4 I/O error, a trajectory that cannot be
monitored or a checkpoint that cannot be loaded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import evalmon
from .config import ConfigError, RunContext, apply_overrides, build_run, load_config
from .dqn import CheckpointError, TrainingDiverged, load_checkpoint, save_checkpoint, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4

log = logging.getLogger("stlfunnel")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", required=True, help="run configuration JSON")
    p.add_argument("--seed", type=int, default=None, help="override training.seed")
    p.add_argument("--out", default=None, help="override output_dir")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY.PATH=VALUE", help="override a config key")


def _load(args) -> RunContext:
    cfg = load_config(args.config)
    apply_overrides(cfg, args.overrides)
    if args.seed is not None:
        apply_overrides(cfg, [f"training.seed={args.seed}"])
    if args.out is not None:
        cfg["output_dir"] = args.out
    ctx = build_run(cfg)
    os.makedirs(ctx.output_dir, exist_ok=True)
    return ctx


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_agent(path, ctx, digest):
    """Checkpointed agent, checked against the environment of this run."""
    return load_checkpoint(path, expected_n_actions=ctx.env.n_actions, config_digest=digest,
                           expected_horizon=ctx.env.horizon,
                           expected_state_dim=len(ctx.env.schema))


def cmd_funnel(args) -> int:
    ctx = _load(args)
    out = ctx.output_dir
    _write_json(os.path.join(out, "schedule.json"), ctx.schedule.to_json_dict())
    evalmon.export_funnel_csv(ctx.schedule, os.path.join(out, "funnel.csv"))
    if ctx.schedule.overlapping:
        for i, seg in enumerate(ctx.schedule.segments):
            sub = dataclasses.replace(ctx.schedule, segments=(seg,))
            evalmon.export_funnel_csv(sub, os.path.join(out, f"funnel_segment_{i}.csv"))
    print(f"wrote schedule with {len(ctx.schedule.segments)} segment(s) to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    ctx = _load(args)
    out = ctx.output_dir
    digest = ctx.train_cfg.digest()
    agent = None
    start_step = 0
    if args.resume:
        agent = _load_agent(args.resume, ctx, digest)
        start_step = agent.meta.get("steps_done", 0)
        if not isinstance(start_step, int) or isinstance(start_step, bool) or start_step < 0:
            raise CheckpointError(f"{args.resume}: meta.steps_done must be a nonnegative "
                                  f"integer, got {start_step!r}")
    result = train(ctx.env, ctx.reward_spec, ctx.phi, ctx.train_cfg,
                   agent=agent, start_step=start_step)
    steps_done = start_step + ctx.train_cfg.total_steps
    final_agent = result.best_agent if result.best_agent is not None else result.agent
    save_checkpoint(final_agent, os.path.join(out, "checkpoint.npz"),
                    config_digest=digest,
                    meta={"steps_done": steps_done, "spec": ctx.spec_text,
                          "reward_mode": ctx.reward_spec.mode})
    with open(os.path.join(out, "training_log.csv"), "w") as fh:
        fh.write("step,episode,epsilon,loss,eval_satisfaction,eval_min_robustness\n")
        for row in result.log:
            fh.write(f"{row.step},{row.episode},{row.epsilon:.6f},{row.loss:.17g},"
                     f"{row.eval_satisfaction:.17g},{row.eval_min_robustness:.17g}\n")
    _write_json(os.path.join(out, "run_meta.json"), {
        "environment": ctx.env.metadata(),
        "spec": ctx.spec_text,
        "reward_mode": ctx.reward_spec.mode,
        "config_digest": digest,
        "steps_done": steps_done,
    })
    last = result.log[-1] if result.log else None
    print(f"trained {ctx.train_cfg.total_steps} steps "
          f"(eval satisfaction {last.eval_satisfaction if last else float('nan')})")
    return EXIT_OK


def cmd_eval(args) -> int:
    ctx = _load(args)
    out = ctx.output_dir
    if args.episodes <= 0:
        raise ConfigError(f"--episodes must be positive, got {args.episodes}")
    agent = _load_agent(args.checkpoint, ctx, ctx.train_cfg.digest())
    seed = ctx.train_cfg.seed
    episodes = []
    for ep in range(args.episodes):
        traj = evalmon.rollout(agent, ctx.env, ctx.reward_spec, seed=[seed, ep],
                               greedy=True, phi=ctx.phi)
        report = evalmon.check_satisfaction(ctx.phi, traj)
        csv_path = os.path.join(out, f"trajectory_{ep:03d}.csv")
        evalmon.export_csv(traj, csv_path,
                           metadata_path=os.path.join(out, f"trajectory_{ep:03d}.meta.json"))
        episodes.append({
            "episode": ep,
            "satisfied": bool(report.satisfied),
            "robustness": report.robustness,
            "obligation_min_robustness": report.obligation_min,
            "csv": os.path.basename(csv_path),
        })
    robs = [e["robustness"] for e in episodes]
    summary = {
        "episodes": episodes,
        "n_episodes": len(episodes),
        "satisfaction_rate": float(np.mean([e["satisfied"] for e in episodes])),
        "min_robustness": float(np.min(robs)),
        "mean_robustness": float(np.mean(robs)),
        "reward_mode": ctx.reward_spec.mode,
        "spec": ctx.spec_text,
    }
    _write_json(os.path.join(out, "summary.json"), summary)
    print(json.dumps({k: summary[k] for k in
                      ("satisfaction_rate", "min_robustness", "mean_robustness")}))
    return EXIT_OK


def cmd_monitor(args) -> int:
    ctx = _load(args)
    traj = evalmon.read_trajectory_csv(args.trajectory, list(ctx.env.schema))
    report = evalmon.check_satisfaction(ctx.phi, traj)
    verdict = {
        "satisfied": bool(report.satisfied),
        "robustness": report.robustness,
        "obligation_min_robustness": report.obligation_min,
        "spec": ctx.spec_text,
        "trajectory": str(args.trajectory),
    }
    _write_json(os.path.join(ctx.output_dir, "verdict.json"), verdict)
    print(json.dumps(verdict))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stlfunnel",
        description="Funnel-shaped rewards from temporal-logic specs and "
                    "time-aware deep Q-learning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("funnel", help="synthesize the funnel schedule")
    _add_common(p)
    p.set_defaults(func=cmd_funnel)

    p = sub.add_parser("train", help="train the time-aware Q-learning agent")
    _add_common(p)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint with greedy rollouts")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--episodes", type=int, default=20)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("monitor", help="check a trajectory CSV against the spec")
    _add_common(p)
    p.add_argument("--trajectory", required=True, help="trajectory CSV to check")
    p.set_defaults(func=cmd_monitor)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("STLFUNNEL_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDiverged as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except evalmon.TrajectoryError as exc:
        print(f"trajectory error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
