import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stlfunnel.config import build_run, load_config
from stlfunnel.funnel import build_schedule, gamma_eval
from stlfunnel.reward import (
    MODE_ABLATION, MODE_FUNNEL, NoActiveSegmentError, RewardSpec, reward,
    reward_sign_check,
)
from stlfunnel.robustness import RhoBounds, rho_pointwise
from stlfunnel.stl.formula import temporal_conjuncts
from stlfunnel.stl.parser import parse_formula


def make_spec(formula, schema, bounds, horizon, mode=MODE_FUNNEL, **kwargs):
    phi = parse_formula(formula, schema)
    sched = build_schedule(phi, bounds, horizon, **kwargs)
    psis = tuple(c.body for c in temporal_conjuncts(phi))
    return phi, RewardSpec(schedule=sched, psis=psis, mode=mode)


@pytest.fixture
def overlap_spec():
    phi, spec = make_spec(
        "G[0,100](x <= 4) & F[0,50](x >= 1) & F[50,90](x >= 2)", ["x"],
        [RhoBounds(-1.0, 1.0)] * 3, 100, t_star_overrides={0: 20})
    return phi, spec


@pytest.fixture
def sequential_spec():
    phi, spec = make_spec(
        "F[2,4](x >= 1) & G[6,8](x <= 3)", ["x"],
        [RhoBounds(-0.5, 0.5)] * 2, 10, gamma_inf_overrides={0: 0.1, 1: 0.1})
    return phi, spec


def test_reward_is_margin_above_lower_bound(sequential_spec):
    _, spec = sequential_spec
    seg = spec.schedule.segments[0]
    t = 1
    s = {"x": 1.3}
    rho = rho_pointwise(spec.psis[seg.psi_index], s)
    expected = rho + gamma_eval(seg, t) - seg.params.rho_max
    assert math.isclose(reward(spec, s, t), expected, rel_tol=1e-12)


def test_reward_zero_at_closure_with_zero_robustness(sequential_spec):
    _, spec = sequential_spec
    seg = spec.schedule.segments[0]
    t_close = seg.t_begin + seg.params.t_star
    s = {"x": 1.0}  # rho_psi = 0 exactly
    assert abs(reward(spec, s, t_close)) <= 1e-9


def test_overlap_reward_is_min(overlap_spec):
    _, spec = overlap_spec
    s = {"x": 0.4}
    t = 30
    active = spec.schedule.active_segments(t)
    assert len(active) == 2
    per_seg = [float(rho_pointwise(spec.psis[a.psi_index], s))
               + gamma_eval(a, t) - a.params.rho_max for a in active]
    assert math.isclose(reward(spec, s, t), min(per_seg), rel_tol=1e-12)


def test_no_active_segment_returns_zero():
    # Sequential schedules cover every step, so a gap needs an overlapping
    # conjunction whose footprints end before the horizon.
    _, spec = make_spec("G[0,10](x >= 1) & G[5,20](x >= 2)", ["x"],
                        [RhoBounds(-1.0, 1.0)] * 2, 60,
                        t_star_overrides={0: 2, 1: 2})
    assert spec.schedule.overlapping
    assert reward(spec, {"x": 0.0}, 40) == 0.0


def test_reward_beyond_horizon_rejected(sequential_spec):
    _, spec = sequential_spec
    with pytest.raises(ValueError, match="horizon"):
        reward(spec, {"x": 0.0}, 11)


def test_ablation_mode_piecewise_robustness(sequential_spec):
    phi, spec = sequential_spec
    ablation = RewardSpec(schedule=spec.schedule, psis=spec.psis, mode=MODE_ABLATION)
    s = {"x": 2.0}
    # Segment 1 owns [0,4]: raw robustness of psi1 = x - 1.
    assert math.isclose(reward(ablation, s, 3), 1.0, rel_tol=1e-12)
    # Segment 2 owns (4,10]: raw robustness of psi2 = 3 - x.
    assert math.isclose(reward(ablation, s, 7), 1.0, rel_tol=1e-12)
    assert math.isclose(reward(ablation, {"x": 5.0}, 7), -2.0, rel_tol=1e-12)


def test_ablation_invariant_to_funnel_parameters():
    base_kwargs = dict(gamma_inf_overrides={0: 0.1, 1: 0.1})
    _, a = make_spec("F[2,4](x >= 1) & G[6,8](x <= 3)", ["x"],
                     [RhoBounds(-0.5, 0.5)] * 2, 10, mode=MODE_ABLATION, **base_kwargs)
    _, b = make_spec("F[2,4](x >= 1) & G[6,8](x <= 3)", ["x"],
                     [RhoBounds(-7.0, 0.5)] * 2, 10, mode=MODE_ABLATION,
                     gamma_inf_overrides={0: 0.004, 1: 0.02},
                     t_star_overrides={0: 3})
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = {"x": float(rng.uniform(-5, 5))}
        t = int(rng.integers(0, 11))
        assert reward(a, s, t) == reward(b, s, t)


def test_sign_check_inside(sequential_spec):
    _, spec = sequential_spec
    seg = spec.schedule.segments[0]
    t = 0
    # rho = -0.2 with a wide-open funnel: inside.
    s = {"x": 0.8}
    label, margin = reward_sign_check(spec, s, t)
    assert label == "inside"
    assert margin > 0
    assert math.isclose(margin, reward(spec, s, t), rel_tol=1e-12)


def test_sign_check_boundary_counts_inside(sequential_spec):
    _, spec = sequential_spec
    seg = spec.schedule.segments[0]
    t = 2
    lower = seg.lower_bound(t)
    s = {"x": 1.0 + lower}  # rho exactly on the moving lower bound
    label, margin = reward_sign_check(spec, s, t)
    assert label == "inside"
    assert abs(margin) <= 1e-12


def test_sign_check_below(sequential_spec):
    _, spec = sequential_spec
    s = {"x": -3.0}
    label, margin = reward_sign_check(spec, s, 0)
    assert label == "below"
    assert margin < 0


def test_sign_check_requires_active_segment():
    _, spec = make_spec("G[0,10](x >= 1) & G[5,20](x >= 2)", ["x"],
                        [RhoBounds(-1.0, 1.0)] * 2, 60,
                        t_star_overrides={0: 2, 1: 2})
    with pytest.raises(NoActiveSegmentError):
        reward_sign_check(spec, {"x": 0.0}, 40)


def test_sign_correspondence_random():
    _, spec = make_spec("G[5,30](x >= 1)", ["x"], [RhoBounds(-4.0, 2.0)], 30)
    rng = np.random.default_rng(13)
    for _ in range(200):
        s = {"x": float(rng.uniform(-6, 6))}
        t = int(rng.integers(0, 31))
        seg = spec.schedule.active_segments(t)[0]
        r = reward(spec, s, t)
        lower = seg.lower_bound(t)
        rho = float(rho_pointwise(spec.psis[0], s))
        assert (r > 0) == (rho > lower)


def test_reward_nonincreasing_in_t_for_fixed_state(sequential_spec):
    _, spec = sequential_spec
    s = {"x": 1.7}
    seg = spec.schedule.segments[1]
    vals = [reward(spec, s, t) for t in range(5, 9)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_overlap_consistency_many_segments():
    # k = 2..5 overlapping conjuncts over a shared window.
    for k in range(2, 6):
        conj = " & ".join(f"F[{2 * i},{40 + i}](x >= {i})" for i in range(k))
        phi, spec = make_spec(conj, ["x"], [RhoBounds(-10.0, 5.0)] * k, 60)
        rng = np.random.default_rng(k)
        for _ in range(30):
            s = {"x": float(rng.uniform(-3, 8))}
            t = int(rng.integers(0, 61))
            active = spec.schedule.active_segments(t)
            if not active:
                assert reward(spec, s, t) == 0.0
                continue
            per_seg = [float(rho_pointwise(spec.psis[a.psi_index], s))
                       + gamma_eval(a, t) - a.params.rho_max for a in active]
            assert math.isclose(reward(spec, s, t), min(per_seg), rel_tol=1e-12)


# Why acceptance criterion 6 fails: with sequential windows exactly one segment
# is active at each step, so the funnel reward is the ablation reward plus
# gamma(t) - rho_max, an offset no action can change.

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module", params=["diffdrive_sequential", "pendulum_three_phase"])
def sequential_run(request):
    return build_run(load_config(CONFIGS / f"{request.param}.json"))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sequential_funnel_minus_ablation_depends_on_t_only(sequential_run, data):
    funnel = sequential_run.reward_spec
    ablation = dataclasses.replace(funnel, mode=MODE_ABLATION)
    assert not funnel.schedule.overlapping
    t = data.draw(st.integers(0, funnel.horizon), label="t")
    active = funnel.schedule.active_segments(t)
    assert len(active) <= 1
    offset = active[0].gamma(t) - active[0].params.rho_max if active else 0.0
    coord = st.floats(-10.0, 10.0, allow_nan=False)
    for _ in range(3):
        s = {name: data.draw(coord, label=name) for name in sequential_run.env.schema}
        f, a = reward(funnel, s, t), reward(ablation, s, t)
        scale = max(1.0, abs(f), abs(a), abs(offset))
        assert math.isclose(f - a, offset, rel_tol=0.0, abs_tol=1e-12 * scale)
