import json
import math
import re

import numpy as np
import pytest

from stlfunnel.funnel import (
    FunnelParams, FunnelSegment, FunnelSynthesisError, build_schedule, gamma_eval, synth_l,
)
from stlfunnel.robustness import RhoBounds
from stlfunnel.stl.formula import Interval
from stlfunnel.stl.parser import parse_formula

PENDULUM_SCHEMA = ["theta", "omega"]
PENDULUM_SPEC = (
    "G[400,700](abs(theta)<=0.05 & abs(omega)<=0.05)"
    " & G[1000,1200](abs(1.57-theta)<=0.05 & abs(omega)<=0.05)"
    " & G[1700,2000](abs(-1.57-theta)<=0.05 & abs(omega)<=0.05)"
)
PENDULUM_BOUNDS = [RhoBounds(0.05 - math.pi, 0.05)] * 3
PENDULUM_GINF = {0: 0.01, 1: 0.01, 2: 0.01}


def pendulum_schedule(horizon=2000):
    phi = parse_formula(PENDULUM_SPEC, PENDULUM_SCHEMA)
    return build_schedule(phi, PENDULUM_BOUNDS, horizon,
                          gamma_inf_overrides=PENDULUM_GINF)


def _segment(gamma0=1.0, gamma_inf=0.1, rho_max=0.5, t_star=10,
             t_begin=0, t_end=20, kind="G"):
    params = FunnelParams(gamma0=gamma0, gamma_inf=gamma_inf,
                          l=synth_l(gamma0, gamma_inf, rho_max, t_star),
                          rho_max=rho_max, t_star=t_star)
    return FunnelSegment(t_begin=t_begin, t_end=t_end, params=params,
                         psi_index=0, kind=kind, obligation=Interval(t_star, t_end))


def single_segment(text, t_star=None):
    """The one segment of a single-conjunct formula: gamma0 = 1.0,
    gamma_inf = 0.1 and rho_max = 0.5, so l = ln(0.9/0.4)/t*."""
    sched = build_schedule(parse_formula(text, ["x"]), [RhoBounds(-0.5, 0.5)], 40,
                           gamma_inf_overrides={0: 0.1},
                           t_star_overrides={} if t_star is None else {0: t_star})
    (seg,) = sched.segments
    return seg


# synth_l ----------------------------------------------------------------------

def test_synth_l_closes_at_rho_max():
    l = synth_l(1.0, 0.1, 0.5, 10)
    assert math.isclose(l, math.log(0.9 / 0.4) / 10, rel_tol=1e-12)
    assert math.isclose(l, 0.08109, abs_tol=5e-6)


def test_synth_l_pendulum_first_segment():
    assert math.isclose(synth_l(math.pi, 0.01, 0.05, 400), 0.01090, abs_tol=1e-5)


def test_synth_l_rejects_log_argument_at_most_one():
    # gamma0 <= rho_max makes the log argument <= 1.
    with pytest.raises(FunnelSynthesisError, match="gamma0"):
        synth_l(0.4, 0.1, 0.5, 10)
    with pytest.raises(FunnelSynthesisError, match="gamma_inf"):
        synth_l(1.0, 0.6, 0.5, 10)


# closure steps ----------------------------------------------------------------

def test_always_operator_closes_at_interval_start():
    seg = single_segment("G[10,20](x >= 1)")
    assert seg.params.t_star == 10
    assert seg.params.l == synth_l(1.0, 0.1, 0.5, 10)


def test_eventually_defaults_to_interval_end():
    seg = single_segment("F[10,20](x >= 1)")
    assert seg.params.t_star == 20
    assert math.isclose(seg.params.l, 0.04055, abs_tol=5e-6)


def test_fg_defaults_to_c1_plus_c2():
    assert single_segment("F[2,6]G[3,4](x >= 1)").params.t_star == 9


def test_zero_closure_rejected():
    with pytest.raises(FunnelSynthesisError, match="t\\*"):
        single_segment("G[0,20](x >= 1)")


def test_out_of_range_t_star_rejected():
    for text, t_star, admissible in [("F[10,20](x >= 1)", 25, "[10,20]"),
                                     ("F[10,20](x >= 1)", 9, "[10,20]"),
                                     ("G[10,20](x >= 1)", 21, "[1,20]"),
                                     ("F[2,6]G[3,4](x >= 1)", 4, "[5,9]"),
                                     ("F[2,6]G[3,4](x >= 1)", 10, "[5,9]")]:
        with pytest.raises(FunnelSynthesisError,
                           match=re.escape(f"admissible range {admissible}")):
            single_segment(text, t_star)


def fg_segment(text, t_stars):
    """Whether the schedule overlaps, and its F-G segment (conjunct 1)."""
    sched = build_schedule(parse_formula(text, ["x"]), [RhoBounds(-1.0, 1.0)] * 2, 30,
                           t_star_overrides=t_stars)
    (seg,) = [s for s in sched.segments if s.psi_index == 1]
    assert seg.kind == "FG"
    return sched.overlapping, seg


@pytest.mark.parametrize("text, t_stars, overlapping, t_begin, default, lo, hi", [
    # Sequential: the F-G clock starts at the F's end, step 4, so
    # F[6,10]G[2,5] closes at 10+2-4 = 8, or from 6+2-4 = 4 on.
    ("F[2,4](x >= 1) & F[6,10]G[2,5](x >= 1)", {}, False, 4, 8, 4, 8),
    # Overlapping: the F-G clock starts at its own a = 5, so F[5,10]G[2,6]
    # closes at 10+2-5 = 7, or from 5+2-5 = 2 on.
    ("G[0,30](x <= 3) & F[5,10]G[2,6](x >= 1)", {0: 10}, True, 5, 7, 2, 7),
], ids=["sequential", "overlapping"])
def test_fg_beside_another_conjunct(text, t_stars, overlapping, t_begin, default, lo, hi):
    got_overlapping, seg = fg_segment(text, t_stars)
    assert (got_overlapping, seg.t_begin, seg.params.t_star) == (overlapping, t_begin, default)
    for t_star in (lo, hi):
        assert fg_segment(text, {**t_stars, 1: t_star})[1].params.t_star == t_star
    for t_star in (lo - 1, hi + 1):
        with pytest.raises(FunnelSynthesisError,
                           match=re.escape(f"admissible range [{lo},{hi}]")):
            fg_segment(text, {**t_stars, 1: t_star})


# gamma_eval -------------------------------------------------------------------

def test_gamma_opens_at_gamma0():
    seg = _segment()
    assert math.isclose(gamma_eval(seg, seg.t_begin), seg.params.gamma0, rel_tol=1e-12)


def test_gamma_limit_is_gamma_inf():
    seg = _segment(t_end=10 ** 6)
    assert math.isclose(gamma_eval(seg, 10 ** 6), seg.params.gamma_inf, abs_tol=1e-9)


def test_gamma_closes_at_rho_max():
    seg = _segment()
    val = gamma_eval(seg, seg.t_begin + seg.params.t_star)
    assert math.isclose(val, 0.9 * math.exp(-0.8109302162163287) + 0.1, rel_tol=1e-9)
    assert math.isclose(val, seg.params.rho_max, abs_tol=1e-9)


def test_gamma_outside_segment_rejected():
    seg = _segment()
    with pytest.raises(ValueError):
        gamma_eval(seg, seg.t_end + 1)


def test_closure_identity_random_draws():
    rng = np.random.default_rng(3)
    for _ in range(100):
        rho_max = float(rng.uniform(0.1, 5.0))
        gamma0 = rho_max * float(rng.uniform(1.1, 10.0))
        gamma_inf = float(rng.uniform(1e-4, 0.9)) * min(gamma0, rho_max)
        t_star = int(rng.integers(1, 500))
        params = FunnelParams(gamma0, gamma_inf, synth_l(gamma0, gamma_inf, rho_max, t_star),
                              rho_max, t_star)
        assert abs(params.gamma(t_star) - rho_max) <= 1e-9
        # Strictly decreasing along the segment.
        samples = [params.gamma(t) for t in range(0, t_star + 1)]
        assert all(a > b for a, b in zip(samples, samples[1:]))


def test_lower_bound_sign_change_exactly_once():
    seg = _segment()
    signs = [-gamma_eval(seg, t) + seg.params.rho_max >= 0
             for t in range(seg.t_begin, seg.t_end + 1)]
    # Negative before closure, nonnegative from t* onwards.
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert flips == 1
    assert not signs[0]
    assert all(signs[seg.params.t_star:])


# build_schedule ---------------------------------------------------------------

def test_pendulum_schedule_segments():
    sched = pendulum_schedule()
    spans = [(s.t_begin, s.t_end) for s in sched.segments]
    assert spans == [(0, 700), (700, 1200), (1200, 2000)]
    t_stars = [s.params.t_star for s in sched.segments]
    assert t_stars == [400, 300, 500]
    ls = [s.params.l for s in sched.segments]
    for got, want in zip(ls, (0.01090, 0.01453, 0.00872)):
        assert math.isclose(got, want, abs_tol=1e-5)


def test_sequential_f_then_g_example():
    phi = parse_formula("F[2,4](x >= 1) & G[6,8](x <= 3)", ["x"])
    bounds = [RhoBounds(-0.5, 0.5)] * 2
    sched = build_schedule(phi, bounds, 8,
                           gamma_inf_overrides={0: 0.1, 1: 0.1})
    # gamma0 = 1.0 from the bounds, so l = ln(2.25)/t*.
    seg1, seg2 = sched.segments
    assert seg1.params.t_star == 4 and seg2.params.t_star == 2
    assert math.isclose(seg1.params.l, math.log(2.25) / 4, rel_tol=1e-12)
    assert math.isclose(seg2.params.l, math.log(2.25) / 2, rel_tol=1e-12)


def test_single_g_from_zero_requires_override():
    phi = parse_formula("G[0,50](x >= 1)", ["x"])
    with pytest.raises(FunnelSynthesisError, match="override"):
        build_schedule(phi, [RhoBounds(-1.0, 1.0)], 50)
    sched = build_schedule(phi, [RhoBounds(-1.0, 1.0)], 50,
                           t_star_overrides={0: 10})
    assert sched.segments[0].params.t_star == 10


def test_schedule_rejects_nonpositive_rho_max():
    phi = parse_formula("G[10,50](x >= 1)", ["x"])
    with pytest.raises(FunnelSynthesisError, match="rho_max"):
        build_schedule(phi, [RhoBounds(-2.0, -0.5)], 50)


def test_schedule_names_the_sub_formula_of_a_synthesis_error():
    phi = parse_formula("F[2,4](x >= 1) & G[6,8](x <= 3)", ["x"])
    with pytest.raises(FunnelSynthesisError, match="sub-formula 1 .*gamma_inf"):
        build_schedule(phi, [RhoBounds(-0.5, 0.5)] * 2, 8, gamma_inf_overrides={1: 0.6})


def test_schedule_rejects_short_horizon():
    phi = parse_formula("G[10,50](x >= 1)", ["x"])
    with pytest.raises(FunnelSynthesisError, match="horizon"):
        build_schedule(phi, [RhoBounds(-1.0, 1.0)], 40)


def test_sequential_partition_and_reopen():
    sched = pendulum_schedule()
    # Every step maps to exactly one segment.
    for t in range(0, sched.horizon + 1):
        assert len(sched.active_segments(t)) == 1
    # Boundary: the next segment re-opens at gamma0.
    seg2 = sched.segments[1]
    assert math.isclose(gamma_eval(seg2, 700), seg2.params.gamma0, rel_tol=1e-12)
    # Discontinuity: closing value at the boundary is far below gamma0.
    seg1 = sched.segments[0]
    assert gamma_eval(seg1, 700) < 0.1 * seg2.params.gamma0


def test_overlapping_schedule_active_sets():
    phi = parse_formula(
        "G[0,100](x <= 4) & F[0,50](x >= 1) & F[50,90](x >= 2)", ["x"])
    bounds = [RhoBounds(-1.0, 1.0)] * 3
    sched = build_schedule(phi, bounds, 100, t_star_overrides={0: 20})
    assert sched.overlapping
    assert {s.psi_index for s in sched.active_segments(10)} == {0, 1}
    assert {s.psi_index for s in sched.active_segments(50)} == {0, 1, 2}
    assert {s.psi_index for s in sched.active_segments(95)} == {0}


def test_schedule_deterministic():
    a = pendulum_schedule()
    b = pendulum_schedule()
    assert a == b


def test_schedule_json_serialization():
    sched = pendulum_schedule()
    doc = json.loads(json.dumps(sched.to_json_dict()))
    assert doc["horizon"] == 2000
    assert len(doc["segments"]) == 3
    seg = doc["segments"][0]
    assert set(seg["params"]) == {"gamma0", "gamma_inf", "l", "rho_max", "t_star"}
    assert seg["obligation"] == [400, 700]
