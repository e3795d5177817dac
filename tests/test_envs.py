import math

import numpy as np
import pytest

from conftest import action_index

from stlfunnel.envs import (
    ActionGrid, DiffDriveEnv, EnvConfig, IntegratorEnv, PendulumEnv, make_env,
)


def pendulum(**kwargs):
    return make_env(EnvConfig(kind="pendulum", **kwargs))


def diffdrive(**kwargs):
    return make_env(EnvConfig(kind="diffdrive", **kwargs))


def integrator(**kwargs):
    return make_env(EnvConfig(kind="integrator", **kwargs))


# Action grids -----------------------------------------------------------------

def test_pendulum_torque_grid():
    env = pendulum()
    assert env.n_actions == 61
    assert env.grid.tuple_of(0) == (-3.0,)
    assert env.grid.tuple_of(30) == pytest.approx((0.0,))
    assert env.grid.tuple_of(60) == (3.0,)


def test_diffdrive_action_grid():
    env = diffdrive()
    assert env.n_actions == 273  # 21 forward speeds x 13 turn rates
    assert env.grid.tuple_of(0) == (-5.0, -3.0)
    assert env.grid.tuple_of(272) == (5.0, 3.0)


def test_integrator_velocity_grid():
    env = integrator()
    assert env.n_actions == 13
    assert [env.grid.tuple_of(i)[0] for i in (0, 6, 12)] == [-3.0, 0.0, 3.0]


def test_action_grid_round_trip_bijection():
    # Flat indices follow np.unravel_index order, one distinct tuple each.
    env = diffdrive()
    tuples = [env.grid.tuple_of(i) for i in range(env.n_actions)]
    assert len(set(tuples)) == env.n_actions
    for i, values in enumerate(tuples):
        multi = np.unravel_index(i, env.grid.shape)
        assert values == tuple(ax[k] for ax, k in zip(env.grid.axes, multi))


def test_action_grid_rejects_bad_index_and_value():
    env = integrator()
    for index in (-1, 13):
        with pytest.raises(IndexError):
            env.grid.tuple_of(index)


# Pendulum dynamics ------------------------------------------------------------

def test_pendulum_step_horizontal_no_torque():
    env = pendulum()
    a0 = action_index(env.grid, (0.0,))
    nxt = env.step(np.array([math.pi / 2, 0.0]), a0)
    # theta unchanged this step; omega picks up tau * g/l * sin(theta) = 0.196.
    assert nxt[0] == pytest.approx(math.pi / 2)
    assert nxt[1] == pytest.approx(0.196, abs=1e-12)


def test_pendulum_step_upright_full_torque():
    env = pendulum()
    a = action_index(env.grid, (3.0,))
    nxt = env.step(np.array([0.0, 0.0]), a)
    # omega gains tau * torque / (m l^2) = 0.01 * 3 / 0.0375 = 0.8.
    assert nxt[0] == pytest.approx(0.0)
    assert nxt[1] == pytest.approx(0.8, abs=1e-12)


def test_pendulum_step_with_damping():
    env = pendulum()
    a0 = action_index(env.grid, (0.0,))
    nxt = env.step(np.array([0.0, 2.0]), a0)
    # theta advances by tau * omega; omega loses tau * mu/(m l^2) * omega.
    assert nxt[0] == pytest.approx(0.02)
    assert nxt[1] == pytest.approx(2.0 - 0.01 * (0.05 / 0.0375) * 2.0)


def test_pendulum_default_reset_hangs_down():
    env = pendulum()
    assert np.array_equal(env.reset(np.random.default_rng(0)), [math.pi, 0.0])


def test_pendulum_unforced_energy_dissipates():
    env = pendulum()
    m, l, g = (env.constants[k] for k in ("m", "l", "g"))

    def energy(state):
        """Total mechanical energy, zero at the hanging-down rest state."""
        theta, omega = state
        return 0.5 * m * l * l * omega * omega + m * g * l * (1.0 + math.cos(theta))

    a0 = action_index(env.grid, (0.0,))
    s = np.array([2.0, 0.0])
    energies = [energy(s)]
    for _ in range(500):
        s = env.step(s, a0)
        energies.append(energy(s))
    # Euler integration can inject energy transiently; over a long unforced
    # run the damping term must win.
    assert energies[-1] < energies[0]


def test_pendulum_constant_override():
    env = pendulum(constants={"mu": 0.0})
    a0 = action_index(env.grid, (0.0,))
    nxt = env.step(np.array([0.0, 2.0]), a0)
    assert nxt[1] == pytest.approx(2.0)


# Differential drive -----------------------------------------------------------

def test_diffdrive_step_straight():
    env = diffdrive(tau=0.05)
    a = action_index(env.grid, (5.0, 3.0))
    nxt = env.step(np.array([0.0, 0.0, 0.0]), a)
    assert nxt == pytest.approx([0.25, 0.0, 0.15])


def test_diffdrive_step_at_angle():
    env = diffdrive(tau=0.1)
    a = action_index(env.grid, (2.0, -1.0))
    theta = math.pi / 3
    nxt = env.step(np.array([1.0, 2.0, theta]), a)
    assert nxt[0] == pytest.approx(1.0 + 0.1 * 2.0 * math.cos(theta))
    assert nxt[1] == pytest.approx(2.0 + 0.1 * 2.0 * math.sin(theta))
    assert nxt[2] == pytest.approx(theta - 0.1)


def test_diffdrive_heading_not_wrapped():
    env = diffdrive(tau=1.0)
    a = action_index(env.grid, (0.0, 3.0))
    s = np.array([0.0, 0.0, 0.0])
    for _ in range(5):
        s = env.step(s, a)
    assert s[2] == pytest.approx(15.0)  # > 2 pi, intentionally unwrapped


# Integrator -------------------------------------------------------------------

def test_integrator_step():
    env = integrator(tau=0.1)
    assert env.step(np.array([25.0]), action_index(env.grid, (-3.0,)))[0] == pytest.approx(24.7)


def test_integrator_linearity():
    env = integrator(tau=0.1)
    a = action_index(env.grid, (2.0,))
    rng = np.random.default_rng(0)
    for _ in range(20):
        x1, x2 = rng.uniform(0, 50, 2)
        d1 = env.step(np.array([x1]), a)[0] - x1
        d2 = env.step(np.array([x2]), a)[0] - x2
        assert d1 == pytest.approx(d2, abs=1e-12)


# Shared interface -------------------------------------------------------------

def test_step_is_bit_exact_deterministic():
    for env in (pendulum(), diffdrive(), integrator()):
        s = env.reset(np.random.default_rng(0))
        a = env.n_actions // 3
        first = env.step(s, a)
        for _ in range(10):
            again = env.step(s, a)
            assert np.array_equal(first, again)


def test_uniform_reset_seeded_and_bounded():
    env = integrator(reset_kind="uniform", reset_low=(0.0,), reset_high=(50.0,))
    a = env.reset(np.random.default_rng(42))
    b = env.reset(np.random.default_rng(42))
    assert np.array_equal(a, b)
    draws = [env.reset(np.random.default_rng(k))[0] for k in range(200)]
    assert all(0.0 <= d <= 50.0 for d in draws)
    assert max(draws) - min(draws) > 25.0


def test_fixed_reset_override():
    env = pendulum(reset_fixed=(0.5, -0.25))
    assert np.array_equal(env.reset(np.random.default_rng(0)), [0.5, -0.25])


def test_reset_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="components"):
        pendulum(reset_fixed=(0.5,))


def test_config_validation():
    with pytest.raises(ValueError, match="tau"):
        EnvConfig(kind="pendulum", tau=0.0)
    with pytest.raises(ValueError, match="horizon"):
        EnvConfig(kind="pendulum", horizon=0)
    with pytest.raises(ValueError, match="kind"):
        EnvConfig(kind="cartpole")


def test_state_dict_and_metadata():
    env = diffdrive()
    d = env.state_dict(np.array([1.0, 2.0, 3.0]))
    assert d == {"x": 1.0, "y": 2.0, "theta": 3.0}
    meta = env.metadata()
    assert meta["kind"] == "diffdrive"
    assert meta["schema"] == ["x", "y", "theta"]
    assert meta["n_actions"] == 273
