import os

# One BLAS thread in the test process and in the processes it spawns, which
# inherit the environment. BLAS reads these when numpy is first imported, so
# they are set before the import below; a value set by the caller is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest

criterion_lines: list[str] = []


def action_index(grid, values) -> int:
    """Flat index of the action whose per-axis values are values (to 1e-8)."""
    multi = [int(np.flatnonzero(np.isclose(ax, v))[0]) for ax, v in zip(grid.axes, values)]
    return int(np.ravel_multi_index(multi, grid.shape))


def pytest_terminal_summary(terminalreporter):
    # Acceptance criteria verdicts are printed inside captured stdout; echo
    # them here so a plain `pytest -v` run shows one line per criterion.
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def assert_monitor_columns_exact():
    """Check that every non-state column of an exported trajectory CSV holds
    the rollout's values exactly. The CSV is parsed here, one float per cell,
    because read_trajectory_csv converts only t and the state columns."""
    def check(traj, path):
        header, *rows = Path(path).read_text().splitlines()
        cells = [row.split(",") for row in rows]
        got = {name: np.array([float(r[j]) for r in cells])
               for j, name in enumerate(header.split(","))}
        want = {"action": traj.actions, "reward": traj.rewards,
                **{f"rho_psi_{i}": col for i, col in enumerate(traj.rho_psi.T)},
                "gamma_lower": traj.gamma_lower, "margin": traj.margin,
                "satisfied_so_far": traj.satisfied_so_far}
        assert header.split(",") == ["t", *traj.schema, *want]
        for name, values in want.items():
            assert np.array_equal(values, got[name], equal_nan=True), name
    return check
