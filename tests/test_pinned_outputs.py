"""Fixed-seed CLI outputs stay byte-identical.

For every shipped config this runs `funnel`, a 400-step `train`, a two-episode
`eval` of that checkpoint and `monitor` on its first trajectory, and compares
the sha256 of each file they write with tests/pinned_outputs.json (the path
that verdict.json records is left out). Floating-point results depend on the
BLAS build and the C math library, so the digests are keyed by a fingerprint
of both; on a machine whose fingerprint is not in the file the test skips and
names it, and checks nothing.

Record this machine's digests, next to those of other fingerprints, with

    PYTHONPATH=src python tests/test_pinned_outputs.py

After a change that is meant to alter the outputs, delete the other
fingerprints' entries: they can only be remade on their own machines.
"""

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from stlfunnel.cli import main
from stlfunnel.mlp import MLP

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PINNED = Path(__file__).with_name("pinned_outputs.json")


def numerics_fingerprint() -> str:
    """Digest of a seeded network's batch and single forward passes and of
    math.sin/math.exp on fixed inputs."""
    net = MLP([4, 64, 64, 9], np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(64, 4))
    batch, _ = net.forward_batch(x)
    single = net.forward_single(x[0])
    grid = np.linspace(-20.0, 20.0, 101).tolist()
    libm = np.array([f(v) for f in (math.sin, math.exp) for v in grid])
    return hashlib.sha256(b"".join(a.tobytes() for a in (batch, single, libm))).hexdigest()[:16]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(config: Path, out: Path) -> dict[str, str]:
    """sha256 of every file funnel, train, eval and monitor write for one config."""
    common = ["--config", str(config), "--set", "training.total_steps=400"]
    ckpt = out / "train" / "checkpoint.npz"
    trajectory = out / "eval" / "trajectory_000.csv"
    for argv in (["funnel", *common, "--out", str(out / "funnel")],
                 ["train", *common, "--out", str(out / "train")],
                 ["eval", *common, "--out", str(out / "eval"),
                  "--checkpoint", str(ckpt), "--episodes", "2"],
                 ["monitor", *common, "--out", str(out / "monitor"),
                  "--trajectory", str(trajectory)]):
        assert main(argv) == 0, argv
    digests = {p.relative_to(out).as_posix(): _sha256(p.read_bytes())
               for p in sorted(out.rglob("*")) if p.is_file()}
    verdict = json.loads((out / "monitor" / "verdict.json").read_text())
    del verdict["trajectory"]
    digests["monitor/verdict.json"] = _sha256(json.dumps(verdict, sort_keys=True).encode())
    return digests


@pytest.mark.parametrize("config", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_fixed_seed_outputs_match_pinned_digests(config, tmp_path):
    fingerprint = numerics_fingerprint()
    pinned = json.loads(PINNED.read_text()).get(fingerprint)
    if pinned is None:
        pytest.skip(f"no digests pinned for numerics fingerprint {fingerprint}")
    assert output_digests(CONFIGS / f"{config}.json", tmp_path) == pinned[config]


if __name__ == "__main__":
    doc = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        doc[numerics_fingerprint()] = {
            p.stem: output_digests(p, Path(tmp) / p.stem) for p in sorted(CONFIGS.glob("*.json"))}
    PINNED.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {PINNED}", file=sys.stderr)
