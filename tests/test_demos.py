"""The demos keep their bytes: each runs in its own interpreter under
``-W error`` and its stdout is pinned by SHA-256 (numpy 2.4, x86-64)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMO_DIGESTS = {
    "01_poincare_geometry": "5ae06b4b82b2dcf81d6a52113300fa316306e4de7bd5b1d23b531e2afaef71b2",
    "02_phase_noise_source": "874ba3c9a76c8fd879db9e43fa83c19d6827ac0e9510568bee8b2c9448924735",
    "03_fringe_sweep": "0afb4f189757afa50670fa6b056dbfeaa3426e67d05ad3a65eb08bdc29407a09",
    "04_nonlocality": "90d8eb7e8c17700a20c94b998f82d09e3de1f649ac7bc6b86efc8df3df376ae0",
}


def test_every_demo_is_pinned():
    assert sorted(path.stem for path in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name, digest", DEMO_DIGESTS.items(), ids=DEMO_DIGESTS)
def test_demo_stdout_is_pinned(tmp_path, name, digest):
    done = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / f"{name}.py")],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr == b""
    assert hashlib.sha256(done.stdout).hexdigest() == digest
