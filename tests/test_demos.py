"""Every script in demos/ runs to completion against the package in src/ and
prints exactly the pinned bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout; the output holds no paths and does not
# depend on the working directory
STDOUT_SHA256 = {
    "reproduce_showcase.py":
        "b9a8ac06ff2d5ff37e007a93c4719f3b8c430630c4f56176974ff1aa61d01bd1",
    "search_walkthrough.py":
        "ea8aba4751b041359e2a2a2f28693cc74033d5847dc66c924bf9c31d080af4bd",
    "three_by_three_certificate.py":
        "cbe68d0ec9f4bc1098c2548881a9d88585dcb2f8a92cd77cbc055c8c2a822d58",
}


def test_demos_found():
    assert {p.name for p in DEMOS} == set(STDOUT_SHA256)


@pytest.mark.parametrize("name, digest", [
    pytest.param(name, digest, id=name) for name, digest in STDOUT_SHA256.items()])
def test_demo_exits_zero(name, digest):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == digest
