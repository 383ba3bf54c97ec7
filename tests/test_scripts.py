"""The pinned checks of the scripts, each run as from the command line in a
fresh interpreter, so that planning output, the instances the shared
generators draw and detection's pruning rule cannot move unseen."""
from pathlib import Path

import pytest

from synth import run_python

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# the count lines of the stress run at each seed
STRESS_COUNTS = {
    0: "452 solvable, 424 with an acyclic split, 76 not bipartite, 0 mismatches, ",
    1: "461 solvable, 441 with an acyclic split, 58 not bipartite, 0 mismatches, ",
}


def test_plan_digest_is_unchanged():
    # planning output holds no floats, so its digest is the same everywhere
    digest = "e00e35fb0e9168c6a1bb80cd85bff063f0cb822ff0fce2bcd09e7f6634105854"
    proc = run_python(str(SCRIPTS / "plan_digest.py"), "--expect", digest)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("seed", STRESS_COUNTS)
def test_stress_run_finds_no_mismatch(seed):
    proc = run_python(str(SCRIPTS / "stress_random.py"), "--trials", "500", "--seed", str(seed))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith(f"500 trials, seed {seed}: {STRESS_COUNTS[seed]}"), proc.stdout


def test_detection_bounds_hold():
    # every pair's bound lies below its refined minima, and every pair that
    # detection drops lies above the clear margin; inequalities, so unlike
    # the detection digest they hold on every CPU
    proc = run_python(str(SCRIPTS / "detect_digest.py"), "--bounds")
    assert proc.returncode == 0, proc.stdout + proc.stderr
