"""The demo scripts run to completion against this checkout."""

from pathlib import Path

import pytest

from support import run_python

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    result = run_python(
        f"import runpy; runpy.run_path({str(demo)!r}, run_name='__main__')")
    assert result.returncode == 0, result.stdout + result.stderr


def test_divisibility_demo_fails_on_an_unsound_scan():
    # The structural facts rest on image_probe's own SoundnessError: forge
    # one even order-sum for that scan alone and the demo must report it.
    demo = DEMO_DIR / "divisibility_rarity.py"
    result = run_python(
        "import runpy, ordersum, ordersum.psi_core as core\n"
        "real_probe, real_psi = ordersum.image_probe, core._psi_prime_power\n"
        "def probe(*args, **kwargs):\n"
        "    core._psi_prime_power = lambda q, s: (\n"
        "        338 if (q, s) == (7, (1, 1)) else real_psi(q, s))\n"
        "    return real_probe(*args, **kwargs)\n"
        "ordersum.image_probe = probe\n"
        f"runpy.run_path({str(demo)!r}, run_name='__main__')")
    assert result.returncode == 1, result.stdout + result.stderr
    assert ("[FAIL] every order-sum is odd and at least 2*order - 1 "
            "(even order-sum recorded: [(49, '7^[1,1]', 338)])"
            in result.stdout), result.stdout
    assert result.stdout.endswith("1 check(s) FAILED\n")
