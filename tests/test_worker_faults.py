"""A sweep worker that raises or dies, or a parent that is stopped, hangs
no one and leaves no process behind.

Each test runs its sweep in a fresh interpreter under a timeout, so a hang
fails the test instead of stopping the suite.  Worker processes are found
and watched through /proc.
"""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ordersum
from support import run_python

pytestmark = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                reason="finds worker processes through /proc")

SRC = str(Path(ordersum.__file__).resolve().parents[1])


def start_cli(*argv: str, cwd: Path) -> subprocess.Popen:
    """Start a CLI call in a session of its own, with its workers."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, "-m", "ordersum.cli", *argv],
                            cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)


def children(pid: int) -> list[int]:
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except FileNotFoundError:
        return []
    return [int(child) for child in text.split()]


def alive(pid: int) -> bool:
    """Whether `pid` is a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def wait_for(condition, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def two_workers_of(proc: subprocess.Popen) -> list[int]:
    """The two workers of a running `--workers 2` sweep, once both exist."""
    assert wait_for(lambda: len(children(proc.pid)) == 2, 30), (
        f"no two workers under {proc.pid}")
    return children(proc.pid)


def finish(proc: subprocess.Popen, seconds: float) -> tuple[str, str]:
    """The call's output once its pipes close; past `seconds`, the output
    once its process group, its workers included, is killed."""
    try:
        return proc.communicate(timeout=seconds)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        return proc.communicate()


def test_two_hundred_worker_raises_all_return():
    # psi(Z_7) forged to 42, an even value, so the worker scanning orders
    # 2..51 raises SoundnessError in every call.
    code = (
        "import os\n"
        "from ordersum import analysis, psi_core\n"
        "real = psi_core._psi_prime_power\n"
        "psi_core._psi_prime_power = (\n"
        "    lambda q, s: 42 if (q, s) == (7, (1,)) else real(q, s))\n"
        "analysis.BLOCK_SIZE = 50\n"
        "for _ in range(200):\n"
        "    try:\n"
        "        analysis.scan_orders(2, 2000, workers=2)\n"
        "    except analysis.SoundnessError as exc:\n"
        "        message = str(exc)\n"
        "    else:\n"
        "        raise SystemExit('no raise')\n"
        "print(message)\n"
        "print(open(f'/proc/{os.getpid()}/task/{os.getpid()}/children')"
        ".read().split())\n")
    proc = run_python(code)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "even order-sum recorded: [(7, '7', 42)]\n[]\n"


def test_a_killed_worker_stops_the_sweep_and_resume_completes_it(tmp_path):
    sweep = ("sweep", "divisibility", "--from", "2", "--to", "3000000",
             "--workers", "2", "--checkpoint")
    proc = start_cli(*sweep, "progress.json", cwd=tmp_path)
    try:
        assert wait_for((tmp_path / "progress.json").exists, 30)
        workers = two_workers_of(proc)
        os.kill(workers[0], signal.SIGKILL)
    finally:
        out, err = finish(proc, 10)
    assert (proc.returncode, out) == (3, "")
    died = re.fullmatch(r"internal error: worker died on orders "
                        r"(\d+)\.\.(\d+) \(exit code -9\)\n", err)
    assert died, err
    first, last = map(int, died.groups())
    assert (first - 2) % 1000 == 0 and last == first + 999
    assert not any(alive(pid) for pid in workers)
    saved = (tmp_path / "progress.json").read_text()
    assert f'"max_done": {first - 1},' in saved

    resumed = start_cli(*sweep, "progress.json", "--resume", cwd=tmp_path)
    reference = tmp_path / "reference.json"
    finish(resumed, 120)
    whole = start_cli(*sweep, reference.name, cwd=tmp_path)
    finish(whole, 120)
    assert (resumed.returncode, whole.returncode) == (1, 1)
    assert ((tmp_path / "progress.json").read_bytes()
            == reference.read_bytes())


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGKILL],
                         ids=["SIGINT", "SIGKILL"])
def test_a_stopped_parent_leaves_no_worker(tmp_path, sig):
    proc = start_cli("sweep", "conjecture", "--to", "3000000", "--workers",
                     "2", cwd=tmp_path)
    try:
        workers = two_workers_of(proc)
        proc.send_signal(sig)
        # Before finish, which kills whatever is left of the call.
        gone = wait_for(lambda: not any(alive(pid) for pid in workers), 10)
    finally:
        out, err = finish(proc, 10)
    assert proc.returncode == -sig
    assert gone
    # A worker writes nothing: no traceback, whichever way it ended.
    assert "Process ForkProcess" not in err and "BrokenPipe" not in err
    if sig == signal.SIGKILL:
        assert err == ""
