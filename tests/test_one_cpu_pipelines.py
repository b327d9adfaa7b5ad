"""Stateful per-doc pipelines finish on a 1-CPU Ray session. An actor pool
there takes the only CPU and the read it waits on never runs, so these
stages run as task maps; this runs them in a fresh 1-CPU session under a
timeout."""

import os
import signal
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """
import sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False)
import ray.data
ray.data.DataContext.get_current().enable_progress_bars = False
from anserini_ray.pipelines import training_data as TD
for fn in (TD.pii_redact, TD.token_counts_analyzed):
    print(fn.__name__, fn(sys.argv[1]).count(), flush=True)
ray.shutdown()
"""


def test_task_map_pipelines_finish_on_one_cpu(sf_dir):
    p = subprocess.Popen(
        [sys.executable, "-c", _SCRIPT, sf_dir],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": REPO},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = p.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        out, _ = p.communicate()
        raise AssertionError(f"1-CPU pipelines did not finish:\n{out[-2000:]}")
    assert p.returncode == 0, out[-2000:]
    counts = dict(
        line.split() for line in out.splitlines()
        if line.startswith(("pii_redact ", "token_counts_analyzed "))
    )
    assert set(counts) == {"pii_redact", "token_counts_analyzed"}
    assert counts["pii_redact"] == counts["token_counts_analyzed"] != "0"
