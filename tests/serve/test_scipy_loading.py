"""Serving never loads scipy; the app suite loads it up front.

``minicv`` imports ``scipy.ndimage`` when a scipy-backed operator first
reads it, and the Gaussian family runs on numpy alone, so a process that
only serves the benchmark pipeline, on one node or on a cluster, never
pays scipy's import.  Each check runs in a fresh interpreter, because
this one has loaded scipy already.
"""

import os
import subprocess
import sys

SERVE_STANDARD_PIPELINE = """
import sys
import numpy as np
from repro.cluster.kernel import ClusterKernel
from repro.cluster.serve import ClusterServer
from repro.serve.bench import standard_pipeline
from repro.serve.server import PipelineServer

image = np.random.default_rng(0).normal(size=(8, 8))
server = PipelineServer()
server.kernel.fs.write_file("/in.png", image)
server.submit("t0", standard_pipeline("/in.png", "/out.png"))
front = ClusterServer(cluster=ClusterKernel(nodes=2))
tenants = [f"tenant-{index}" for index in range(4)]
for tenant in tenants:
    front.home(tenant).kernel.fs.write_file("/in.png", image)
    front.submit(tenant, standard_pipeline("/in.png", "/out.png"))
assert {front.route(tenant) for tenant in tenants} == {0, 1}
responses = server.drain() + front.drain()
assert len(responses) == 5 and all(r.ok for r in responses), responses
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def fresh(script: str) -> str:
    """Run ``script`` in a new interpreter; return its stripped stdout."""
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_serving_loads_no_scipy():
    assert fresh(SERVE_STANDARD_PIPELINE) == "[]"


def test_the_app_suite_loads_scipy_up_front():
    assert fresh(
        "import sys, repro.apps\nprint('scipy.ndimage' in sys.modules)"
    ) == "True"


def test_a_scipy_backed_operator_loads_scipy_on_first_use():
    assert fresh(
        "import sys\n"
        "import numpy as np\n"
        "from repro.frameworks import minicv\n"
        "print('scipy' in sys.modules)\n"
        "minicv.ndimage.uniform_filter(np.ones((3, 3)), size=3)\n"
        "print(minicv.ndimage is sys.modules['scipy.ndimage'])\n"
    ).split() == ["False", "True"]
