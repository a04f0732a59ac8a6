"""The benchmark's tracer must find what it wraps and counts in the library.

perfbench/tracer.py names its entry points as (module, attribute path)
pairs. When one stops resolving, or a counter reads an attribute that was
renamed, a traced benchmark run still exits 0 but reports that metric as
null. This test loads the tracer as it is and holds the library to it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from shared_models import BENCH


# one traced pass of every workload, set up and run by the benchmark's own
# worker functions, in a child so the wrappers do not outlive it
TRACED_PASS = """
import json, sys
from pathlib import Path
root, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(root / "perfbench"))
import workloads, worker
from tracer import TARGETS, Tracer, derive_metrics
chaintop = worker.import_chaintop(root)
tracer = Tracer()
tracer.install()
failed = []
for name in sorted(workloads.WORKLOADS):
    paths = worker.set_up(chaintop, name, 1, out / name)
    for job in workloads.job_order(name, 1, 0):
        reason = tracer.job(worker.run_job, chaintop, job, paths[0], 60)
        if reason is not None:
            failed.append(f"{job['id']}: {reason}")
trace = tracer.dump()
metrics = derive_metrics(trace)
print(json.dumps({
    "failed": failed,
    "absent": trace["absent"],
    "broken": trace["broken"],
    "null": sorted(k for k, (value, _) in metrics.items() if value is None),
    "cube_metrics": {k: metrics[k][0] for k in ("loopspace.cube_cells", "cubical.chains_s")},
    "files": sorted({sys.modules[module].__file__ for module, *_ in TARGETS}),
}))
"""


def test_a_traced_pass_of_every_workload_reports_every_metric(tmp_path):
    root = BENCH.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PASS, str(root), str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    # every traced module is the library's own, not an installed copy
    src = (root / "src" / "chaintop").resolve()
    assert [f for f in report.pop("files") if src not in Path(f).resolve().parents] == []
    # the cube model is counted and its columns are timed through cubical_chains
    cube_metrics = report.pop("cube_metrics")
    assert all(value > 0 for value in cube_metrics.values()), cube_metrics
    assert report == {"failed": [], "absent": [], "broken": [], "null": []}
