"""Every name the benchmark's tracer counts still resolves in the library.

`perfbench/tracer.py` reports its per-layer counters by the qualified names
in `COUNTED`; a renamed or removed function or method there makes
`perfbench/run.py --trace 1` fail with a KeyError.  The tracer wraps the
library's modules in place, so it is installed in a child interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import hecke_functor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(hecke_functor.__file__).resolve().parents[1]

PROBE = """
import json
import tracer
t = tracer.Tracer()
t.install()
missing = [f"{metric.split('.')[0]}.{name}"
           for metric, names in tracer.COUNTED.items() for name in names
           if f"{metric.split('.')[0]}.{name}" not in t.calls]
t.report()
print(json.dumps({"counted": sum(map(len, tracer.COUNTED.values())), "missing": missing}))
"""


def test_every_counted_name_is_traced():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(PERFBENCH)]))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["counted"] > 0
    assert result["missing"] == []
