import json
import os
import subprocess
import sys

import pytest

import monosep
from monosep import attention as attn

# Runs ``monosep`` once per argv in the JSON list read from stdin, in this
# one process, after capping its own address space at 1 GiB; prints a JSON
# list of (exit code, stderr, seconds). Only the package's own errors count
# as handled: any other exception, an OSError included, counts as exit 1.
_CAPPED_CLI = """
import contextlib, io, json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from monosep import cli, errors
cli._HANDLED_ERRORS = tuple(
    v for v in vars(errors).values()
    if isinstance(v, type) and issubclass(v, Exception))
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err), \\
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:
        code = 1
        err.write(repr(exc))
    results.append((code, err.getvalue(), time.perf_counter() - start))
print(json.dumps(results))
"""


@pytest.fixture
def capped_cli():
    """Run each argv through ``cli.main`` in one subprocess that caps its
    own address space at 1 GiB; returns (exit code, stderr, seconds) per
    argv."""
    # one BLAS thread: each thread's buffers count against the cap
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [os.path.dirname(os.path.dirname(monosep.__file__)),
                    os.environ.get("PYTHONPATH", "")]))

    def run(argvs):
        proc = subprocess.run(
            [sys.executable, "-c", _CAPPED_CLI], input=json.dumps(argvs),
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)
        assert len(results) == len(argvs)
        return results

    return run


@pytest.fixture
def score_builds(monkeypatch):
    """Shapes of every chunk-score build made by the attention module:
    local attention builds its whole chunks' scores in one call and a
    ragged last chunk's in another."""
    shapes = []
    original = attn._chunk_scores

    def counting(q3, k3, gamma):
        scores = original(q3, k3, gamma)
        shapes.append(scores.shape)
        return scores

    monkeypatch.setattr(attn, "_chunk_scores", counting)
    return shapes
