"""README's python blocks run as written.

The blocks leave a few names to the reader; the test supplies them: an
adapter registry ``reg``, a trace RNG ``rng``, ``requests`` from a 5 s
trace and a 2-replica ``system``.  Each block runs in a fresh namespace.
"""

import re
from pathlib import Path

import pytest

from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace

_README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCKS = re.findall(r"^```python\n(.*?)^```", _README.read_text(),
                     re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert len(_BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(_BLOCKS)))
def test_readme_python_block_runs(index, big_registry, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the observability block writes trace.json
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=10.0, duration=5.0,
                             rng=RngStreams(1).get("trace"),
                             registry=big_registry)
    namespace = {
        "reg": big_registry,
        "rng": RngStreams(2).get("trace"),
        "requests": trace.fresh(),
        "system": MultiReplicaSystem.build(
            "chameleon", n_replicas=2, registry=big_registry, seed=0),
    }
    code = compile(_BLOCKS[index], f"README.md python block {index + 1}",
                   "exec")
    exec(code, namespace)
