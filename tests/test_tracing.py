"""The benchmark's layer tracer against the current program: every name it
rebinds must exist where it looks, and leaving ``installed`` must restore
each one. A layer renamed or no longer imported by its caller fails here,
not only in a traced benchmark run."""

import operator

import cfgtune.pruning as pruning
from conftest import load_perfbench_tracing


def test_every_traced_name_is_rebound_and_restored():
    tracing = load_perfbench_tracing()
    targets = [(owner, attr) for owner, attr, _, _ in tracing._targets()]
    targets.append((pruning, "min_corner_bytes"))
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets if attr not in owner.__dict__]
    assert not missing, missing

    def current():
        return [owner.__dict__[attr] for owner, attr in targets]

    originals = current()
    with tracing.installed(tracing.Tracer()):
        assert not any(map(operator.is_, current(), originals))
    assert all(map(operator.is_, current(), originals))
