"""perfbench's traced contract: each span a workload requires names a function its
tracer wraps. An untraced benchmark run cannot see a renamed or deleted one; only
a traced run (`perfbench/run.py --trace 1`) or the perfbench self-test would.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_required_span_names_a_traced_cellgrade_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench
    from tracer import Tracer

    traced = set(Tracer("contract")._targets().values())
    required = {name for w in bench.WORKLOADS.values() for name in w.required}
    assert required, "no workload requires a span"
    assert required <= traced, sorted(required - traced)
