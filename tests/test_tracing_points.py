"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps library
attributes by name; a rename or a move in the library would make it fail
with a KeyError, or silently stop recording a layer. This pins every
attribute it wraps to the object it is looked up on."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_instrumentation_point_is_bound_on_its_owner(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file executes
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    points = tracing._instrumentation_points()
    assert points
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _name, _count in points if attr not in owner.__dict__]
    assert missing == []
