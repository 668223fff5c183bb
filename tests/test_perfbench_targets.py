"""The traced benchmark run wraps library names by (owner, attribute); a
name renamed or removed in the library would crash that run, so check here
that every one still resolves."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    layers = importlib.import_module("layers")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in layers.targets() if not hasattr(owner, attr)]
    assert not missing
