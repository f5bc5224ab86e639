"""The traced benchmark wraps engine functions by name; every name must resolve."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import segre  # its exports resolve on first use; the loop below loads each traced module

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_and_installs():
    spans = _load_spans()
    for _, module_name, attr in spans.TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            assert method in vars(getattr(owner, class_name)), (module_name, attr)
        else:
            assert callable(getattr(owner, attr, None)), (module_name, attr)
    tracer = spans.Tracer()
    originals = {attr: getattr(segre, attr) for attr in ("verify_all", "rank_profile")}
    with tracer:
        assert segre.verify_all is not originals["verify_all"]
    assert {attr: getattr(segre, attr) for attr in originals} == originals
