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


def test_the_tracer_times_every_certificate_and_changes_no_report():
    from conftest import load_fixture

    spans = _load_spans()
    manifold, config = load_fixture("h"), segre.RunConfig()
    plain = segre.verify_all(manifold, config)
    tracer = spans.Tracer()
    with tracer:
        traced = segre.verify_all(manifold, config)
    assert traced == plain
    # the profile's d + 2 iterates, theta and phi at j = 1..k0 + 1, and the mirror
    calls = len(plain.profile.certificates) + 2 * (plain.profile.k0 + 1) + 1
    assert tracer.summary()["rank.generic_rank"]["calls"] == calls
    # a certificate takes its lines at the top order, so no order is built on demand
    assert tracer.counts["rank.levels_built"] == 0
