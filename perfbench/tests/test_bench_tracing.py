"""The tracer records spans and counters and survives names that are gone."""

import numpy as np

import qjoint
from tracing import Tracer


def _family():
    p = np.diag([1.0, 0.0]).astype(complex)
    q = np.full((2, 2), 0.5, dtype=complex)
    fam = qjoint.MeasurementFamily.binary_projective([p, q])
    return fam, qjoint.StateFamily([p.copy()])


def test_absent_names_are_reported_not_raised():
    tracer = Tracer()
    tracer.install(
        spans=("qjoint.cli:no_such_function", "qjoint.no_such_module:f",
               "qjoint.measurement:Povm.no_such_classmethod"),
        counters=(("qjoint.distribution:no_such_helper", False),),
    )
    assert tracer.absent == [
        "cli.no_such_function", "no_such_module.f",
        "measurement.Povm.no_such_classmethod", "distribution.no_such_helper",
    ]
    assert tracer.self_times() == {}
    assert tracer.counts == {}


def test_spans_nest_and_counters_count():
    tracer = Tracer()
    tracer.install(
        spans=("qjoint.distribution:check_marginals", "qjoint.distribution:orbit_states"),
        counters=(("qjoint.distribution:trace_inner", False),),
    )
    fam, states = _family()
    report = qjoint.run_property_checks(fam, states, properties=("marginals",))
    assert not report["marginals"].passed
    names = [s.name for s in tracer.spans]
    assert names == ["distribution.check_marginals", "distribution.orbit_states"]
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent == -1
    self_s = tracer.self_times()[None]
    assert abs(self_s["distribution.check_marginals"]
               - ((outer.end - outer.start) - (inner.end - inner.start))) < 1e-12
    assert tracer.counts["distribution.orbit_states.states"] == report["marginals"].details["orbit_size"]
    assert tracer.counts["distribution.trace_inner.calls"] > 0
