import math

import pytest

import tracer
from tracer import derive


def span(name, layer, start, end, parent=-1, raised=False, size=0):
    return [name, layer, start, end, parent, 0, size, raised]


def test_self_time_subtracts_direct_children():
    spans = [
        span("overlap", "numerics", 0.0, 10.0),
        span("Eigenstate.__call__", "oscillator", 1.0, 4.0, parent=0),
        span("eval_D", "pcf", 1.5, 3.5, parent=1),
        span("pcf_poly", "pcf", 2.0, 3.0, parent=2),
        span("Eigenstate.__call__", "oscillator", 5.0, 6.0, parent=0),
    ]
    agg = derive(spans)
    assert agg["numerics.self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert agg["oscillator.self_s"] == pytest.approx((3.0 - 2.0) + 1.0)
    assert agg["pcf.self_s"] == pytest.approx((2.0 - 1.0) + 1.0)
    # self times of all layers add up to the root span
    assert sum(v for k, v in agg.items() if k.endswith(".self_s")) == pytest.approx(10.0)
    assert agg["pcf.calls"] == 2 and agg["oscillator.calls"] == 2
    assert agg["numerics.overlap_s"] == pytest.approx(10.0)
    assert agg["numerics.integrand_evals"] == 2
    assert agg["oscillator.state_calls"] == 2
    assert agg["pcf.pcf_poly_s"] == pytest.approx(1.0)


def test_inclusive_time_counts_nested_calls_once():
    spans = [
        span("overlap", "numerics", 0.0, 4.0),
        span("overlap", "numerics", 1.0, 3.0, parent=0),
    ]
    agg = derive(spans)
    assert agg["numerics.overlap_s"] == pytest.approx(4.0)
    assert agg["numerics.overlap_calls"] == 2
    assert agg["numerics.self_s"] == pytest.approx(4.0)


def test_exception_counts_once_per_layer():
    spans = [
        span("main", "cli", 0.0, 5.0, raised=True),
        span("overlap", "numerics", 1.0, 4.0, parent=0, raised=True),
        span("weighted_inner_product", "numerics", 1.5, 3.5, parent=1, raised=True),
    ]
    agg = derive(spans)
    assert agg["numerics.errors"] == 1
    assert agg["cli.errors"] == 1


def test_nested_state_calls_count_once():
    spans = [
        span("ShiftedState.__call__", "field", 0.0, 2.0),
        span("eval_psi_shifted", "field", 0.5, 1.5, parent=0),
    ]
    assert derive(spans)["field.state_calls"] == 1


def test_installed_tracer_sees_calls_through_every_binding():
    import paracyl
    from paracyl import cli, oscillator

    original = oscillator.eval_D
    t = tracer.Tracer()
    t.install()
    try:
        spec = paracyl.OscillatorSpec()
        rule = paracyl.gauss_hermite_rule(8)
        value = paracyl.overlap(paracyl.Eigenstate(1, spec), paracyl.Eigenstate(1, spec), 1.0, rule)
        assert cli.main(["eval", "--n", "1", "--lo", "0", "--hi", "1", "--step", "0.5"]) == 0
    finally:
        t.uninstall()
    assert oscillator.eval_D is original
    assert math.isclose(value, 1.0, rel_tol=1e-12)
    agg = t.flush()
    assert agg["numerics.overlap_calls"] == 1
    assert agg["numerics.integrand_evals"] == 2 * 8
    assert agg["cli.calls"] == 1
    # three eval rows, each evaluating D_n once for D and once through eval_psi
    assert agg["pcf.eval_D_calls"] == 2 * 8 + 2 * 3
    assert agg["oscillator.state_calls"] == 2 * 8 + 3
    assert not t.spans
