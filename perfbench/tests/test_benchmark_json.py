import json

import run
from conftest import ROOT


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.workloads.GENERATORS)


def test_tail_has_ten_samples_beyond():
    lat = [float(i) for i in range(1, 41)]
    value, pct = run.tail(lat)
    assert sum(x > value for x in lat) == 10 and pct == 75.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_scale_factor_uses_the_nearest_references():
    refs = [(0.0, 0.5), (10.0, 0.3), (11.0, 0.3), (30.0, 2.0)]
    assert run.scale_factor(refs, 10.4, 0.3) == 1.0
    assert run.scale_factor(refs, 29.0, 0.3) == 0.3 / ((0.3 + 2.0) / 2)
