from itertools import islice

import pytest

import workloads


def take(workload, seed, count):
    return list(islice(workloads.generate(workload, seed), count))


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_same_ops(workload):
    assert take(workload, 7, 64) == take(workload, 7, 64)
    assert take(workload, 7, 64) != take(workload, 8, 64)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_prefix_is_stable(workload):
    assert take(workload, 3, 10) == take(workload, 3, 50)[:10]


def test_eval_mix_per_block():
    ops = take("eval_cli", 1, 8 * 50)
    for block in (ops[i : i + 8] for i in range(0, len(ops), 8)):
        kinds = [op["kind"] for op in block]
        assert kinds.count("figure1") == 2
        ns = sorted(op["n"] for op in block if op["kind"] == "eval")
        assert all(n <= 10 for n in ns[:3]) and all(11 <= n <= 200 for n in ns[3:])


def test_high_orders_cover_their_range_in_every_prefix():
    for seed in range(5):
        ops = take("eval_cli", seed, 8 * 10)
        high = [op["n"] for op in ops if op["kind"] == "eval" and op["n"] > 10]
        # 30 draws from 11..200: every tenth of the range holds two to four
        counts = [sum(11 + 19 * i <= n < 11 + 19 * (i + 1) for n in high) for i in range(10)]
        assert min(counts) >= 2 and max(counts) <= 4, counts


def test_eval_rows_and_range():
    for op in take("eval_cli", 2, 200):
        if op["kind"] != "eval":
            continue
        flags = dict(a.lstrip("-").split("=") for a in op["argv"][1:])
        rows = round((float(flags["hi"]) - float(flags["lo"])) / float(flags["step"])) + 1
        assert workloads.ROWS[0] <= rows <= workloads.ROWS[1]


def test_library_rule_is_exact_for_its_window():
    ops = take("library_warm", 5, 6 * 66)
    for op in ops:
        assert op["k"] in workloads.RULE_SIZES and op["k"] > op["start"] + op["window"] - 1
        assert -1.0 <= op["gamma"] <= 1.0
    low = sum(op["start"] <= 10 for op in ops)
    assert low == len(ops) // 2
    assert max(op["max_n"] for op in ops) > 190
    high = sorted(op["start"] for op in ops if op["start"] > 10)
    assert high[0] < 20 and high[-1] > 185


def test_verify_ops_include_defaults():
    ops = take("verify_cli", 4, 40)
    assert sum(op["argv"] == ["verify", "--suite", "all"] for op in ops) == 10
