import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _stdout(op_ms_p90, ops_per_s):
    # the tail of a `perfbench/run.py --trace 0` run: progress, metadata, result
    values = {"setup_s": 0.4, "ops_per_s": ops_per_s, "op_ms_p50": 3.0,
              "op_ms_p90": op_ms_p90, "cpu_ms_per_op": 3.5, "peak_rss_mb": 60.0,
              "ok_frac": 1.0}
    meta = {"meta": {"workload": "norms1d", "seed": 271828, "machine": {"cpu_count": 2},
                     "versions": {"numpy": "2.4"}, "thread_env": {}}}
    result = {"correct": True, "attempted": 700, "failed": 0,
              "metrics": {name: {"value": v, "unit": "u"} for name, v in values.items()}}
    return f"warming up\n{json.dumps(meta)}\n{json.dumps(result)}\n"


def test_parse_run_reads_the_last_two_lines():
    run = bench_record.parse_run(_stdout(10.0, 230.0))
    assert run["correct"] is True and run["attempted"] == 700 and run["failed"] == 0
    assert run["metrics"]["op_ms_p90"] == 10.0 and run["metrics"]["ops_per_s"] == 230.0
    assert set(run["metrics"]) == {entry["name"] for entry in SPEC}
    assert run["meta"]["workload"] == "norms1d"
    with pytest.raises(ValueError):
        bench_record.parse_run(json.dumps({"correct": True}))


def test_summary_of_two_canned_runs():
    runs = [{"side": side, "pair": 0, **bench_record.parse_run(out)}
            for side, out in (("parent", _stdout(10.0, 200.0)), ("head", _stdout(7.0, 300.0)))]
    summary = bench_record.summarize(runs, SPEC)
    p90 = summary["op_ms_p90"]
    assert p90["parent"]["median"] == 10.0 and p90["head"]["values"] == [7.0]
    assert p90["wins"] == "1/1" and p90["median_ratio"] == pytest.approx(0.7)
    assert p90["resolved"] and not p90["beyond_bound"]
    # higher is better for ops_per_s, and 1.5x is a win, not a regression
    assert summary["ops_per_s"]["wins"] == "1/1" and not summary["ops_per_s"]["beyond_bound"]
    # equal medians: no win, not resolved
    assert summary["op_ms_p50"]["wins"] == "0/1" and not summary["op_ms_p50"]["resolved"]
    # the reverse pair is a regression beyond the 25% bound
    worse = bench_record.summarize([dict(r, side={"head": "parent", "parent": "head"}[r["side"]])
                                    for r in runs], SPEC)
    assert worse["op_ms_p90"]["beyond_bound"] and worse["ops_per_s"]["beyond_bound"]
    # one side alone gets its statistics and no comparison
    alone = bench_record.summarize(runs[1:], SPEC)["op_ms_p90"]
    assert set(alone) == {"head"} and alone["head"]["q1"] == alone["head"]["q3"] == 7.0
