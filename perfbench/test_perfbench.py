"""Checks on the benchmark itself: seeds, mixes, metric names and the tracer.

None of these runs a timed workload; they build op sequences, compare the
ground-truth state-count formula with a real fold, and trace one small call.
"""

import json
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

from gtkit import casestudy as cs  # noqa: E402
from gtkit import gentorsion as gt  # noqa: E402
from gtkit.stallings import SubgroupAutomaton  # noqa: E402
from gtkit.word import gen, parse_word  # noqa: E402


def _blocks(name, seed, workdir, count=2):
    wl = workloads.WORKLOADS[name](seed, str(workdir))
    return [wl.block(k) for k in range(count)]


def test_second_seed_gives_other_ops_with_the_same_mix(tmp_path):
    for name, cls in workloads.WORKLOADS.items():
        first = _blocks(name, 1, tmp_path / "a")
        again = _blocks(name, 1, tmp_path / "b")
        other = _blocks(name, 2, tmp_path / "c")
        for k in range(2):
            assert [op.desc for op in first[k]] == [op.desc for op in again[k]], name
            assert [op.desc for op in first[k]] != [op.desc for op in other[k]], name
            assert Counter(op.kind for op in first[k]) == Counter(cls.mix), name
            assert Counter(op.kind for op in other[k]) == Counter(cls.mix), name
        assert [op.desc for op in first[0]] != [op.desc for op in first[1]], name


def test_expected_states_matches_the_fold():
    e = cs.sample_exponents(10, 8, 3)
    aut = SubgroupAutomaton(cs.generator_words(e))
    assert aut.num_states == workloads.expected_states(e) == 21646


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    res = {"latency_s": [0.001 * (i + 1) for i in range(100)], "failed": [],
           "unit_s": [reference.NOMINAL_S] * 100, "peak_rss_mb": 10.0}
    setups = [{"setup_s": x, "setup_unit_s": reference.NOMINAL_S} for x in (0.2, 0.3, 0.25)]
    e2e = run.e2e_metrics(setups, res)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, unit) for k, (_, unit) in e2e.items()]
    empty = {"totals": {}, "counts": {}, "fold_unique": 0, "spans": 0,
             "layer_self_s": {layer: 0.0 for layer in tracer_mod.LAYERS}}
    layer = run.per_layer(empty, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(k, unit) for k, (_, unit) in layer.items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == \
        list(run.WORKLOADS) == list(run.FORBIDDEN) == list(run.HEAVY)


def test_times_are_scaled_by_the_speed_measured_around_them():
    gauge = reference.Gauge()
    for dt in (0.1, 0.2, 0.01):  # the second op triggers a sample, the third waits for flush
        gauge.op_done(dt)
    assert len(gauge.units) == 2 and gauge.units[0] == gauge.units[1] > 0
    gauge.flush()
    assert len(gauge.units) == 3
    nominal = reference.NOMINAL_S
    res = {"latency_s": [0.004, 0.004], "unit_s": [nominal, 2 * nominal]}
    assert run.scaled_latencies(res) == [0.004, 0.002]  # twice as slow a host: half the time
    e2e = run.e2e_metrics([{"setup_s": 0.3, "setup_unit_s": 3 * nominal}],
                          dict(res, failed=[], peak_rss_mb=1.0))
    assert abs(e2e["setup_s"][0] - 0.1) < 1e-12
    assert abs(e2e["ops_per_s"][0] - 2 / 0.006) < 1e-9


def test_tracer_attributes_calls_to_layers_and_uninstalls():
    original_mul = type(parse_word("a")).__mul__
    t = tracer_mod.Tracer()
    t.install()
    try:
        t.on = True
        rep = gt.check_rtf([gen("a"), gen("b")], [parse_word("a^2 b a^-1")],
                           gt.SearchBounds(radius=1, max_n=2, max_elt_letters=1,
                                           node_cap=50))
        t.on = False
    finally:
        t.uninstall()
    assert type(parse_word("a")).__mul__ is original_mul
    totals = t.totals()
    assert totals["gentorsion:check_rtf"][0] == 1
    assert totals["stallings:SubgroupAutomaton.__init__"][0] == 1
    assert totals["word:Word.__mul__"][0] > 0
    calls = t.layer_calls()
    assert calls["amalgam"] == calls["magnus"] == calls["casestudy"] == 0
    assert t.counts["search_nodes"] == rep.params["nodes"]
    assert t.counts["fold_states"] == SubgroupAutomaton([parse_word("a^2 b a^-1")]).num_states
    # one span per non-primitive call, none for Word primitives
    names = [t.names[i] for i in t.span_name]
    assert names.count("gentorsion:check_rtf") == 1
    assert not any(n.startswith("word:") for n in names)


def test_coverage_check_flags_forbidden_calls_and_light_heavy_layers():
    calls = {layer: 0 for layer in tracer_mod.LAYERS}
    self_s = {layer: 0.0 for layer in tracer_mod.LAYERS}
    self_s.update(word=2.0, gentorsion=1.0, stallings=0.5)
    assert run.coverage_problems("freesearch", {"layer_calls": calls,
                                                "layer_self_s": self_s}) == []
    problems = run.coverage_problems("freesearch", {"layer_calls": dict(calls, amalgam=3),
                                                    "layer_self_s": self_s})
    assert problems == ["freesearch made 3 calls into amalgam"]
    problems = run.coverage_problems("nonlo", {"layer_calls": calls, "layer_self_s": self_s})
    assert len(problems) == 2  # word and gentorsion each outweigh stallings+casestudy+magnus
