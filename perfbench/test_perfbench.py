"""Self-tests of the benchmark's own arithmetic and checks.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""
import json
import os
import shutil
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, instrument  # noqa: E402

cli = run.load_cli()


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_times_of_nested_calls():
    # outer [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 6]
    t = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    with t.span("bench.pass"):
        with t.span("cli.main"):
            with t.span("torus.min_dot_norm"):
                pass
        with t.span("cli.serialize.to_json_text"):
            pass
    assert t.self_times() == [6, 2, 1, 1]
    assert sum(t.self_times()) == t.spans[0].duration
    layer = t.layer_self_times()
    assert (layer["bench"], layer["cli"], layer["torus"],
            layer["cli.serialize"]) == (6, 2, 1, 1)


def test_nesting_check_flags_overlapping_spans():
    t = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    with t.span("bench.pass"):
        with t.span("cli.main"):
            with t.span("torus.min_dot_norm"):
                pass
        with t.span("cli.serialize.to_json_text"):
            pass
    assert t.nesting_problems() == []

    # two calls timed on different threads overlap under one parent: the
    # self times still sum to the pass, but the parent's goes negative
    t = Tracer()
    t.spans = [Span("bench.pass", None, 0, 10),
               Span("lyapunov.L_prime_N", 0, 1, 6),
               Span("lyapunov.L_prime_N", 0, 2, 9)]
    assert sum(t.self_times()) == t.spans[0].duration
    assert t.self_times()[0] == -2
    assert t.nesting_problems() == [
        "span 2 lyapunov.L_prime_N overlaps its previous sibling"]

    t.spans.append(Span("torus.freq_norm", 1, 5, 7))
    assert "span 3 torus.freq_norm leaves its parent lyapunov.L_prime_N" \
        in t.nesting_problems()


def test_every_traced_binding_exists():
    with instrument(Tracer()) as missing:
        assert missing == []
    assert not hasattr(cli.L_prime_N, "__wrapped__")


def test_missing_binding_fails_the_traced_run(tmp_path, monkeypatch):
    monkeypatch.delattr(cli, "ensemble_to_csv")
    with instrument(Tracer()) as missing:
        assert missing == ["cli.ensemble_to_csv"]
    runner = _small_runner(tmp_path)
    warm = runner.run_pass(1)
    run.run_traced(runner, runner.wl, 0.0, warm, [])
    assert runner.failed == 0
    assert not runner.trace_ok
    assert runner.missing_bindings == ["cli.ensemble_to_csv"]


def _run_small(tmp_path, cfg, tracer):
    path = tmp_path / "cfg.yaml"
    path.write_text(workloads.Experiment("x", cfg).yaml_text())
    with instrument(tracer):
        with tracer.span("bench.pass"):
            with tracer.span("cli.main"):
                rc = cli.main([cfg["experiment"], "--config", str(path),
                               "--out", str(tmp_path / "out")])
    assert rc == 0


def test_node_steps_of_a_known_config(tmp_path, capsys):
    cfg = {"experiment": "le", "cocycle": {"kind": "amo", "lam": 3.0, "E": 0.0},
           "frequency": [0.25], "params": {"N_list": [3, 5], "renormalized": True},
           "quadrature": {"kind": "uniform-grid", "points_per_dim": 8}}
    t = Tracer()
    _run_small(tmp_path, cfg, t)
    m = layers.pass_metrics(t)
    assert m["cocycle.node_steps"] == 8 * (3 + 5)
    assert m["lyapunov.calls"] == 2
    assert m["cocycle.excised_frac"] == 0.0
    assert abs(sum(t.self_times()) - t.spans[0].duration) < 1e-12


def test_scan_error_is_exact_rational(tmp_path, capsys):
    cfg = {"experiment": "ladder",
           "params": {"kind": "mixed", "N0": 16, "q0": 1, "rho": 0.5,
                      "kappa": 0.5, "delta": 1e-12, "omega1": None,
                      "K0": 1000, "omega2": [workloads.IRRATIONALS[0]]}}
    t = Tracer()
    _run_small(tmp_path, cfg, t)
    (scan,) = t.named(layers.SCAN)
    rep = scan.result
    dot = rep.argmin_k[0] * Fraction(workloads.IRRATIONALS[0])
    exact = abs(dot - round(dot))
    assert layers.scan_rel_err(scan) == float(abs(Fraction(rep.delta) - exact) / exact)
    assert layers.pass_metrics(t)["torus.lattice_points"] == 1000
    assert layers.lattice_points(2, 3000) == (6001 ** 2 - 1) // 2


def _small_workload():
    exp = workloads.Experiment("disc-resonant", {
        "experiment": "example-discontinuity", "frequency": [0.0],
        "params": {"k": [1], "N_list": [1, 10], "M": 64}})
    return workloads.Workload("tiny", 1, [exp])


def _small_runner(tmp_path):
    wl = _small_workload()
    path = tmp_path / "cfg.yaml"
    path.write_text(wl.experiments[0].yaml_text())
    return run.Runner(cli, wl, [str(path)], str(tmp_path / "out"))


def test_tampered_output_is_counted_failed(tmp_path):
    runner = _small_runner(tmp_path)
    wl, path = runner.wl, runner.config_paths[0]
    assert runner.run_pass(1).failed == {}

    # changed bytes against the first pass count as a failure
    runner.reference[0]["example-discontinuity.json"] = "0" * 64
    assert list(runner.run_pass(1).failed) == [0]
    assert (runner.attempted, runner.failed) == (2, 1)

    # a value moved off the closed form fails its oracle
    out = tmp_path / "tampered"
    cli.main(["example-discontinuity", "--config", path, "--out", str(out)])
    doc = json.loads((out / "example-discontinuity.json").read_text())
    assert oracles.check("disc-resonant", wl.experiments[0].config, str(out)) == []
    doc["rows"][1]["value"] += 2e-6
    (out / "example-discontinuity.json").write_text(json.dumps(doc))
    probs = oracles.check("disc-resonant", wl.experiments[0].config, str(out))
    assert len(probs) == 1 and "N=10" in probs[0]

    # a missing output is a problem, not an exception
    shutil.rmtree(out)
    assert oracles.check("disc-resonant", wl.experiments[0].config, str(out))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_not_sizes(name):
    a, b = workloads.make(name, 1), workloads.make(name, 2)
    assert [e.label for e in a.experiments] == [e.label for e in b.experiments]
    assert a.experiments != b.experiments
    assert workloads.make(name, 1) == a
    assert all(e.label in oracles.CHECKS for e in a.experiments)


def test_both_ap_ensembles_must_stay_within_the_bound():
    cfg = {"params": {"chains": 300}}
    good = {"all_within": True, "worst_ratio": 0.5, "chains": 300}
    assert oracles.CHECKS["ap-variant"](good, cfg) == []
    bad = {**good, "all_within": False, "worst_ratio": 1.5}
    assert len(oracles.CHECKS["ap-variant"](bad, cfg)) == 1
    assert len(oracles.CHECKS["ap-interior"]({**bad, "chains": 299}, cfg)) == 2


def test_host_adjusted_time_cancels_host_speed():
    ref = run.PROBE_REF_S
    assert run.host_adjusted(4.0, ref, ref) == 4.0
    # the same pass on a host running at half speed
    assert run.host_adjusted(8.0, 2 * ref, 2 * ref) == 4.0
    assert run.host_adjusted(6.0, ref, 2 * ref) == 4.0
