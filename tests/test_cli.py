import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import tempfile
import time
import tracemalloc
import warnings
from fractions import Fraction
from typing import NamedTuple

import jsonschema
import numpy as np
import pytest
import yaml
from hypothesis import event, given, settings
from hypothesis import strategies as st
from jsonschema.validators import validator_for

from cocyclelab import _util
from cocyclelab._svg import line_plot, plot_csv_text
from cocyclelab._util import CSV_BLOCK, csv_text, fmt17, to_json_text
from cocyclelab.avalanche import ap_check, ap_consequence_check
from cocyclelab.cli import (
    _TRIGPOLY_DEFS,
    EXPERIMENTS,
    PARAM_SCHEMAS,
    SCHEMA,
    ConfigError,
    build_cocycle,
    build_trigpoly,
    load_config,
    main,
)
from cocyclelab.cocycle import (Cocycle, TrigPoly, TrigPolyMatrix, amo,
                                iterate_log_norm_many, strip_norm)
from cocyclelab.deviation import Profile, cdt_empirical, ldt_empirical
from cocyclelab.errors import CocycleLabError, ScanTooLarge
from cocyclelab.lyapunov import QuadratureSpec, finite_scale_modulus, le_table
from cocyclelab.multiscale import (
    ScaleLadder,
    induction_schedule,
    ladder_verify,
    liouville_gate,
    liouville_ladder,
    mixed_gate,
)
from cocyclelab.torus import Frequency

GOLDEN = 0.6180339887


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def run_cli(tmp_path, cfg, subcommand=None, extra=()):
    path = write_config(tmp_path, "cfg.yaml", cfg)
    out = tmp_path / "out"
    sub = subcommand or cfg["experiment"]
    rc = main([sub, "--config", path, "--out", str(out), *extra])
    return rc, out


LE_CONSTANT = {
    "experiment": "le",
    "cocycle": {"kind": "constant", "diag": [2.0, 0.5]},
    "frequency": [0.5],
    "quadrature": {"kind": "uniform-grid", "points_per_dim": 64},
    "params": {"N_list": [1, 2, 4]},
}


class TestRunnerBasics:
    def test_le_constant_gives_log2_rows(self, tmp_path):
        rc, out = run_cli(tmp_path, LE_CONSTANT)
        assert rc == 0
        data = json.loads((out / "le.json").read_text())
        for row in data["rows"]:
            assert row["value"] == pytest.approx(math.log(2.0), abs=1e-15)
        lines = (out / "le.csv").read_text().splitlines()
        assert lines[0].startswith("# cocyclelab=")
        assert "config_sha256=" in lines[0]
        assert lines[1] == "N,value,excised_mass,stderr"
        assert len(lines) == 5

    def test_json_meta_fields(self, tmp_path):
        rc, out = run_cli(tmp_path, LE_CONSTANT)
        data = json.loads((out / "le.json").read_text())
        assert data["experiment"] == "le"
        assert data["seed"] == 0
        assert len(data["config_sha256"]) == 64
        assert data["cocyclelab"]

    def test_example_discontinuity_resonant_value(self, tmp_path):
        cfg = {
            "experiment": "example-discontinuity",
            "frequency": [0.0],
            "params": {"k": [1], "N_list": [1, 10], "M": 4096},
        }
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 0
        data = json.loads((out / "example-discontinuity.json").read_text())
        assert data["resonant"] is True
        ref = data["resonant_reference"]
        assert ref == pytest.approx((2.0 / math.pi) * math.exp(-2.0 * math.pi))
        for row in data["rows"]:
            assert row["value"] == pytest.approx(ref, abs=1e-6)

    def test_cov_matched_grid_difference(self, tmp_path):
        cfg = {
            "experiment": "cov",
            "cocycle": {"kind": "schrodinger",
                        "v": [{"cos": [1, 0]}, {"cos": [0, 1]}],
                        "E": 0.5},
            "frequency": [GOLDEN, 2**0.5 - 1],
            "params": {"B": [[2, 3], [1, 2]], "N": 50, "M": 64},
        }
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 0
        data = json.loads((out / "cov.json").read_text())
        assert data["difference"] <= 1e-10


class TestExitCodes:
    def test_schema_violation_exits_2(self, tmp_path, capsys):
        cfg = dict(LE_CONSTANT, params={"N_list": [0]})
        rc, _ = run_cli(tmp_path, cfg)
        assert rc == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "N_list" in record["message"]

    def test_unknown_top_level_key_exits_2(self, tmp_path):
        cfg = dict(LE_CONSTANT, surprise=1)
        rc, _ = run_cli(tmp_path, cfg)
        assert rc == 2

    def test_experiment_mismatch_exits_2(self, tmp_path, capsys):
        rc, _ = run_cli(tmp_path, LE_CONSTANT, subcommand="ap")
        assert rc == 2
        record = json.loads(capsys.readouterr().err)
        assert record["config_sha256"] is not None

    def test_missing_config_exits_2(self, tmp_path):
        rc = main(["le", "--config", str(tmp_path / "absent.yaml"),
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_yaml_syntax_error_exits_2_with_its_position(self, tmp_path,
                                                         capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("experiment: le\nfrequency: [0.5\n")
        rc = main(["le", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith("config is not valid YAML")
        assert "line 2, column 12" in record["message"]

    def test_missing_cocycle_block_exits_2(self, tmp_path):
        cfg = {"experiment": "le", "frequency": [0.5],
               "params": {"N_list": [1]}}
        rc, _ = run_cli(tmp_path, cfg)
        assert rc == 2

    def test_numerical_failure_exits_3_with_record(self, tmp_path, capsys):
        # these liouville parameters fail their hypothesis gate
        cfg = {
            "experiment": "ladder",
            "frequency": [GOLDEN],
            "params": {"kind": "liouville", "N0": 10000, "q0": 8,
                       "rho": 0.5, "kappa": 0.2, "C": 5.0},
        }
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "GateFailed"
        on_disk = json.loads((out / "error.json").read_text())
        assert on_disk["error"] == "GateFailed"
        assert "eq:" in on_disk["message"]

    # The pair products of chains with these mu have norms near mu^2, past
    # the 1e77 where the closed form's f^2 overflowed. all_within is not
    # asserted: the bound C n / mu lies below the rounding of the residual.
    @pytest.mark.parametrize("mu", [1.0e40, 1.0e78])
    @pytest.mark.parametrize("variant", [False, True])
    def test_ap_with_huge_mu_stays_finite(self, tmp_path, mu, variant):
        cfg = {"experiment": "ap", "seed": 1,
               "params": {"chains": 20, "n_max": 30, "mu": mu,
                          "variant": variant}}
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 0
        lines = (out / "ap.csv").read_text().splitlines()
        assert lines[1] == "n,mu,max_gap,residual,bound"
        assert len(lines) == 22
        for line in lines[2:]:
            n, mu_i, max_gap, residual, bound = map(float, line.split(","))
            assert math.isfinite(max_gap) and math.isfinite(residual)
        assert math.isfinite(json.loads((out / "ap.json").read_text())["worst_ratio"])


class TestDeterminism:
    def test_bytes_identical_across_runs_and_threads(self, tmp_path):
        path = write_config(tmp_path, "cfg.yaml", dict(LE_CONSTANT, plot=True))
        outs = []
        for tag, extra in (("a", []), ("b", []), ("c", ["--threads", "4"])):
            out = tmp_path / tag
            assert main(["le", "--config", path, "--out", str(out),
                         *extra]) == 0
            outs.append(out)
        for name in ("le.json", "le.csv", "le.svg"):
            blobs = [(o / name).read_bytes() for o in outs]
            assert blobs[0] == blobs[1] == blobs[2]

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = {"experiment": "ap", "seed": 7,
               "params": {"chains": 10, "mu": 1000.0, "n_max": 20}}
        path = write_config(tmp_path, "cfg.yaml", cfg)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["ap", "--config", path, "--out", str(a)]) == 0
        assert main(["ap", "--config", path, "--out", str(b),
                     "--seed", "99"]) == 0
        ja = json.loads((a / "ap.json").read_text())
        jb = json.loads((b / "ap.json").read_text())
        assert ja["seed"] == 7 and jb["seed"] == 99
        assert ja["worst_ratio"] != jb["worst_ratio"]

    def test_induction_ladder_replay_identical(self, tmp_path):
        cfg = {
            "experiment": "ladder",
            "params": {"kind": "induction", "omega1": None,
                       "omega2": [GOLDEN], "q0": 1, "K0": 2, "delta0": 0.2,
                       "eps0": 0.0, "N0": 16, "rho": 0.95, "c": 0.1},
        }
        path = write_config(tmp_path, "cfg.yaml", cfg)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["ladder", "--config", path, "--out", str(a)]) == 0
        assert main(["ladder", "--config", path, "--out", str(b),
                     "--threads", "3"]) == 0
        assert (a / "ladder.json").read_bytes() == (b / "ladder.json").read_bytes()
        data = json.loads((a / "ladder.json").read_text())
        assert data["ladder"]["halt"] == "ScanTooLarge"


# diag(sin 2 pi x, sin 2 pi x) is exactly zero at x = 0 and nowhere else on
# the grid i/8192 or its golden orbits: one node in 8192 is excised at every
# N, renormalized (l2's default) or raw.
SIN_DIAG = {"kind": "matrix", "entries": [{"sin": [1]}, 0, 0, {"sin": [1]}]}
EXCISING_RUNS = {
    "l2": {"experiment": "l2", "cocycle": SIN_DIAG, "frequency": [GOLDEN],
           "params": {"N_list": [1, 4, 16], "M": 8192}},
    "ldt": {"experiment": "ldt", "cocycle": SIN_DIAG, "frequency": [GOLDEN],
            "params": {"N": 16, "M": 8192, "kappas": [0.1, 0.01],
                       "renormalize_first": False}},
}


@pytest.mark.parametrize("name", sorted(EXCISING_RUNS))
def test_excised_node_is_reported_alike_at_one_and_two_workers(tmp_path, monkeypatch,
                                                                name):
    # the split forced at two workers; _max_workers is restored afterwards
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(_util, "MIN_ROWS_PER_WORKER", 1)
    monkeypatch.setattr(_util, "_max_workers", _util._max_workers)
    path = write_config(tmp_path, "cfg.yaml", EXCISING_RUNS[name])
    outs = []
    for threads in ("1", "2"):
        outs.append(tmp_path / threads)
        assert main([name, "--config", path, "--out", str(outs[-1]),
                     "--threads", threads]) == 0
    for suffix in (".json", ".csv"):
        a, b = ((o / f"{name}{suffix}").read_bytes() for o in outs)
        assert a == b
    data = json.loads((outs[0] / f"{name}.json").read_text())
    if name == "l2":
        masses = [row["excised_mass"] for row in data["rows"]]
        rows = (outs[0] / "l2.csv").read_text().splitlines()[2:]
        assert [r.split(",")[2] for r in rows] == ["0.0001220703125"] * 3
    else:
        masses = [data["excised_mass"]]
    assert masses == [0.0001220703125] * len(masses)


class TestLadderSubcommand:
    def test_liouville_with_verify(self, tmp_path):
        cfg = {
            "experiment": "ladder",
            "cocycle": {"kind": "constant", "diag": [2.0, 0.5]},
            "frequency": [0.5],
            "quadrature": {"kind": "uniform-grid", "points_per_dim": 64},
            "params": {"kind": "liouville", "N0": 16, "q0": 2, "rho": 1.0,
                       "kappa": 0.5, "C": 2.0, "max_scale": 128,
                       "verify": {"C_prime": 10.0}},
        }
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 0
        data = json.loads((out / "ladder.json").read_text())
        assert data["ladder"]["scales"] == [16, 128]
        pairs = data["verification"]["pairs"]
        assert all(p["difference"] == 0.0 for p in pairs)
        assert data["verification"]["all_passed"] is True

    def test_mixed_reports_gate_flags(self, tmp_path):
        cfg = {
            "experiment": "ladder",
            "params": {"kind": "mixed", "N0": 20000000, "q0": 2, "K0": 50,
                       "omega1": [0.5], "omega2": [GOLDEN], "rho": 0.5,
                       "kappa": 0.2, "delta": 0.013, "C": 5.0},
        }
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 0
        flags = json.loads((out / "ladder.json").read_text())["gate"]["flags"]
        assert set(flags) == {"eq:Mixed:hyp1", "eq:Mixed:hyp2",
                              "eq:Mixed:hyp3"}

    def test_mixed_gate_at_the_d1_scan_guard(self, tmp_path):
        # K0 = 1e9 is the largest d=1 scan the guard admits; a brute-force
        # scan of it takes tens of seconds, the convergent walk does not
        K0 = 10**9
        cfg = {
            "experiment": "ladder",
            "params": {"kind": "mixed", "N0": 16, "q0": 1, "K0": K0,
                       "omega1": None, "omega2": [GOLDEN], "rho": 0.5,
                       "kappa": 0.5, "delta": 1e-12},
        }
        t0 = time.perf_counter()
        rc, out = run_cli(tmp_path, cfg)
        assert time.perf_counter() - t0 < 2.0
        assert rc == 0
        scan_delta = json.loads((out / "ladder.json").read_text())[
            "gate"]["params"]["scan_delta"]
        # ||q x|| at the largest continued-fraction denominator q <= K0 of
        # the exact rational x the double GOLDEN holds
        x = Fraction(GOLDEN)
        q_prev, q, t = 0, 1, 1 / x
        while True:
            a = math.floor(t)
            if a * q + q_prev > K0:
                break
            q_prev, q = q, a * q + q_prev
            if t == a:
                break
            t = 1 / (t - a)
        assert scan_delta == float(abs(q * x - round(q * x)))

    def test_mixed_with_verify_rejected(self, tmp_path):
        cfg = {
            "experiment": "ladder",
            "params": {"kind": "mixed", "N0": 100, "q0": 2, "K0": 5,
                       "omega1": [0.5], "omega2": [GOLDEN], "rho": 0.5,
                       "kappa": 0.2, "delta": 0.01, "verify": {}},
        }
        rc, _ = run_cli(tmp_path, cfg)
        assert rc == 2


class TestDeviationSubcommands:
    def test_loja_sin_power_law(self, tmp_path):
        cfg = {
            "experiment": "loja",
            "params": {"g": {"sin": [1]},
                       "t_grid": [0.5, 0.25, 0.125, 0.0625], "M": 65536},
        }
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 0
        data = json.loads((out / "loja.json").read_text())
        assert 0.9 <= data["b"] <= 1.1
        lines = (out / "loja.csv").read_text().splitlines()
        assert lines[1] == "threshold,measured_fraction"

    def test_ldt_fractions_grow_as_kappa_shrinks(self, tmp_path):
        cfg = {
            "experiment": "ldt",
            "cocycle": {"kind": "amo", "lam": 3.0, "E": 0.0},
            "frequency": [GOLDEN],
            "params": {"N": 100, "M": 256, "kappas": [0.05, 0.02, 0.01]},
        }
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 0
        fr = [e["measured_fraction"] for e in
              json.loads((out / "ldt.json").read_text())["estimates"]]
        assert fr[0] <= fr[1] <= fr[2]

    def test_fourier_scalars_present(self, tmp_path):
        cfg = {
            "experiment": "fourier",
            "cocycle": {"kind": "amo", "lam": 3.0, "E": 0.0},
            "frequency": [GOLDEN],
            "params": {"N": 16, "M": 256, "K0": 8},
        }
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 0
        data = json.loads((out / "fourier.json").read_text())
        assert abs(data["parseval_lhs"] - data["parseval_rhs"]) <= 1e-10
        lines = (out / "fourier.csv").read_text().splitlines()
        assert lines[1] == "k1,re,im"
        assert len(lines) == 2 + 256 // 2 + 1


class TestPlotting:
    def test_svg_written_with_stamp(self, tmp_path):
        rc, out = run_cli(tmp_path, dict(LE_CONSTANT, plot=True))
        assert rc == 0
        svg = (out / "le.svg").read_text()
        assert svg.startswith("<?xml")
        assert "<polyline" in svg
        assert "config_sha256=" in svg
        assert svg.rstrip().endswith("</svg>")

    def test_no_svg_without_plot_flag(self, tmp_path):
        rc, out = run_cli(tmp_path, LE_CONSTANT)
        assert rc == 0
        assert not (out / "le.svg").exists()

    def test_non_finite_rows_are_not_plotted(self, tmp_path):
        # an infinite threshold is a valid t_grid entry; its CSV row is kept
        cfg = {"experiment": "loja", "plot": True,
               "params": {"g": [{"cos": [1]}], "M": 64,
                          "t_grid": [math.inf, 0.5, 0.1]}}
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 0
        assert "\ninf," in (out / "loja.csv").read_text()
        svg = (out / "loja.svg").read_text()
        assert "<polyline" in svg
        assert "nan" not in svg and "inf" not in svg

    def test_fourier_svg_of_d2_plots_shell_maxima(self, tmp_path):
        # a 16^2 table is a grid of indices: the SVG plots one point per
        # shell r = max_i |k_i| = 0..8, the largest sqrt(re^2 + im^2) of
        # the CSV's rows on it
        cfg = {"experiment": "fourier", "plot": True,
               "cocycle": {"kind": "schrodinger", "E": 0.3,
                           "v": [{"cos": [1, 0], "amp": 2.0},
                                 {"cos": [0, 1]}]},
               "frequency": [0.6180339887498949, 0.4142135623730951],
               "params": {"N": 4, "M": 16, "K0": 4}}
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 0
        svg = (out / "fourier.svg").read_text()
        assert ">max_i |k_i|</text>" in svg and ">max |c_k|</text>" in svg
        points = svg.split('<polyline points="')[1].split('"')[0].split()
        assert len(points) == 16 // 2 + 1
        stamp, header, *rows = (out / "fourier.csv").read_text().splitlines()
        assert header == "k1,k2,re,im"
        top = [0.0] * 9
        for row in rows:
            k1, k2, re, im = row.split(",")
            r = max(abs(int(k1)), abs(int(k2)))
            top[r] = max(top[r], math.sqrt(float(re) ** 2 + float(im) ** 2))
        assert svg == line_plot(list(range(9)), top, xlabel="max_i |k_i|",
                                ylabel="max |c_k|", title="fourier",
                                comment=stamp[2:])

    def test_fourier_svg_of_d1_plots_re_against_k1(self, tmp_path):
        cfg = {"experiment": "fourier", "plot": True, "cocycle": AMO,
               "frequency": [GOLDEN], "params": {"N": 3, "M": 32, "K0": 4}}
        rc, out = run_cli(tmp_path, cfg)
        assert rc == 0
        stamp, body = (out / "fourier.csv").read_text().split("\n", 1)
        assert (out / "fourier.svg").read_text() == plot_csv_text(
            body, title="fourier", comment=stamp[2:])

    def test_plot_csv_text_drops_non_finite_rows(self):
        text = "x,y\n1,2\ninf,3\n4,nan\n-inf,-inf\n5,6\n"
        assert plot_csv_text(text) == plot_csv_text("x,y\n1,2\n5,6\n")
        with pytest.raises(ValueError, match="no numeric rows"):
            plot_csv_text("x,y\ninf,1\n2,nan\n")


class TestConfigHelpers:
    def test_trigpoly_sum_and_shorthand(self):
        p = build_trigpoly([{"cos": [1, 0]}, {"cos": [0, 1]}, 0.25], 2)
        q = (TrigPoly.cosine((1, 0)) + TrigPoly.cosine((0, 1))
             + TrigPoly.constant(2, 0.25))
        assert p.coeffs == q.coeffs

    def test_trigpoly_explicit_coeffs(self):
        p = build_trigpoly({"coeffs": [{"k": [2], "re": 0.5, "im": -1.0}]}, 1)
        assert p.coeffs == {(2,): complex(0.5, -1.0)}

    def test_trigpoly_bad_spec(self):
        with pytest.raises(ValueError):
            build_trigpoly({"unknown": 1}, 1)

    def test_load_config_hash_is_file_hash(self, tmp_path):
        path = write_config(tmp_path, "cfg.yaml", LE_CONSTANT)
        cfg, digest = load_config(path)
        expect = hashlib.sha256((tmp_path / "cfg.yaml").read_bytes()).hexdigest()
        assert digest == expect
        assert cfg["experiment"] == "le"

    def test_load_config_rejects_non_mapping(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("- just\n- a list\n")
        with pytest.raises(ConfigError):
            load_config(str(path))


# Configs that pass the schema but cannot be built or do not fit their
# experiment: each must exit 2 with a ConfigError record and no error.json.
AMO = {"kind": "amo", "lam": 3.0, "E": 0.0}
GRID16 = {"kind": "uniform-grid", "points_per_dim": 16}
LIOUVILLE = {"kind": "liouville", "N0": 16, "q0": 2, "rho": 1.0,
             "kappa": 0.5, "C": 2.0, "max_scale": 128}
INDUCTION = {"kind": "induction", "omega1": None, "omega2": [GOLDEN],
             "q0": 1, "K0": 2, "delta0": 0.2, "N0": 16, "rho": 0.95}
COV = {"experiment": "cov",
       "cocycle": {"kind": "schrodinger",
                   "v": [{"cos": [1, 0]}, {"cos": [0, 1]}], "E": 0.5},
       "frequency": [GOLDEN, 2**0.5 - 1],
       "params": {"B": [[2, 3], [1, 2]], "N": 3, "M": 8}}
CONFIG_ERRORS = {
    "continuity-non-trig-cocycle": {
        "experiment": "continuity",
        "cocycle": {"kind": "discontinuity", "k": [1]},
        "frequency": [GOLDEN], "quadrature": GRID16,
        "params": {"N": 2, "amplitudes": [0.1]}},
    "mixed-with-verify": {
        "experiment": "ladder",
        "params": {"kind": "mixed", "N0": 100, "q0": 2, "K0": 5,
                   "omega1": [0.5], "omega2": [GOLDEN], "rho": 0.5,
                   "kappa": 0.2, "delta": 0.01, "verify": {}}},
    "liouville-without-frequency": {
        "experiment": "ladder", "params": LIOUVILLE},
    "verify-without-cocycle": {
        "experiment": "ladder", "frequency": [0.5],
        "params": dict(LIOUVILLE, verify={})},
    "cocycle-dimension-mismatch": {
        "experiment": "le",
        "cocycle": {"kind": "schrodinger",
                    "v": [{"cos": [1, 0]}, {"cos": [0, 1]}], "E": 0.0},
        "frequency": [GOLDEN], "quadrature": GRID16,
        "params": {"N_list": [1]}},
    "nan-frequency": {
        "experiment": "le", "cocycle": AMO, "frequency": [math.nan],
        "quadrature": GRID16, "params": {"N_list": [1]}},
    "infinite-frequency": {
        "experiment": "le", "cocycle": AMO, "frequency": [math.inf],
        "quadrature": GRID16, "params": {"N_list": [1]}},
    # an integer past the double range: float() raises OverflowError
    "huge-integer-frequency": {
        "experiment": "le", "cocycle": AMO, "frequency": [10**400],
        "quadrature": GRID16, "params": {"N_list": [1]}},
    "monte-carlo-with-points-per-dim": {
        "experiment": "le", "cocycle": AMO, "frequency": [GOLDEN],
        "quadrature": {"kind": "monte-carlo", "points_per_dim": 16},
        "params": {"N_list": [1]}},
    "jacobi-periodic-complex-potential": {
        "experiment": "le",
        "cocycle": {"kind": "jacobi_periodic",
                    "v": {"coeffs": [{"k": [1], "re": 1.0}]}, "a": 1.0,
                    "v_per": [0.0, 1.0], "E": 0.2},
        "frequency": [GOLDEN], "quadrature": GRID16,
        "params": {"N_list": [1]}},
    "2d-index-in-1d-matrix": {
        "experiment": "le",
        "cocycle": {"kind": "matrix",
                    "entries": [{"cos": [1, 0]}, -1.0, 1.0, 0.0]},
        "frequency": [GOLDEN], "quadrature": GRID16,
        "params": {"N_list": [1]}},
    "induction-nan-omega2": {
        "experiment": "ladder",
        "params": dict(INDUCTION, omega2=[math.nan])},
    "mixed-nan-omega2": {
        "experiment": "ladder",
        "params": {"kind": "mixed", "N0": 100, "q0": 2, "K0": 5,
                   "omega1": [0.5], "omega2": [math.nan], "rho": 0.5,
                   "kappa": 0.2, "delta": 0.01}},
    "induction-infinite-omega1": {
        "experiment": "ladder",
        "params": dict(INDUCTION, omega1=[math.inf])},
    "fourier-M-not-power-of-two": {
        "experiment": "fourier", "cocycle": AMO, "frequency": [GOLDEN],
        "params": {"N": 3, "M": 100, "K0": 4}},
    "ldt-M-not-power-of-two": {
        "experiment": "ldt", "cocycle": AMO, "frequency": [GOLDEN],
        "params": {"N": 3, "M": 24, "kappas": [0.1]}},
    "cdt-M-not-power-of-two": {
        "experiment": "cdt", "cocycle": AMO, "frequency": [GOLDEN],
        "params": {"N": 3, "M": 24, "kappa": 0.1, "shifts": [[0.1]]}},
    "drift-M-not-power-of-two": {
        "experiment": "drift", "cocycle": AMO, "frequency": [GOLDEN],
        "params": {"N": 3, "M": 24, "a_exponent": 0.5}},
    "loja-M-not-power-of-two": {
        "experiment": "loja",
        "params": {"g": {"sin": [1]}, "t_grid": [0.5], "M": 24}},
    "l2-M-not-power-of-two": {
        "experiment": "l2", "cocycle": AMO, "frequency": [GOLDEN],
        "params": {"N_list": [2], "M": 24}},
    "cov-M-not-power-of-two": dict(COV, params=dict(COV["params"], M=12)),
    "cov-non-square-B": dict(
        COV, params=dict(COV["params"], B=[[1, 1], [0, 1], [0, 0]])),
    "cov-non-unimodular-B": dict(
        COV, params=dict(COV["params"], B=[[2, 0], [0, 1]])),
    "cov-B-dimension-mismatch": dict(
        COV, params=dict(COV["params"],
                         B=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])),
    "le-limit-schedule-not-increasing": {
        "experiment": "le-limit", "cocycle": AMO, "frequency": [GOLDEN],
        "quadrature": GRID16, "params": {"schedule": [10, 5]}},
    "example-discontinuity-zero-k": {
        "experiment": "example-discontinuity", "frequency": [0.0],
        "params": {"k": [0], "N_list": [1], "M": 64}},
    "example-discontinuity-k-dimension-mismatch": {
        "experiment": "example-discontinuity", "frequency": [0.5],
        "params": {"k": [1, 2], "N_list": [1], "M": 64}},
    "fourier-K0-not-below-half-M": {
        "experiment": "fourier", "cocycle": AMO, "frequency": [GOLDEN],
        "params": {"N": 3, "M": 32, "K0": 16}},
    # checked by the library alone: a ValueError or KeyError raised while
    # the config is built or its experiment runs
    "liouville-without-N0": {
        "experiment": "ladder", "frequency": [0.5],
        "params": {k: v for k, v in LIOUVILLE.items() if k != "N0"}},
    "mixed-without-delta": {
        "experiment": "ladder",
        "params": {"kind": "mixed", "N0": 100, "q0": 2, "K0": 5,
                   "omega1": [0.5], "omega2": [GOLDEN], "rho": 0.5,
                   "kappa": 0.2}},
    # an infinite strip width leaves the liouville recursion without a bound
    "ladder-infinite-rho": {
        "experiment": "ladder", "frequency": [GOLDEN],
        "params": dict(LIOUVILLE, rho=math.inf)},
    "ladder-kappa-above-1": {
        "experiment": "ladder", "frequency": [0.5],
        "params": dict(LIOUVILLE, kappa=1.5)},
    "loja-t-grid-increasing": {
        "experiment": "loja",
        "params": {"g": {"sin": [1]}, "t_grid": [0.01, 0.1], "M": 256}},
    "liouville-max-scale-below-N0": {
        "experiment": "ladder", "frequency": [0.5],
        "params": dict(LIOUVILLE, max_scale=8)},
    "verify-one-scale-ladder": {
        "experiment": "ladder", "cocycle": AMO, "frequency": [0.5],
        "quadrature": GRID16,
        "params": dict(LIOUVILLE, max_scale=16, verify={})},
    "low-discrepancy-on-13-frequencies": {
        "experiment": "le", "cocycle": {"kind": "constant", "diag": [2.0, 0.5]},
        "frequency": [0.01 + 0.1 * j for j in range(13)],
        "quadrature": {"kind": "low-discrepancy", "total_points": 16},
        "params": {"N_list": [1]}},
    "quadrature-clip-floor": {
        "experiment": "le", "cocycle": AMO, "frequency": [GOLDEN],
        "quadrature": dict(GRID16, clip_floor=0.9), "params": {"N_list": [1]}},
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_error_exits_2_without_error_json(tmp_path, capsys, case):
    cfg = CONFIG_ERRORS[case]
    rc, out = run_cli(tmp_path, cfg)
    assert rc == 2
    # no error.json and no partial outputs: --out is never created
    assert not out.exists()
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert record["experiment"] == cfg["experiment"]
    assert len(record["config_sha256"]) == 64


# Valid configs whose run fails: each must exit 3 with the record in error.json.
# (GateFailed: TestExitCodes.test_numerical_failure_exits_3_with_record)
NUMERICAL_FAILURES = {
    "ScanTooLarge": {
        "experiment": "le", "cocycle": AMO, "frequency": [GOLDEN],
        "quadrature": {"kind": "uniform-grid", "points_per_dim": 5000000},
        "params": {"N_list": [1]}},
    "AllSamplesSingular": {
        "experiment": "le", "cocycle": {"kind": "constant", "diag": [0.0, 0.0]},
        "frequency": [GOLDEN], "quadrature": GRID16,
        "params": {"N_list": [1]}},
    "PreconditionFailed": {
        "experiment": "ladder", "params": dict(INDUCTION, q0=5)},
    # exp(2 pi * 200) overflows a double
    "OverflowError": {
        "experiment": "example-discontinuity", "frequency": [GOLDEN],
        "params": {"k": [-200], "N_list": [1], "M": 8}},
}


@pytest.mark.parametrize("error", sorted(NUMERICAL_FAILURES))
def test_numerical_failure_exits_3_with_error_json(tmp_path, capsys, error):
    rc, out = run_cli(tmp_path, NUMERICAL_FAILURES[error])
    assert rc == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == error
    assert json.loads((out / "error.json").read_text()) == record


# A constant 1e-305 diagonal, not renormalized: every orbit underflows at its
# first step, whose norm 1e-305 is below UNDERFLOW_FLOOR.
TINY = {"kind": "constant", "diag": [1.0e-305, 1.0e-305]}
RAW = {"renormalize_first": False}
UNDERFLOWING = {
    "ldt": {"N": 2, "M": 8, "kappas": [0.1], **RAW},
    "fourier": {"N": 2, "M": 8, "K0": 2, **RAW},
    "l2": {"N_list": [2], "M": 8, **RAW},
    "cdt": {"N": 2, "M": 8, "kappa": 0.1, "shifts": [[0.1]], **RAW},
    "drift": {"N": 2, "M": 8, "a_exponent": 0.5, **RAW},
    "cov": {"B": [[1]], "N": 2, "M": 8},
}


@pytest.mark.parametrize("experiment", sorted(UNDERFLOWING))
def test_deviation_with_every_node_underflowed_exits_3(tmp_path, capsys, experiment):
    cfg = {"experiment": experiment, "cocycle": TINY, "frequency": [GOLDEN],
           "params": UNDERFLOWING[experiment]}
    rc, out = run_cli(tmp_path, cfg)
    assert rc == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "AllSamplesSingular"
    assert json.loads((out / "error.json").read_text()) == record


def test_discontinuity_scale_past_the_exp_range_exits_3(tmp_path, capsys):
    # |lam| = e^{4 pi} would overflow exp(lam) at every node
    cfg = {"experiment": "example-discontinuity", "frequency": [0.0],
           "params": {"k": [-2], "N_list": [1], "M": 8}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out = run_cli(tmp_path, cfg)
    assert rc == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "OverflowError"
    assert "ln(DBL_MAX) = 709.783" in record["message"]
    assert json.loads((out / "error.json").read_text()) == record


def test_discontinuity_scale_within_the_exp_range_runs(tmp_path):
    # |lam| = e^{2 pi}, about 535, stays below ln(DBL_MAX)
    cfg = {"experiment": "example-discontinuity", "frequency": [0.0],
           "params": {"k": [-1], "N_list": [1, 3], "M": 8}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out = run_cli(tmp_path, cfg)
    assert rc == 0
    rows = json.loads((out / "example-discontinuity.json").read_text())["rows"]
    assert all(math.isfinite(r["value"]) and r["value"] > 0 for r in rows)


@pytest.mark.parametrize("mu", [1.0e160, math.inf])
def test_ap_with_mu_past_the_norm_range_exits_2(tmp_path, capsys, mu):
    cfg = {"experiment": "ap", "params": {"chains": 3, "n_max": 5, "mu": mu}}
    rc, out = run_cli(tmp_path, cfg)
    assert rc == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith("mu must keep 2 mu^(2 WINDOW_EXPONENT) finite")


def test_ap_past_the_matrix_guard_exits_3(tmp_path, capsys):
    # four blocks of 10^9 doubles would be 32 GB: the guard refuses first
    cfg = {"experiment": "ap", "params": {"chains": 3, "n_max": 1000000000}}
    tracemalloc.start()
    try:
        rc, out = run_cli(tmp_path, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert peak < 1 << 24
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ScanTooLarge"
    assert json.loads((out / "error.json").read_text()) == record


@pytest.mark.parametrize("out_name", ["notadir/sub", "notadir"])
def test_unwritable_out_exits_2_with_record(tmp_path, capsys, out_name):
    (tmp_path / "notadir").write_text("a file, not a directory\n")
    path = write_config(tmp_path, "cfg.yaml", LE_CONSTANT)
    rc = main(["le", "--config", path, "--out", str(tmp_path / out_name)])
    assert rc == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith("cannot write --out ")
    assert len(record["config_sha256"]) == 64
    assert (tmp_path / "notadir").read_text() == "a file, not a directory\n"


T3_SCHRODINGER = {"kind": "schrodinger", "E": 0.3,
                  "v": {"cos": [1, 0, 0], "amp": 3.0}}
T3_FREQUENCY = [GOLDEN, 2**0.5 - 1, 10**0.5 - 3]


def test_strip_norm_grid_past_the_guard_raises():
    # 256 points per axis on T^3 is 2^24 nodes per face, four times
    # MAX_NODES: the guard must refuse it before allocating the grid
    A = build_cocycle(T3_SCHRODINGER, Frequency(T3_FREQUENCY)).A
    B = A + TrigPolyMatrix.constant(3, [[0.1, 0.0], [0.0, 0.0]])
    tracemalloc.start()
    try:
        with pytest.raises(ScanTooLarge,
                           match="^16777216 grid nodes exceeds guard 4194304$"):
            strip_norm(A, B, rho=A.rho, points_per_dim=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_continuity_runs_on_T3(tmp_path):
    cfg = {"experiment": "continuity", "cocycle": T3_SCHRODINGER,
           "frequency": T3_FREQUENCY,
           "quadrature": {"kind": "low-discrepancy", "total_points": 64},
           "params": {"N": 2, "amplitudes": [0.1, 0.01]}}
    t0 = time.perf_counter()
    rc, out = run_cli(tmp_path, cfg)
    assert time.perf_counter() - t0 < 10
    assert rc == 0
    rows = json.loads((out / "continuity.json").read_text())["rows"]
    # a constant bump of the (0, 0) entry is at strip distance |amp|
    assert [r["delta"] for r in rows] == pytest.approx([0.1, 0.01], rel=1e-12)


# +-amplitudes give tied distances: each CSV row must carry its own JSON
# envelope row, not the envelope value of the last tied row.
def test_continuity_csv_envelope_is_the_json_envelope(tmp_path):
    cfg = {"experiment": "continuity", "cocycle": {**AMO, "E": 0.3},
           "frequency": [GOLDEN],
           "quadrature": {"kind": "uniform-grid", "points_per_dim": 64},
           "params": {"N": 20, "amplitudes": [0.1, -0.1, -0.2, 0.2]}}
    rc, out = run_cli(tmp_path, cfg)
    assert rc == 0
    data = json.loads((out / "continuity.json").read_text())
    rows = sorted(data["rows"], key=lambda r: r["delta"])
    want = [[r["delta"], r["diff"], e["diff"]]
            for r, e in zip(rows, data["envelope"])]
    lines = (out / "continuity.csv").read_text().splitlines()[2:]
    assert [[float(v) for v in line.split(",")] for line in lines] == want
    assert len({r["delta"] for r in rows}) < len(rows)


# Periodic-background Jacobi blocks: v = 3 cos 2 pi x over the golden mean.
JP_V = {"cos": [1], "amp": 3.0}
JP_OMEGA = Frequency(((math.sqrt(5.0) - 1.0) / 2.0,))


def test_jacobi_periodic_constant_background_is_jacobi_at_twice_the_length():
    # with v_per = (0.4, 0.4) a block is two sites of jacobi at E - 0.4, so
    # N blocks are 2N sites and the block average is twice the site average
    block = build_cocycle({"kind": "jacobi_periodic", "v": JP_V, "a": 1.0,
                           "v_per": [0.4, 0.4], "E": 0.3}, JP_OMEGA)
    site = build_cocycle({"kind": "jacobi", "v": JP_V, "a": 1.0,
                          "E": 0.3 - 0.4}, JP_OMEGA)
    X = np.arange(256).reshape(-1, 1) / 256
    a_block, u_block = iterate_log_norm_many(block, 200, X)
    a_site, u_site = iterate_log_norm_many(site, 400, X)
    assert not u_block.any() and not u_site.any()
    assert np.max(np.abs(a_block - 2.0 * a_site)) < 1e-10


def jp_payload(tmp_path, cocycle, N_list, name, experiment="le"):
    cfg = {"experiment": experiment, "cocycle": cocycle,
           "frequency": [GOLDEN],
           "quadrature": {"kind": "uniform-grid", "points_per_dim": 64},
           "params": ({"N_list": N_list} if experiment == "le"
                      else {"schedule": N_list})}
    (tmp_path / name).mkdir()
    rc, out = run_cli(tmp_path / name, cfg)
    assert rc == 0
    return json.loads((out / f"{experiment}.json").read_text())


@pytest.mark.parametrize("q", [2, 3])
def test_le_of_a_q_site_block_names_its_unit(tmp_path, q):
    # on a constant background N blocks are qN sites of jacobi at E - 0.4,
    # so the block value at N is q times the site value at qN
    periodic = {"kind": "jacobi_periodic", "v": JP_V, "a": 1.0,
                "v_per": [0.4] * q, "E": 0.3}
    block = jp_payload(tmp_path, periodic, [50, 100], "block")
    site = jp_payload(tmp_path, {"kind": "jacobi", "v": JP_V, "a": 1.0,
                                 "E": 0.3 - 0.4}, [50 * q, 100 * q], "site")
    one = jp_payload(tmp_path, dict(periodic, v_per=[0.4]), [50], "one")
    limit = jp_payload(tmp_path, periodic, [1, 2], "limit", "le-limit")
    assert block["sites_per_block"] == limit["sites_per_block"] == q
    assert "sites_per_block" not in site and "sites_per_block" not in one
    for b, s in zip(block["rows"], site["rows"]):
        assert abs(b["value"] - q * s["value"]) < 1e-10


# Every cocycle experiment, small (M = 64, N <= 16), on a cocycle block;
# the ladder is the liouville ladder (scales 16 to 128) at omega = 0.5 with
# a verification.
BLOCK_PARAMS = {
    "le": {"N_list": [4, 16]},
    "le-limit": {"schedule": [2, 4]},
    "continuity": {"N": 8, "amplitudes": [0.1, 0.01]},
    "ldt": {"N": 8, "M": 64, "kappas": [0.1]},
    "cdt": {"N": 8, "M": 64, "kappa": 0.1, "shifts": [[0.1]]},
    "drift": {"N": 8, "M": 64, "a_exponent": 0.5},
    "l2": {"N_list": [2, 4], "M": 64},
    "fourier": {"N": 8, "M": 64, "K0": 4},
    "ladder": {**LIOUVILLE, "verify": {}},
    "cov": {"B": [[1]], "N": 8, "M": 64},
}
BLOCK_CSVS = {"le", "le-limit", "continuity", "ldt", "cdt", "l2", "fourier"}
JP2 = {"kind": "jacobi_periodic", "v": JP_V, "a": 1.0, "v_per": [0.4, 0.4],
       "E": 0.3}
JACOBI = {"kind": "jacobi", "v": JP_V, "a": 1.0, "E": 0.3}


def block_run(tmp_path, name, cocycle, plot=False):
    """Run one BLOCK_PARAMS experiment on cocycle in its own directory:
    (JSON text, CSV lines or None, SVG text or None)."""
    cfg = {"experiment": name, "plot": plot, "cocycle": cocycle,
           "frequency": [0.5 if name == "ladder" else GOLDEN],
           "quadrature": {"kind": "uniform-grid", "points_per_dim": 64},
           "params": BLOCK_PARAMS[name]}
    (tmp_path / name).mkdir(parents=True)
    rc, out = run_cli(tmp_path / name, cfg)
    assert rc == 0
    csv, svg = out / f"{name}.csv", out / f"{name}.svg"
    return ((out / f"{name}.json").read_text(),
            csv.read_text().splitlines() if csv.exists() else None,
            svg.read_text() if svg.exists() else None)


@pytest.mark.parametrize("name", sorted(BLOCK_PARAMS))
def test_every_output_of_a_q_site_block_names_its_unit(tmp_path, name):
    text, csv, svg = block_run(tmp_path, name, JP2, plot=name == "le")
    data = json.loads(text)
    assert text.count('"sites_per_block"') == 1
    assert list(data)[:5] == ["cocyclelab", "config_sha256", "experiment",
                              "seed", "sites_per_block"]
    assert data["sites_per_block"] == 2
    assert (csv is not None) == (name in BLOCK_CSVS)
    if csv is not None:
        assert csv[0].startswith("# cocyclelab=")
        assert csv[0].endswith(" sites_per_block=2")
    if name == "le":
        assert f"<!-- {csv[0][2:]} -->" in svg


@pytest.mark.parametrize("name", sorted(BLOCK_PARAMS))
def test_a_one_site_cocycle_names_no_unit(tmp_path, name):
    for i, cocycle in enumerate((JACOBI, dict(JP2, v_per=[0.0]))):
        text, csv, _ = block_run(tmp_path / str(i), name, cocycle)
        assert "sites_per_block" not in text
        assert csv is None or "sites_per_block" not in csv[0]


def test_jacobi_is_jacobi_periodic_with_one_zero_site(tmp_path):
    site = json.loads(block_run(tmp_path / "site", "le", JACOBI)[0])
    one = json.loads(block_run(tmp_path / "one", "le",
                               dict(JP2, v_per=[0.0]))[0])
    assert site["rows"] == one["rows"]
    assert all(r["value"] > 0 for r in site["rows"])


def site_by_site_log_norm(v, a, v_per, E, w, x, n_sites):
    """ln ||J_{n-1}(x + (n-1) w) ... J_0(x)|| by a matmul loop over sites,
    J_k(t) = [[E - v_per[k mod q] - v(t), -conj(a(t - w))], [a(t), 0]]."""
    P = np.eye(2, dtype=complex)
    for k in range(n_sites):
        t = x + k * w
        J = np.array([[E - v_per[k % len(v_per)] - v(t), -np.conj(a(t - w))],
                      [a(t), 0.0]])
        P = J @ P
    return math.log(np.linalg.norm(P, 2))


@pytest.mark.parametrize("v_per", [[0.0, 1.0], [0.0, 1.0, -0.5]])
def test_jacobi_periodic_matches_a_site_by_site_product(v_per):
    # a complex hopping a, so that the conjugated (1,2) entry is exercised
    spec = {"kind": "jacobi_periodic", "v": {"cos": [1], "amp": 1.5},
            "a": [0.7, {"coeffs": [{"k": [1], "re": 0.3, "im": 0.2}]}],
            "v_per": v_per, "E": 0.3}
    C = build_cocycle(spec, JP_OMEGA)
    w = JP_OMEGA.components[0]

    def v(t):
        return 1.5 * math.cos(2 * math.pi * t)

    def a(t):
        return 0.7 + (0.3 + 0.2j) * np.exp(2j * math.pi * t)

    N, X = 10, np.arange(16).reshape(-1, 1) / 16
    avg, under = iterate_log_norm_many(C, N, X)
    assert not under.any()
    want = [site_by_site_log_norm(v, a, v_per, 0.3, w, x, len(v_per) * N) / N
            for x in X[:, 0]]
    assert np.max(np.abs(avg - want)) < 1e-9


# One small run per subcommand: (config, CSV header line or None).
SUBCOMMANDS = {
    "le": (LE_CONSTANT, "N,value,excised_mass,stderr"),
    "le-limit": ({"experiment": "le-limit", "cocycle": AMO,
                  "frequency": [GOLDEN], "quadrature": GRID16,
                  "params": {"schedule": [1, 2]}},
                 "N,value,excised_mass,stderr"),
    "continuity": ({"experiment": "continuity", "cocycle": AMO,
                    "frequency": [GOLDEN], "quadrature": GRID16,
                    "params": {"N": 3, "amplitudes": [0.1, 0.01]}},
                   "delta,diff,envelope"),
    "ap": ({"experiment": "ap", "params": {"chains": 3, "n_max": 5}},
           "n,mu,max_gap,residual,bound"),
    "ldt": ({"experiment": "ldt", "cocycle": AMO, "frequency": [GOLDEN],
             "params": {"N": 3, "M": 32, "kappas": [0.1]}},
            "threshold,measured_fraction"),
    "cdt": ({"experiment": "cdt", "cocycle": AMO, "frequency": [GOLDEN],
             "params": {"N": 3, "M": 32, "kappa": 0.1, "shifts": [[0.1]]}},
            "a_norm,measured_fraction,threshold,predicted_bound"),
    "drift": ({"experiment": "drift", "cocycle": AMO, "frequency": [GOLDEN],
               "params": {"N": 3, "M": 32, "a_exponent": 0.5}}, None),
    "loja": ({"experiment": "loja",
              "params": {"g": {"sin": [1]}, "t_grid": [0.5, 0.25],
                         "M": 256}},
             "threshold,measured_fraction"),
    "l2": ({"experiment": "l2", "cocycle": AMO, "frequency": [GOLDEN],
            "params": {"N_list": [2, 4], "M": 32}},
           "N,rms,excised_mass"),
    "fourier": ({"experiment": "fourier", "cocycle": AMO,
                 "frequency": [GOLDEN],
                 "params": {"N": 3, "M": 32, "K0": 4}},
                "k1,re,im"),
    "ladder": ({"experiment": "ladder", "params": INDUCTION}, None),
    "cov": (COV, None),
    "example-discontinuity": ({"experiment": "example-discontinuity",
                               "frequency": [0.0],
                               "params": {"k": [1], "N_list": [1],
                                          "M": 64}},
                              "N,value"),
}


def test_subcommand_cases_cover_every_experiment():
    assert sorted(SUBCOMMANDS) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_every_subcommand_runs(tmp_path, name):
    cfg, header = SUBCOMMANDS[name]
    rc, out = run_cli(tmp_path, cfg)
    assert rc == 0
    data = json.loads((out / f"{name}.json").read_text())
    assert data["experiment"] == name
    assert data["seed"] == 0
    assert len(data["config_sha256"]) == 64
    assert data["cocyclelab"]
    csv_path = out / f"{name}.csv"
    if header is None:
        assert not csv_path.exists()
    else:
        lines = csv_path.read_text().splitlines()
        assert lines[0] == (f"# cocyclelab={data['cocyclelab']} "
                            f"config_sha256={data['config_sha256']}")
        assert lines[1] == header
        assert len(lines) > 2


def test_csv_text_cell_formats():
    rows = iter([(1, np.int64(-7), 0.1, math.inf),
                 (2**70, np.int32(3), -math.inf, math.nan),
                 (0, np.uint8(0), np.float64(2.5), 1.0)])
    assert csv_text(("a", "b", "c", "d"), rows) == (
        "a,b,c,d\n"
        "1,-7,0.10000000000000001,inf\n"
        "1180591620717411303424,3,-inf,nan\n"
        "0,0,2.5,1\n")
    assert csv_text(["x"], []) == "x\n"


def csv_text_per_cell(header, rows) -> str:
    """The per-cell writer csv_text used before its row templates, kept as
    the byte reference."""
    lines = [",".join(header)]
    lines.extend(",".join([str(int(v)) if isinstance(v, (int, np.integer))
                           else fmt17(v) for v in row]) for row in rows)
    return "\n".join(lines) + "\n"


CSV_CELLS = [0, -7, 2**53 + 1, 2**70, True, np.int64(-3), np.int32(5),
             np.uint8(255), np.uint64(2**64 - 1), 0.1, -0.0, 5e-324, 1e308,
             math.inf, -math.inf, math.nan, np.float64(2.5),
             np.float32(0.1), np.float32(-math.inf), np.float16(0.3),
             np.float64(-0.0), np.bool_(True), np.longdouble(1) / 3]


class TestCsvTextBytes:
    def test_every_cell_kind_matches_per_cell_writer(self, same_text):
        rows = [tuple(CSV_CELLS), tuple(reversed(CSV_CELLS))]
        header = [f"c{i}" for i in range(len(CSV_CELLS))]
        same_text(csv_text(header, iter(rows)),
                  csv_text_per_cell(header, rows))

    def test_a_float_in_an_integer_column_is_not_truncated(self, same_text):
        rows = [(1, 2.5), (2.75, 3), (np.float32(4.5), np.int64(2**62 + 1)),
                (5, 6.0)]
        text = csv_text(("n", "x"), (r for r in rows))
        same_text(text, csv_text_per_cell(("n", "x"), rows))
        assert text.splitlines()[2] == "2.75,3"

    def test_list_rows_and_generator_rows_agree(self):
        rows = [[1, 0.5], [2, math.nan]]
        assert csv_text(("a", "b"), rows) == csv_text(
            ("a", "b"), (tuple(r) for r in rows)) == "a,b\n1,0.5\n2,nan\n"

    @pytest.mark.parametrize("n", [CSV_BLOCK - 2, CSV_BLOCK - 1, CSV_BLOCK,
                                   2 * CSV_BLOCK + 1])
    def test_tables_across_join_blocks(self, n, same_text):
        rows = [(i, i / 7.0) for i in range(n)]
        text = csv_text(("i", "x"), iter(rows))
        same_text(text, csv_text_per_cell(("i", "x"), rows))
        assert text.count("\n") == n + 1

    def test_random_columns_match_per_cell_writer(self, same_text):
        rng = np.random.default_rng(7)
        ints = rng.integers(-2**62, 2**62, 500)
        floats = rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)
        singles = rng.standard_normal(500).astype(np.float32)
        rows = [(int(i), np.int64(i), float(f), np.float64(f), s)
                for i, f, s in zip(ints, floats, singles)]
        header = ("a", "b", "c", "d", "e")
        same_text(csv_text(header, rows), csv_text_per_cell(header, rows))


class TestCsvTextColumnBlocks:
    """csv_text's column-block form against the per-cell writer."""

    def test_every_cell_kind_in_column_form(self, same_text):
        rows = [tuple(CSV_CELLS), tuple(reversed(CSV_CELLS))]
        header = [f"c{i}" for i in range(len(CSV_CELLS))]
        columns = [list(col) for col in zip(*rows)]
        same_text(csv_text(header, blocks=[columns]),
                  csv_text_per_cell(header, rows))

    def test_an_integer_column_holding_one_float(self, same_text):
        ints = [1, 2, 2.75, 4]
        floats = [0.5, 1.5, 3.0, 2.5]
        text = csv_text(("n", "x"), blocks=[[ints, floats]])
        same_text(text,
                  csv_text_per_cell(("n", "x"), list(zip(ints, floats))))
        assert text.splitlines()[3] == "2.75,3"

    def test_numpy_arrays_as_columns(self, same_text):
        rng = np.random.default_rng(11)
        columns = [rng.integers(-2**62, 2**62, 300),
                   rng.integers(-9, 9, 300).astype(np.int32),
                   rng.integers(0, 2**63, 300, dtype=np.uint64) * 2,
                   rng.standard_normal(300) * 10.0 ** rng.integers(-300, 300,
                                                                   300),
                   rng.standard_normal(300).astype(np.float32)]
        columns[3][:3] = [math.inf, -math.inf, math.nan]
        header = ("a", "b", "c", "d", "e")
        rows = list(zip(*columns))
        same_text(csv_text(header, blocks=[columns]),
                  csv_text_per_cell(header, rows))

    @pytest.mark.parametrize("n", [CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1])
    def test_blocks_around_the_block_size(self, n, same_text):
        i = np.arange(n)
        x = i / 7.0
        rows = list(zip(i.tolist(), x.tolist()))
        want = csv_text_per_cell(("i", "x"), rows)
        same_text(csv_text(("i", "x"), blocks=[[i, x]]), want)
        # the same table as several blocks, and as rows
        cuts = [0, 5, CSV_BLOCK - 3, n]
        blocks = [[i[a:b], x[a:b].tolist()] for a, b in zip(cuts, cuts[1:])]
        same_text(csv_text(("i", "x"), blocks=blocks), want)
        same_text(csv_text(("i", "x"), iter(rows)), want)

    def test_an_empty_table_is_the_header(self):
        assert csv_text(("a", "b"), blocks=[]) == "a,b\n"
        assert csv_text(("a", "b"), blocks=[[[], np.zeros(0)]]) == "a,b\n"
        assert csv_text(("a", "b"), iter([])) == "a,b\n"


@dataclasses.dataclass(frozen=True)
class _Row:
    N: int
    value: float
    hidden: object = dataclasses.field(repr=False)
    tag: str = "a"


class _Pair(NamedTuple):
    lo: int
    hi: float


def test_to_json_text_writes_results_as_their_fields():
    obj = {"row": _Row(np.int64(3), 0.1, hidden=object(), tag="x"),
           "pairs": [_Pair(1, math.inf), _Pair(2, -math.inf)],
           7: {1: math.nan, "t": (True, None)}}
    assert to_json_text(obj) == (
        '{"row": {"N": 3, "value": 0.10000000000000001, "tag": "x"}, '
        '"pairs": [{"lo": 1, "hi": "inf"}, {"lo": 2, "hi": "-inf"}], '
        '"7": {"1": "nan", "t": [true, null]}}\n')
    assert to_json_text([_Row(1, 2.5, hidden=None)]) == \
        '[{"N": 1, "value": 2.5, "tag": "a"}]\n'
    with pytest.raises(TypeError, match="not JSON-serializable"):
        to_json_text(_Row)


# The hand-written JSON dicts the result types and cli.py built before a
# result's JSON became its fields, kept as byte references.

def measure_estimate_dict(e) -> dict:
    return {"threshold": e.threshold,
            "measured_fraction": e.measured_fraction,
            "predicted_bound": e.predicted_bound,
            "parameters": dict(e.parameters)}


def gate_report_dict(g) -> dict:
    return {"flags": dict(g.flags), "max_scale": g.max_scale,
            "params": dict(g.params)}


def scale_ladder_dict(lad) -> dict:
    return {"kind": lad.kind, "scales": [int(n) for n in lad.scales],
            "params": dict(lad.params),
            "step_flags": [dict(s) for s in lad.step_flags], "halt": lad.halt}


def ladder_verification_dict(v) -> dict:
    return {"pairs": [{"N_i": int(a), "N_j": int(b), "difference": d,
                       "budget": w} for (a, b, d, w) in v.pairs],
            "passed": list(v.passed),
            "all_passed": all(v.passed),
            "estimates": {str(k): x for k, x in v.estimates.items()}}


def ap_report_dict(r) -> dict:
    return {"kind": r.kind, "n": r.n, "mu": r.mu, "C": r.C,
            "hypothesis_min_norm_ok": r.hypothesis_min_norm_ok,
            "hypothesis_gap_ok": r.hypothesis_gap_ok,
            "max_gap": r.max_gap, "residual": r.residual,
            "bound": r.bound, "satisfied": bool(r.residual <= r.bound)}


def consequence_report_dict(r) -> dict:
    return {"N0": r.N0, "N1": r.N1, "delta": r.delta, "C": r.C,
            "L_N0": r.L_N0, "L_2N0": r.L_2N0, "L_N1": r.L_N1,
            "hypothesis_flags": dict(r.hypothesis_flags),
            "hypotheses_ok": r.hypotheses_ok,
            "lhs": r.lhs, "rhs": r.rhs, "satisfied": r.satisfied}


def le_rows(table) -> list:
    return [{"N": r.N, "value": r.value, "excised_mass": r.excised_mass,
             "stderr": r.stderr} for r in table]


def modulus_rows(rows) -> list:
    return [{"delta": r.delta, "diff": r.diff} for r in rows]


def _amo_golden():
    return Cocycle(amo(3.0, 0.2), Frequency((GOLDEN,)))


QUAD16 = QuadratureSpec(kind="uniform-grid", points_per_dim=16)


class TestJsonMatchesHandWrittenDicts:
    def test_measure_estimates(self):
        ldt = ldt_empirical(Profile.from_values(np.linspace(-1.0, 1.0, 8)), 0.3)
        cdt = cdt_empirical(_amo_golden(), 3, (0.1,), 0.1, 32)
        assert cdt.parameters and cdt.predicted_bound is not None
        for e in (ldt, cdt):
            assert to_json_text(e) == to_json_text(measure_estimate_dict(e))

    def test_gates(self):
        liouville = liouville_gate(16, 2, Frequency((0.5,)), rho=1.0,
                                   kappa=0.5, C=2.0)
        mixed = mixed_gate(100, 2, 5, Frequency((0.5,)), Frequency((GOLDEN,)),
                           rho=0.5, kappa=0.2, delta=0.01)
        for g in (liouville, mixed):
            assert to_json_text({"gate": g}) == \
                to_json_text({"gate": gate_report_dict(g)})

    def test_ladders(self):
        liouville = liouville_ladder(16, 2, Frequency((0.5,)), rho=1.0,
                                     kappa=0.5, C=2.0, max_scale=128)
        induction = induction_schedule(None, Frequency((GOLDEN,)), q0=1, K0=2,
                                       delta0=0.2, eps0=0.0, N0=16, rho=0.95,
                                       c=0.1)
        for lad in (liouville, induction):
            assert to_json_text(lad) == to_json_text(scale_ladder_dict(lad))

    def test_verification_with_a_base_to_top_pair(self):
        lad = ScaleLadder(kind="liouville", scales=(16, 32, 64),
                          params={"kappa": 0.5, "q0": 2, "K0": None,
                                  "delta0": None, "rho": 1.0, "C": 2.0,
                                  "c": None},
                          step_flags=())
        v = ladder_verify(_amo_golden(), lad, quad=QUAD16)
        assert len(v.pairs) == 3 and v.pairs[-1].N_j == 64
        assert v.all_passed is all(v.passed)
        assert to_json_text(v) == to_json_text(ladder_verification_dict(v))

    def test_le_rows_and_modulus_table(self):
        C = _amo_golden()
        table = le_table(C, [1, 4, 2], QUAD16)
        assert to_json_text(table) == to_json_text(le_rows(table))
        A = C.A
        bumped = [TrigPolyMatrix(A.entries[0] + TrigPoly(1, {(0,): amp}),
                                 *A.entries[1:], rho=A.rho)
                  for amp in (0.1, 0.01)]
        mod = finite_scale_modulus(C, 3, bumped, QUAD16)
        assert to_json_text([mod.rows, mod.envelope]) == \
            to_json_text([modulus_rows(mod.rows), modulus_rows(mod.envelope)])

    def test_avalanche_reports_drop_only_the_derived_keys(self):
        chain = np.array([np.diag([100.0, 0.01])] * 5, dtype=complex)
        r = ap_check(chain)
        ref = ap_report_dict(r)
        del ref["satisfied"]
        assert to_json_text(r) == to_json_text(ref)
        c = ap_consequence_check(_amo_golden(), (0.1,), N0=4, N1=16,
                                 delta=0.5)
        ref = consequence_report_dict(c)
        del ref["hypotheses_ok"], ref["satisfied"]
        assert to_json_text(c) == to_json_text(ref)


def _param_schema(name):
    return {**PARAM_SCHEMAS[name], "$defs": _TRIGPOLY_DEFS}


def _validate_message(cfg) -> str:
    """The ConfigError message from jsonschema.validate on the two schemas."""
    try:
        jsonschema.validate(cfg, SCHEMA)
        jsonschema.validate(cfg.get("params", {}),
                            _param_schema(cfg["experiment"]))
    except jsonschema.ValidationError as e:
        loc = "/".join(str(p) for p in e.absolute_path) or "<root>"
        return f"config schema violation at {loc}: {e.message}"
    raise AssertionError("config is valid")


INVALID_CONFIGS = {
    "root": {**LE_CONSTANT, "bogus": 1},
    "root-cocycle": {**LE_CONSTANT, "cocycle": {"kind": "amo", "lam": "3"}},
    "params": {**LE_CONSTANT, "params": {"N_list": [4, 0]}},
    "defs-trigpoly": {"experiment": "loja",
                      "params": {"g": [1.0, {"cos": [1], "bogus": 2}],
                                 "t_grid": [0.1], "M": 8}},
}


class TestCompiledSchemas:
    @pytest.mark.parametrize("name", ["<root>", *PARAM_SCHEMAS])
    def test_schema_passes_metaschema(self, name):
        schema = SCHEMA if name == "<root>" else _param_schema(name)
        validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize("case", sorted(INVALID_CONFIGS))
    def test_message_equals_jsonschema_validate(self, tmp_path, case):
        cfg = INVALID_CONFIGS[case]
        path = write_config(tmp_path, "bad.yaml", cfg)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == _validate_message(cfg)

    def test_load_config_never_checks_a_schema(self, tmp_path, monkeypatch):
        def refuse(cls, schema, *args, **kwargs):
            raise AssertionError("check_schema called while loading")

        for schema in (SCHEMA, *(_param_schema(n) for n in PARAM_SCHEMAS)):
            monkeypatch.setattr(validator_for(schema), "check_schema",
                                classmethod(refuse))
        path = write_config(tmp_path, "good.yaml", LE_CONSTANT)
        assert load_config(path)[0] == LE_CONSTANT
        for case, cfg in INVALID_CONFIGS.items():
            path = write_config(tmp_path, f"{case}.yaml", cfg)
            with pytest.raises(ConfigError):
                load_config(path)


# ---------------------------------------------------------------------------
# Config fuzz: every run ends in exit 0, 2 or 3 under the one rule
# ---------------------------------------------------------------------------

def _subclass_names(cls) -> set:
    names = {cls.__name__}
    for sub in cls.__subclasses__():
        names |= _subclass_names(sub)
    return names


EXIT_3_ERRORS = _subclass_names(CocycleLabError) | _subclass_names(ArithmeticError)

# a finite set of frequency components: in range, out of range and not finite
FUZZ_COMPONENTS = st.sampled_from([0.0, 0.5, GOLDEN, 2**0.5 - 1, -0.3, 1.7,
                                   math.nan, math.inf])
FUZZ_REALS = st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 1.5, 10.0, math.nan,
                                        math.inf]),
                       st.floats(0.001, 0.999))
FUZZ_OMEGA = st.one_of(st.none(), st.lists(FUZZ_COMPONENTS, min_size=1,
                                           max_size=1))
# params fields drawn afresh; sizes stay small: N <= 8, M <= 64, K0 <= 50
FUZZ_PARAMS = {
    "kind": st.sampled_from(["liouville", "mixed", "induction"]),
    "N": st.integers(0, 8), "M": st.integers(1, 64), "K0": st.integers(0, 50),
    "N0": st.integers(0, 64), "q0": st.integers(0, 4),
    "max_scale": st.integers(0, 64), "chains": st.integers(0, 8),
    "n_max": st.integers(2, 20), "d": st.integers(0, 2),
    "N_list": st.lists(st.integers(0, 8), max_size=4),
    "schedule": st.lists(st.integers(0, 8), max_size=4),
    "k": st.lists(st.integers(-2, 2), min_size=1, max_size=2),
    "kappas": st.lists(FUZZ_REALS, max_size=3),
    "t_grid": st.lists(FUZZ_REALS, max_size=3),
    "amplitudes": st.lists(FUZZ_REALS, max_size=3),
    "shifts": st.lists(st.lists(FUZZ_REALS, min_size=1, max_size=2),
                       max_size=2),
    "kappa": FUZZ_REALS, "rho": FUZZ_REALS, "delta": FUZZ_REALS,
    "delta0": FUZZ_REALS, "eps0": FUZZ_REALS, "a_exponent": FUZZ_REALS,
    "C": FUZZ_REALS, "c": FUZZ_REALS,
    "mu": st.sampled_from([0.5, 1.0, 50.0, 1e3, 1e40]),
    "omega1": FUZZ_OMEGA, "omega2": FUZZ_OMEGA,
}
# at most 32 quadrature nodes on T^1 and T^2
FUZZ_QUADRATURE = {d: st.fixed_dictionaries(
    {"kind": st.sampled_from(["uniform-grid", "low-discrepancy",
                              "monte-carlo"])},
    optional={"points_per_dim": st.integers(0, [32, 5][d - 1]),
              "total_points": st.integers(0, 32)}) for d in (1, 2)}
FUZZ_BASES = {**{name: cfg for name, (cfg, _) in SUBCOMMANDS.items()},
              "ladder-liouville-verify": {
                  "experiment": "ladder", "cocycle": AMO, "frequency": [0.5],
                  "quadrature": GRID16, "params": dict(LIOUVILLE, verify={})},
              "ladder-mixed": {
                  "experiment": "ladder",
                  "params": {"kind": "mixed", "N0": 100, "q0": 2, "K0": 5,
                             "omega1": [0.5], "omega2": [GOLDEN], "rho": 0.5,
                             "kappa": 0.2, "delta": 0.01}}}


@st.composite
def fuzzed_configs(draw, base):
    """A config of base's experiment: blocks and params keys sometimes
    missing, values sometimes redrawn (partly out of range, lists unsorted)."""
    cfg = {"experiment": base["experiment"]}
    for key in ("frequency", "cocycle", "quadrature"):
        if key in base and draw(st.integers(0, 19)) > 0:
            cfg[key] = base[key]
    d = len(base.get("frequency", [0.0]))
    if "frequency" in cfg and draw(st.booleans()):
        cfg["frequency"] = draw(st.lists(FUZZ_COMPONENTS, min_size=d,
                                         max_size=d))
    if "quadrature" in cfg and draw(st.booleans()):
        cfg["quadrature"] = draw(FUZZ_QUADRATURE[d])
    params = {}
    for key, value in base["params"].items():
        choice = draw(st.integers(0, 19))
        if choice == 0:
            continue
        params[key] = (draw(FUZZ_PARAMS[key])
                       if choice > 11 and key in FUZZ_PARAMS else value)
    cfg["params"] = params
    return cfg


# 15 bases x 10 examples
@pytest.mark.parametrize("base", sorted(FUZZ_BASES))
@settings(max_examples=10, derandomize=True, deadline=None)
@given(data=st.data())
def test_config_fuzz_exits_0_2_or_3(base, data):
    cfg = data.draw(fuzzed_configs(FUZZ_BASES[base]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(cfg, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        # numpy's RuntimeWarnings (exp overflowing for a k of negative sum)
        # are recorded, not raised: the console prints them and goes on, and
        # this test checks exit codes, not values
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True):
            warnings.simplefilter("always", RuntimeWarning)
            rc = main([cfg["experiment"], "--config", path, "--out", out])
        event(f"exit {rc}")
        assert rc in (0, 2, 3)
        has_error_json = os.path.exists(os.path.join(out, "error.json"))
        if rc == 0:
            assert err.getvalue() == ""
        else:
            record = json.loads(err.getvalue())
            assert has_error_json == (rc == 3)
            if rc == 2:
                assert record["error"] == "ConfigError"
            else:
                assert record["error"] in EXIT_3_ERRORS, record
