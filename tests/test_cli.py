import hashlib
import json
import math

import numpy as np
import pytest
import yaml

from cocyclelab._util import csv_text
from cocyclelab.cli import (
    EXPERIMENTS,
    ConfigError,
    build_trigpoly,
    load_config,
    main,
)
from cocyclelab.cocycle import TrigPoly

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
        assert lines[1] == "k1,re,im,abs"
        assert len(lines) == 2 + 256


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
    "monte-carlo-with-points-per-dim": {
        "experiment": "le", "cocycle": AMO, "frequency": [GOLDEN],
        "quadrature": {"kind": "monte-carlo", "points_per_dim": 16},
        "params": {"N_list": [1]}},
    "2d-index-in-1d-matrix": {
        "experiment": "le",
        "cocycle": {"kind": "matrix",
                    "entries": [{"cos": [1, 0]}, -1.0, 1.0, 0.0]},
        "frequency": [GOLDEN], "quadrature": GRID16,
        "params": {"N_list": [1]}},
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_error_exits_2_without_error_json(tmp_path, capsys, case):
    cfg = CONFIG_ERRORS[case]
    rc, out = run_cli(tmp_path, cfg)
    assert rc == 2
    assert not (out / "error.json").exists()
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert record["experiment"] == cfg["experiment"]
    assert len(record["config_sha256"]) == 64


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
                "k1,re,im,abs"),
    "ladder": ({"experiment": "ladder",
                "params": {"kind": "induction", "omega1": None,
                           "omega2": [GOLDEN], "q0": 1, "K0": 2,
                           "delta0": 0.2, "N0": 16, "rho": 0.95}},
               None),
    "cov": ({"experiment": "cov",
             "cocycle": {"kind": "schrodinger",
                         "v": [{"cos": [1, 0]}, {"cos": [0, 1]}], "E": 0.5},
             "frequency": [GOLDEN, 2**0.5 - 1],
             "params": {"B": [[2, 3], [1, 2]], "N": 3, "M": 8}},
            None),
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
