"""Experiment runner: subcommands over a declarative YAML config.

Usage:
    cocyclelab <subcommand> --config experiment.yaml [--out DIR]
                            [--threads N] [--seed S]

The config is a single YAML document; its "experiment" key must match the
subcommand. Each experiment is one entry of _TABLE: its handler, the
top-level blocks it needs and its params schema. EXPERIMENTS, PARAM_SCHEMAS,
SCHEMA's experiment enum and load_config's block checks are read from that
table, and every closed object in the schemas comes from _closed, so a new
experiment is one entry and a new parameter is one property (plus a named
fragment when its constraint repeats). load_config validates the config
against SCHEMA and PARAM_SCHEMAS with validators compiled once at import;
build turns its frequency, cocycle and quadrature blocks into library
objects (an Inputs record); the experiment's handler calls the library and returns a JSON payload and an optional CSV
body. A payload holds result objects as they are: _util.to_json_text writes a
dataclass (or named tuple) as an object of its fields in declaration order,
without the fields declared repr=False. run writes the outputs to --out
as <experiment>.json (always), <experiment>.csv for tabular results, and
<experiment>.svg when "plot: true" and a CSV exists, drawn by the
experiment's plot (column 2 against column 1, or fourier's shell maxima for
d >= 2, deviation.plot_coeffs_csv). Every CSV goes through
_util.csv_text, which formats a block of CSV_BLOCK rows with one % of its
row template: %d for integer cells, %.17g (fmt17) for the rest. Every
output of a q-site jacobi_periodic block (q >= 2) names the unit of its
exponents: "sites_per_block": q in the JSON meta and sites_per_block=q at
the end of the stamp that heads the CSV and comments the SVG.
Every output embeds the sha256 of the config file and the library version;
identical config + seed yields identical bytes regardless of --threads.
--threads N splits each node batch of the orbit-product kernel into N chunks
run on a thread pool, with N capped at the core count and at one worker per
_util.MIN_ROWS_PER_WORKER = 8192 rows: batches under 16384 nodes run on one
thread, which walks them in 4096-node blocks.

Exit codes: 0 success; 2 a config error, written to stderr: a ConfigError
from loading or a handler check, an --out that cannot be written, or a
ValueError or KeyError raised before any output is written (every library
argument comes from the config, so the library's argument checks are config
checks); 3 a CocycleLabError (a failed gate, a guard) or an ArithmeticError,
written to stderr and to <out>/error.json.
"""

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import yaml
from jsonschema import exceptions as schema_errors
from jsonschema.validators import validator_for

from . import __version__
from ._svg import plot_csv_text
from ._util import MIN_ROWS_PER_WORKER, csv_text, set_max_workers, to_json_text
from .avalanche import ap_ensemble, ensemble_to_csv
from .cocycle import (
    Cocycle,
    DiscontinuityExample,
    TrigPoly,
    TrigPolyMatrix,
    amo,
    jacobi_periodic,
    schrodinger,
)
from .deviation import (
    cdt_empirical_many,
    fourier_coeffs,
    l2_uniform_check,
    ldt_empirical,
    lojasiewicz_fit,
    profile,
    shift_drift_empirical,
    coeffs_to_csv,
    plot_coeffs_csv,
)
from .errors import CocycleLabError, NotUnimodular
from .lyapunov import (
    # not called here; perfbench/tracer.py wraps these bindings by name
    L_N_renormalized,
    L_prime_N,
    QuadratureSpec,
    finite_scale_modulus,
    le_extrapolate,
    le_table,
    le_table_to_csv,
)
from .multiscale import (
    cov_invariance_check,
    induction_schedule,
    ladder_verify,
    liouville_ladder,
    mixed_gate,
)
from .torus import Automorphism, Frequency, frequency_multiple


class ConfigError(Exception):
    """The config failed to load, validate or build; maps to exit code 2."""

    def __init__(self, message: str, digest: Optional[str] = None):
        super().__init__(message)
        self.digest = digest


# ---------------------------------------------------------------------------
# Config schema: one builder for every closed object, one fragment for every
# repeated constraint. The dicts, key order included, are what best_match
# iterates over, so they fix which error a config reports.
# ---------------------------------------------------------------------------

def _closed(*required: str, **properties: dict) -> dict:
    """A closed object: the given properties in order, the required ones
    listed when there are any, and no other key."""
    schema = {"type": "object"}
    if required:
        schema["required"] = list(required)
    schema["properties"] = properties
    schema["additionalProperties"] = False
    return schema


_NUM = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}
_GRID_SIZE = {"type": "integer", "minimum": 2}  # points per axis, M
_BOOL = {"type": "boolean"}
_NUMS = {"type": "array", "items": _NUM, "minItems": 1}
_NULLABLE_FREQ = {"anyOf": [{"type": "null"}, _NUMS]}
_INTS = {"type": "array", "items": {"type": "integer"}}
_NONEMPTY_INTS = {**_INTS, "minItems": 1}
_POS_INTS = {"type": "array", "items": _POS_INT, "minItems": 1}

_TRIGPOLY = {"$ref": "#/$defs/trigpoly"}
_TRIGPOLY_DEFS = {
    "trigpoly": {
        "anyOf": [
            _NUM,
            {"type": "array", "items": _TRIGPOLY},
            _closed(const=_NUM, cos=_INTS, sin=_INTS, amp=_NUM,
                    coeffs={"type": "array",
                            "items": _closed("k", k=_INTS, re=_NUM,
                                             im=_NUM)}),
        ]
    }
}


# ---------------------------------------------------------------------------
# Config interpretation
# ---------------------------------------------------------------------------

# libyaml's parser where PyYAML was built with it: the same documents and
# values, several times faster; its syntax errors give line and column
# without the pure-Python parser's source snippet
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: str) -> tuple:
    """Read and validate a config file: returns (dict, sha256 hex)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    digest = hashlib.sha256(raw).hexdigest()
    try:
        cfg = yaml.load(raw, Loader=_YAML_LOADER)
    except yaml.YAMLError as e:
        raise ConfigError(f"config is not valid YAML: {e}", digest) from e
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping", digest)
    # best_match picks the error jsonschema.validate would raise
    e = schema_errors.best_match(_VALIDATOR.iter_errors(cfg))
    name = cfg.get("experiment")
    if e is None:
        e = schema_errors.best_match(
            _PARAM_VALIDATORS[name].iter_errors(cfg.get("params", {})))
    if e is not None:
        loc = "/".join(str(p) for p in e.absolute_path) or "<root>"
        raise ConfigError(f"config schema violation at {loc}: {e.message}",
                          digest) from e
    for block in _TABLE[name].needs:
        if block not in cfg:
            raise ConfigError(f"experiment {name} requires a {block} block",
                              digest)
    return cfg, digest


def build_trigpoly(spec, d: int) -> TrigPoly:
    """Interpret a trig-polynomial spec: number, sum list, or keyword form."""
    if isinstance(spec, (int, float)):
        return TrigPoly.constant(d, float(spec))
    if isinstance(spec, list):
        out = TrigPoly.constant(d, 0.0)
        for part in spec:
            out = out + build_trigpoly(part, d)
        return out
    if isinstance(spec, dict):
        amp = float(spec.get("amp", 1.0))
        if "const" in spec:
            return TrigPoly.constant(d, float(spec["const"]))
        if "cos" in spec:
            return TrigPoly.cosine(tuple(spec["cos"]), amp)
        if "sin" in spec:
            return TrigPoly.sine(tuple(spec["sin"]), amp)
        if "coeffs" in spec:
            coeffs = {tuple(int(v) for v in c["k"]):
                      complex(c.get("re", 0.0), c.get("im", 0.0))
                      for c in spec["coeffs"]}
            return TrigPoly(d, coeffs)
    raise ValueError(f"unrecognized trig polynomial spec: {spec!r}")


def build_cocycle(spec: dict, omega: Frequency) -> Cocycle:
    """Interpret a cocycle block over the frequency omega."""
    kind = spec["kind"]
    d = omega.d
    rho = float(spec.get("rho", 0.5))
    if kind == "constant":
        a, b = spec["diag"]
        A = TrigPolyMatrix.constant(d, [[a, 0.0], [0.0, b]], rho=rho)
    elif kind == "schrodinger":
        A = schrodinger(build_trigpoly(spec["v"], d), float(spec["E"]),
                        rho=rho, d=d)
    elif kind == "amo":
        A = amo(float(spec["lam"]), float(spec["E"]), rho=rho)
    elif kind in ("jacobi", "jacobi_periodic"):
        # jacobi is one site on a zero background; its v_per is ignored
        v_per = ([0.0] if kind == "jacobi"
                 else [float(v) for v in spec["v_per"]])
        A = jacobi_periodic(build_trigpoly(spec.get("v", 0.0), d),
                            build_trigpoly(spec["a"], d), v_per,
                            float(spec["E"]), omega, rho=rho)
        # A spans q sites, so the next block starts q omega further on
        omega = frequency_multiple(omega, len(v_per))
    elif kind == "discontinuity":
        A = DiscontinuityExample(tuple(spec["k"]))
    else:  # "matrix"; the schema admits no other kind
        A = TrigPolyMatrix(*(build_trigpoly(s, d) for s in spec["entries"]),
                           rho=rho)
    return Cocycle(A, omega)


def _frequency(vals) -> Optional[Frequency]:
    return None if vals is None else Frequency(vals)


@dataclass(frozen=True)
class Inputs:
    """Library objects built from a config; None where a block is absent."""

    p: dict
    seed: int
    omega: Optional[Frequency]
    C: Optional[Cocycle]
    quad: Optional[QuadratureSpec]
    sites: int  # lattice sites one step of C spans: q for jacobi_periodic


def build(cfg: dict, seed: int) -> Inputs:
    """Build stage: turn every block present into its library object."""
    omega = _frequency(cfg.get("frequency"))
    spec = cfg.get("cocycle")
    C, sites = None, 1
    if spec is not None and omega is not None:
        C = build_cocycle(spec, omega)
        if spec["kind"] == "jacobi_periodic":
            sites = len(spec["v_per"])
    q = cfg.get("quadrature")
    quad = None if q is None else QuadratureSpec(
        **{"kind": "uniform-grid", **q}, seed=seed)
    return Inputs(cfg.get("params", {}), seed, omega, C, quad, sites)


# ---------------------------------------------------------------------------
# Experiment handlers: each returns (payload dict, csv text or None)
# ---------------------------------------------------------------------------

def _fractions_csv(estimates) -> str:
    return csv_text(("threshold", "measured_fraction"),
                    ((e.threshold, e.measured_fraction) for e in estimates))


def _run_le(inp: Inputs):
    renormalized = bool(inp.p.get("renormalized", False))
    table = le_table(inp.C, [int(N) for N in inp.p["N_list"]], inp.quad,
                     renormalized=renormalized)
    payload = {"renormalized": renormalized, "rows": table}
    return payload, le_table_to_csv(table)


def _run_le_limit(inp: Inputs):
    res = le_extrapolate(inp.C, inp.p["schedule"], inp.quad)
    payload = {"limit": res.limit, "increments": list(res.increments),
               "rows": res.table}
    return payload, le_table_to_csv(res.table)


def _run_continuity(inp: Inputs):
    p, A = inp.p, inp.C.A
    if not isinstance(A, TrigPolyMatrix):
        raise ConfigError("continuity needs a trig-polynomial cocycle")
    i, j = p.get("entry", [0, 0])
    k = tuple(p.get("k", [0] * A.d))
    perturbed = []
    for amp in p["amplitudes"]:
        bumped = list(A.entries)
        bumped[2 * i + j] = bumped[2 * i + j] + TrigPoly(A.d, {k: float(amp)})
        perturbed.append(TrigPolyMatrix(*bumped, rho=A.rho))
    table = finite_scale_modulus(inp.C, int(p["N"]), perturbed, inp.quad)
    # the envelope runs over the rows in this order, ties included
    rows = ((r.delta, r.diff, e.diff) for r, e in
            zip(sorted(table.rows, key=lambda r: r.delta), table.envelope))
    payload = {"N": table.N, "entry": [i, j], "k": list(k),
               "rows": table.rows, "envelope": table.envelope}
    return payload, csv_text(("delta", "diff", "envelope"), rows)


def _run_ap(inp: Inputs):
    p = inp.p
    payload = {"chains": int(p["chains"]), "mu": float(p.get("mu", 1e3)),
               "n_max": int(p.get("n_max", 100)),
               "variant": bool(p.get("variant", False))}
    res = ap_ensemble(seed=inp.seed, **payload)
    payload.update(worst_ratio=res.worst_ratio, all_within=res.all_within)
    return payload, ensemble_to_csv(res.reports)


def _run_ldt(inp: Inputs):
    p = inp.p
    M = int(p["M"])
    prof = profile(inp.C, int(p["N"]), M,
                   renormalize_first=bool(p.get("renormalize_first", True)))
    ests = [ldt_empirical(prof, float(k)) for k in p["kappas"]]
    payload = {"N": int(p["N"]), "M": M, "mean": prof.mean,
               "excised_mass": prof.excised_mass,
               "estimates": ests}
    return payload, _fractions_csv(ests)


def _run_cdt(inp: Inputs):
    p = inp.p
    M = int(p["M"])
    ests = cdt_empirical_many(inp.C, int(p["N"]),
                              [[float(v) for v in a] for a in p["shifts"]],
                              float(p["kappa"]), M,
                              C_const=float(p.get("C", 1.0)),
                              renormalize_first=bool(
                                  p.get("renormalize_first", True)))
    rows = ((e.parameters["a_norm"], e.measured_fraction, e.threshold,
             e.predicted_bound) for e in ests)
    payload = {"N": int(p["N"]), "M": M, "kappa": float(p["kappa"]),
               "estimates": ests}
    return payload, csv_text(("a_norm", "measured_fraction", "threshold",
                              "predicted_bound"), rows)


def _run_drift(inp: Inputs):
    p = inp.p
    est = shift_drift_empirical(inp.C, int(p["N"]), float(p["a_exponent"]),
                                int(p["M"]), C_const=float(p.get("C", 10.0)),
                                renormalize_first=bool(
                                    p.get("renormalize_first", True)))
    return {"estimate": est}, None


def _run_loja(inp: Inputs):
    p = inp.p
    M = int(p["M"])
    g = build_trigpoly(p["g"], int(p.get("d", 1)))
    fit = lojasiewicz_fit(g, [float(t) for t in p["t_grid"]], M)
    payload = {"S": fit.S, "b": fit.b, "M": M,
               "estimates": fit.estimates}
    return payload, _fractions_csv(fit.estimates)


def _run_l2(inp: Inputs):
    p = inp.p
    rep = l2_uniform_check(inp.C, [int(n) for n in p["N_list"]],
                           int(p["M"]),
                           renormalize_first=bool(
                               p.get("renormalize_first", True)))
    payload = {"rows": [{"N": n, "rms": rms, "excised_mass": ex}
                        for n, rms, ex in rep.rows],
               "det_rms": rep.det_rms, "ratio": rep.ratio,
               "growth_flagged": rep.growth_flagged}
    return payload, csv_text(("N", "rms", "excised_mass"), rep.rows)


def _run_fourier(inp: Inputs):
    p = inp.p
    M, K0 = int(p["M"]), int(p["K0"])
    if K0 >= M // 2:
        raise ConfigError(f"params.K0 = {K0} is not below M/2 = {M // 2}")
    prof = profile(inp.C, int(p["N"]), M,
                   renormalize_first=bool(p.get("renormalize_first", True)))
    rep = fourier_coeffs(prof, K0)
    payload = {"N": int(p["N"]), "M": rep.M, "K0": rep.K0,
               "clip_level": rep.clip_level, "clipped_count": rep.clipped_count,
               "k0_coeff": rep.k0_coeff, "parseval_lhs": rep.parseval_lhs,
               "parseval_rhs": rep.parseval_rhs,
               "tail_energy_times_K0": rep.tail_energy_times_K0,
               "max_k_weighted": rep.max_k_weighted}
    return payload, coeffs_to_csv(rep)


def _run_ladder(inp: Inputs):
    p = inp.p
    kind = p["kind"]
    if kind == "mixed" and "verify" in p:
        raise ConfigError("mixed produces a gate report, not a ladder; "
                          "verify is not applicable")
    if kind == "liouville" and inp.omega is None:
        raise ConfigError("liouville ladder requires a frequency block")
    if "verify" in p and inp.C is None:
        raise ConfigError("verify requires cocycle and frequency blocks")
    omega1, omega2 = _frequency(p.get("omega1")), _frequency(p.get("omega2"))
    if kind == "mixed":
        gate = mixed_gate(int(p["N0"]), int(p["q0"]), int(p["K0"]),
                          omega1, omega2,
                          rho=float(p["rho"]), kappa=float(p["kappa"]),
                          delta=float(p["delta"]),
                          C=float(p.get("C", 10.0)), c=p.get("c"))
        return {"gate": gate}, None
    if kind == "liouville":
        ladder = liouville_ladder(int(p["N0"]), int(p["q0"]), inp.omega,
                                  rho=float(p["rho"]), kappa=float(p["kappa"]),
                                  C=float(p.get("C", 10.0)),
                                  max_scale=p.get("max_scale"))
    else:
        ladder = induction_schedule(omega1, omega2,
                                    q0=int(p["q0"]), K0=int(p["K0"]),
                                    delta0=float(p["delta0"]),
                                    eps0=float(p.get("eps0", 0.0)),
                                    N0=int(p["N0"]), rho=float(p["rho"]),
                                    c=float(p.get("c", 0.1)))
    payload = {"ladder": ladder}
    if "verify" in p:
        v = ladder_verify(inp.C, ladder, quad=inp.quad,
                          C_prime=float(p["verify"].get("C_prime", 10.0)),
                          renormalized=bool(
                              p["verify"].get("renormalized", False)))
        payload["verification"] = v
    return payload, None


def _run_cov(inp: Inputs):
    p = inp.p
    M = int(p["M"])
    try:
        B = Automorphism.from_entries(p["B"])
    except NotUnimodular as e:
        raise ConfigError(f"params.B: {e}") from e
    diff = cov_invariance_check(inp.C, B, N=int(p["N"]), M=M)
    return {"B": [list(row) for row in p["B"]], "N": int(p["N"]),
            "M": M, "difference": diff}, None


def _run_example_discontinuity(inp: Inputs):
    p, omega = inp.p, inp.omega
    k = tuple(int(v) for v in p["k"])
    C = Cocycle(DiscontinuityExample(k), omega)
    M = int(p.get("M", 4096))
    quad = QuadratureSpec(kind="uniform-grid", points_per_dim=M)
    ests = le_table(C, [int(N) for N in p.get("N_list", [1, 10, 100])], quad)
    rows = [{"N": e.N, "value": e.value} for e in ests]
    dot = sum(ki * wi for ki, wi in zip(k, omega.components))
    resonant = abs(dot - round(dot)) < 1e-12
    reference = (2.0 / math.pi) * math.exp(-2.0 * math.pi * sum(k))
    payload = {"k": list(k), "omega": list(omega.components), "M": M,
               "resonant": resonant, "resonant_reference": reference,
               "rows": rows}
    return payload, csv_text(("N", "value"), ((e.N, e.value) for e in ests))


# ---------------------------------------------------------------------------
# The experiments: one entry each
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Experiment:
    """A subcommand: its handler, the top-level blocks it cannot run without
    (load_config checks them in this order) and its params schema."""

    run: Callable[[Inputs], tuple]
    needs: Tuple[str, ...]
    params: dict
    # the SVG of its CSV body, for plot: true
    plot: Callable[..., str] = plot_csv_text


_ORBIT = ("cocycle", "frequency")  # every experiment that iterates a cocycle

_TABLE: Dict[str, _Experiment] = {
    "le": _Experiment(_run_le, _ORBIT, _closed(
        "N_list", N_list=_POS_INTS, renormalized=_BOOL)),
    "le-limit": _Experiment(_run_le_limit, _ORBIT, _closed(
        "schedule", schedule=_POS_INTS)),
    "continuity": _Experiment(_run_continuity, _ORBIT, _closed(
        "N", "amplitudes", N=_POS_INT, amplitudes=_NUMS,
        entry={"type": "array",
               "items": {"type": "integer", "minimum": 0, "maximum": 1},
               "minItems": 2, "maxItems": 2},
        k=_INTS)),
    "ap": _Experiment(_run_ap, (), _closed(
        "chains", chains=_POS_INT,
        mu={"type": "number", "exclusiveMinimum": 1},
        n_max={"type": "integer", "minimum": 3}, variant=_BOOL)),
    "ldt": _Experiment(_run_ldt, _ORBIT, _closed(
        "N", "M", "kappas", N=_POS_INT, M=_GRID_SIZE, kappas=_NUMS,
        renormalize_first=_BOOL)),
    "cdt": _Experiment(_run_cdt, _ORBIT, _closed(
        "N", "M", "kappa", "shifts", N=_POS_INT, M=_GRID_SIZE,
        kappa=_POSITIVE, shifts={"type": "array", "items": _NUMS,
                                 "minItems": 1},
        C=_POSITIVE, renormalize_first=_BOOL)),
    "drift": _Experiment(_run_drift, _ORBIT, _closed(
        "N", "M", "a_exponent", N=_POS_INT, M=_GRID_SIZE,
        a_exponent={**_POSITIVE, "exclusiveMaximum": 1}, C=_POSITIVE,
        renormalize_first=_BOOL)),
    "loja": _Experiment(_run_loja, (), _closed(
        "g", "t_grid", "M", g=_TRIGPOLY, d=_POS_INT, t_grid=_NUMS,
        M=_GRID_SIZE)),
    "l2": _Experiment(_run_l2, _ORBIT, _closed(
        "N_list", "M", N_list=_POS_INTS, M=_GRID_SIZE,
        renormalize_first=_BOOL)),
    "fourier": _Experiment(_run_fourier, _ORBIT, _closed(
        "N", "M", "K0", N=_POS_INT, M={"type": "integer", "minimum": 4},
        K0=_POS_INT, renormalize_first=_BOOL), plot=plot_coeffs_csv),
    "ladder": _Experiment(_run_ladder, (), _closed(
        "kind", kind={"enum": ["liouville", "mixed", "induction"]},
        N0=_POS_INT, q0=_POS_INT, K0=_POS_INT, rho=_POSITIVE, kappa=_NUM,
        C=_POSITIVE, c=_POSITIVE, max_scale=_POSITIVE, delta=_POSITIVE,
        delta0=_POSITIVE, eps0={"type": "number", "minimum": 0},
        omega1=_NULLABLE_FREQ, omega2=_NULLABLE_FREQ,
        verify=_closed(C_prime=_POSITIVE, renormalized=_BOOL))),
    "cov": _Experiment(_run_cov, _ORBIT, _closed(
        "B", "N", "M",
        B={"type": "array", "items": _NONEMPTY_INTS, "minItems": 1},
        N=_POS_INT, M=_GRID_SIZE)),
    "example-discontinuity": _Experiment(
        _run_example_discontinuity, ("frequency",), _closed(
            "k", k=_NONEMPTY_INTS, N_list=_POS_INTS, M=_GRID_SIZE)),
}

EXPERIMENTS = tuple(_TABLE)
PARAM_SCHEMAS: Dict[str, dict] = {name: e.params for name, e in _TABLE.items()}

SCHEMA = {
    "$defs": _TRIGPOLY_DEFS,
    **_closed(
        "experiment", experiment={"enum": list(EXPERIMENTS)},
        seed={"type": "integer", "minimum": 0}, threads=_POS_INT, plot=_BOOL,
        frequency=_NUMS,
        cocycle=_closed(
            "kind",
            kind={"enum": ["constant", "schrodinger", "amo", "jacobi",
                           "jacobi_periodic", "discontinuity", "matrix"]},
            rho=_POSITIVE,
            diag={"type": "array", "items": _NUM, "minItems": 2,
                  "maxItems": 2},
            v=_TRIGPOLY, a=_TRIGPOLY, E=_NUM, lam=_NUM, v_per=_NUMS,
            k=_NONEMPTY_INTS,
            entries={"type": "array", "items": _TRIGPOLY, "minItems": 4,
                     "maxItems": 4}),
        quadrature=_closed(
            kind={"enum": ["uniform-grid", "low-discrepancy",
                           "monte-carlo"]},
            points_per_dim=_POS_INT, total_points=_POS_INT),
        params={"type": "object"}),
}


def _compile(schema: dict):
    """A validator for schema, built once. The schemas are fixed, so they are
    checked against the metaschema by the tests, not on every load."""
    return validator_for(schema)(schema)


_VALIDATOR = _compile(SCHEMA)
_PARAM_VALIDATORS = {name: _compile({**schema, "$defs": _TRIGPOLY_DEFS})
                     for name, schema in PARAM_SCHEMAS.items()}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _write(path: str, *texts: str) -> None:
    """Write texts to path one after another, with no joined copy."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for text in texts:
            fh.write(text)
    print(path)


def _error_record(exc: Exception, name: Optional[str],
                  digest: Optional[str]) -> str:
    return to_json_text({"error": type(exc).__name__, "message": str(exc),
                         "experiment": name, "config_sha256": digest})


def run(name: str, cfg: dict, digest: str, out_dir: str, seed: int) -> None:
    """Execute one experiment and write its outputs into out_dir.

    Every library argument comes from the config, so a ValueError or KeyError
    raised before an output is written is a ConfigError.
    """
    meta = {"cocyclelab": __version__, "config_sha256": digest,
            "experiment": name, "seed": seed}
    stamp = f"cocyclelab={__version__} config_sha256={digest}"
    try:
        inp = build(cfg, seed)
        if inp.sites >= 2:
            # a q-site block's exponents are q times the per-site ones
            meta["sites_per_block"] = inp.sites
            stamp += f" sites_per_block={inp.sites}"
        payload, csv_body = _TABLE[name].run(inp)
        texts = {".json": (to_json_text({**meta, **payload}),)}
        if csv_body is not None:
            texts[".csv"] = (f"# {stamp}\n", csv_body)
            if cfg.get("plot", False):
                texts[".svg"] = (_TABLE[name].plot(csv_body, title=name,
                                                   comment=stamp),)
    except (ValueError, KeyError) as e:
        message = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        raise ConfigError(message, digest) from e
    try:
        os.makedirs(out_dir, exist_ok=True)
        for suffix, pieces in texts.items():
            _write(os.path.join(out_dir, name + suffix), *pieces)
    except OSError as e:
        raise ConfigError(f"cannot write --out {out_dir}: {e}", digest) from e


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cocyclelab",
        description="Deterministic experiment runner for 2x2 quasiperiodic "
                    "cocycles.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=".")
        sp.add_argument("--threads", type=int, default=None, help=(
            "worker threads per node batch (default: config threads, else 1), "
            f"at most the core count and one per {MIN_ROWS_PER_WORKER} nodes"))
        sp.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    digest: Optional[str] = None
    try:
        cfg, digest = load_config(args.config)
        if cfg["experiment"] != args.experiment:
            raise ConfigError(
                f"config is for experiment {cfg['experiment']!r} but the "
                f"subcommand is {args.experiment!r}", digest)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        set_max_workers(args.threads if args.threads is not None
                        else int(cfg.get("threads", 1)))
        run(args.experiment, cfg, digest, args.out, seed)
    except ConfigError as e:
        sys.stderr.write(_error_record(e, args.experiment, e.digest or digest))
        return 2
    except (CocycleLabError, ArithmeticError) as e:
        record = _error_record(e, args.experiment, digest)
        sys.stderr.write(record)
        try:
            os.makedirs(args.out, exist_ok=True)
            _write(os.path.join(args.out, "error.json"), record)
        except OSError:
            pass
        return 3
    finally:
        set_max_workers(1)
    return 0

if __name__ == "__main__":
    sys.exit(main())
