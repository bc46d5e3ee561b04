"""Seeded experiment lists for the three benchmark workloads.

The seed picks the energy E in [-1, 1] and the frequencies from a fixed list
of quadratic irrationals; every size (grids, orbit lengths, chain counts,
lattice heights) is fixed, so the work per pass does not depend on the seed.
The program sees only the configs written here.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional

import yaml

# Quadratic irrationals: {1, sqrt2, sqrt5, sqrt10} is linearly independent
# over Q, so no choice of distinct components is exactly resonant.
IRRATIONALS = (
    (math.sqrt(5.0) - 1.0) / 2.0,
    math.sqrt(2.0) - 1.0,
    (math.sqrt(13.0) - 3.0) / 2.0,
    math.sqrt(10.0) - 3.0,
)

D1_GRID = 512           # (512, 2, 2) complex stack = 32 KiB: stays in cache
WIDE_GRID = 65536       # (65536, 2, 2) complex stack = 4 MiB: twice a 2 MiB L2
AP_SEED = 1             # fixed, so the per-pass chain-matrix count is exact


@dataclass(frozen=True)
class Experiment:
    """One cocyclelab CLI invocation: subcommand, config and a short label."""

    label: str
    config: dict

    @property
    def subcommand(self) -> str:
        return self.config["experiment"]

    def yaml_text(self) -> str:
        return yaml.safe_dump(self.config, sort_keys=False)


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    experiments: List[Experiment]
    compare_threads: Optional[int] = None   # also run at this count and compare


def _draw(seed: int):
    rng = random.Random(seed)
    E = rng.uniform(-1.0, 1.0)
    order = list(IRRATIONALS)
    rng.shuffle(order)
    return E, order


def _grid(m: int) -> dict:
    return {"kind": "uniform-grid", "points_per_dim": m}


def orbit_long(seed: int) -> Workload:
    E, om = _draw(seed)
    amo3 = {"kind": "amo", "lam": 3.0, "E": E}
    jac = {"kind": "jacobi", "v": {"cos": [1], "amp": 4.0},
           "a": [1.0, {"cos": [1], "amp": 0.5}], "E": E}
    exps = [
        Experiment("le-amo", {
            "experiment": "le", "cocycle": amo3, "frequency": [om[0]],
            "quadrature": _grid(D1_GRID),
            "params": {"N_list": [250, 500, 1000, 2000]}}),
        Experiment("le-jacobi-renorm", {
            "experiment": "le", "cocycle": jac, "frequency": [om[1]],
            "quadrature": _grid(D1_GRID),
            "params": {"N_list": [500, 1000], "renormalized": True}}),
        Experiment("disc-nonresonant", {
            "experiment": "example-discontinuity", "frequency": [om[2]],
            "params": {"k": [1], "N_list": [100, 1000], "M": D1_GRID}}),
        Experiment("disc-resonant", {
            "experiment": "example-discontinuity", "frequency": [0.0],
            "params": {"k": [1], "N_list": [100, 1000], "M": D1_GRID}}),
        Experiment("ladder-liouville-verify", {
            "experiment": "ladder", "cocycle": amo3, "frequency": [0.5],
            "quadrature": _grid(D1_GRID),
            "params": {"kind": "liouville", "N0": 16, "q0": 2, "rho": 1.0,
                       "kappa": 0.5, "C": 2.0, "max_scale": 1024,
                       "verify": {}}}),
    ]
    return Workload("orbit-long", 1, exps)


def orbit_wide(seed: int) -> Workload:
    E, om = _draw(seed)
    amo3 = {"kind": "amo", "lam": 3.0, "E": E}
    exps = [
        Experiment("fourier-amo", {
            "experiment": "fourier", "cocycle": amo3, "frequency": [om[0]],
            "params": {"N": 16, "M": WIDE_GRID, "K0": 1024}}),
        Experiment("ldt-schrodinger-2d", {
            "experiment": "ldt",
            "cocycle": {"kind": "schrodinger",
                        "v": [{"cos": [1, 0], "amp": 2.0}, {"cos": [0, 1]}],
                        "E": E},
            "frequency": [om[1], om[2]],
            "params": {"N": 16, "M": 256,
                       "kappas": [0.01, 0.02, 0.05, 0.1, 0.2, 0.5]}}),
        Experiment("le-amo-wide", {
            "experiment": "le", "cocycle": amo3, "frequency": [om[3]],
            "quadrature": _grid(WIDE_GRID),
            "params": {"N_list": [16, 32]}}),
    ]
    return Workload("orbit-wide", 2, exps, compare_threads=1)


def chains_scans(seed: int) -> Workload:
    _, om = _draw(seed)
    gate = {"kind": "mixed", "N0": 16, "q0": 1, "rho": 0.5, "kappa": 0.5,
            "delta": 1e-12, "omega1": None}
    exps = [
        Experiment("ap-interior", {
            "experiment": "ap", "seed": AP_SEED,
            "params": {"chains": 600, "n_max": 100}}),
        Experiment("ap-variant", {
            "experiment": "ap", "seed": AP_SEED,
            "params": {"chains": 300, "n_max": 100, "variant": True}}),
        Experiment("ladder-induction", {
            "experiment": "ladder",
            "params": {"kind": "induction", "omega1": None,
                       "omega2": [om[0]], "q0": 1, "K0": 2, "delta0": 0.15,
                       "eps0": 0.0, "N0": 16, "rho": 0.95, "c": 0.1}}),
        Experiment("gate-d1", {
            "experiment": "ladder",
            "params": {**gate, "K0": 30_000_000, "omega2": om[:1]}}),
        Experiment("gate-d2", {
            "experiment": "ladder",
            "params": {**gate, "K0": 3000, "omega2": om[:2]}}),
        Experiment("gate-d3", {
            "experiment": "ladder",
            "params": {**gate, "K0": 150, "omega2": om[:3]}}),
    ]
    return Workload("chains-scans", 1, exps)


WORKLOADS = {
    "orbit-long": orbit_long,
    "orbit-wide": orbit_wide,
    "chains-scans": chains_scans,
}


def make(name: str, seed: int) -> Workload:
    try:
        return WORKLOADS[name](seed)
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from "
                         f"{', '.join(WORKLOADS)}") from None
