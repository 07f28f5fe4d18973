"""The four benchmark workloads: how each one's operations are generated.

An operation is one in-process `kgmetric.cli.main(argv)` call. A run repeats
whole rounds of operations; round k of a run with workload seed s draws its
inputs from `random.Random(f"{workload}:{s}:{k}")`, so a seed fixes every
input of the run and the program sees only the generated argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DATA_DIR = "bench/out/data"

# verify battery seeds; each was run on the current code with every check passing
VERIFY_SEEDS = tuple(range(16))

# (mass, kappa, alpha0): open; closed past e^alpha = m, where the spectrum has
# a negative mode and drift is skipped; flat; flat heavy; closed below
# e^alpha = m. Round k runs universe k mod 5 whatever the seed (the seed draws
# the initial states), so runs that fit the same number of reports time the
# same universes; the drift-skipping one comes second, so every run of two or
# more reports takes that branch.
UNIVERSES = (
    (1.0, -1, 0.0),
    (1.0, 1, 0.3),
    (1.0, 0, 0.0),
    (2.0, 0, -0.3),
    (1.0, 1, -0.5),
)

KG_SITES = (64, 128)
KG_FAMILY = (0.0, 0.5, -0.7)
# kg battery seeds; each passes every check at both sizes and all three `a`.
# Seeds come from this checked pool because the 128-site evolution-invariance
# drift sits within a decade of its 1e-10 bound and crosses it on rare seeds
# (1598254737 at a = 0.5 measures 1.08e-10).
KG_SEEDS = tuple(range(40))

SHO_OMEGAS = (0.7, 1.0, 2.5)


@dataclass(frozen=True)
class Op:
    """One report: its argv, its data file, and the earlier operation of the
    same round whose report it must reproduce byte for byte (if any)."""

    subcommand: str
    argv: tuple
    data: str | None = None
    repeat_of: int | None = None


def _num(x: float) -> str:
    return format(x, ".6g")


def verify_round(seed: int, k: int, rng: random.Random) -> list:
    battery_seed = VERIFY_SEEDS[(seed + k) % len(VERIFY_SEEDS)]
    argv = ("verify", "--dim", "8", "--seed", str(battery_seed))
    return [Op("verify", argv), Op("verify", argv, repeat_of=0)]


def wdw_round(seed: int, k: int, rng: random.Random) -> list:
    mass, kappa, alpha0 = UNIVERSES[k % len(UNIVERSES)]
    data = f"{DATA_DIR}/wdw-detail.json"
    argv = (
        "wdw", "--mass", _num(mass), "--kappa", str(kappa), "--alpha0", _num(alpha0),
        "--seed", str(rng.randrange(2**31)), "--out", data,
    )
    return [Op("wdw", argv, data)]


def kg_round(seed: int, k: int, rng: random.Random) -> list:
    a = KG_FAMILY[(seed + k) % len(KG_FAMILY)]
    ops = []
    for sites in KG_SITES:
        data = f"{DATA_DIR}/kg-{sites}-detail.json"
        argv = (
            "kg", "--sites", str(sites), "--a", _num(a),
            "--seed", str(rng.choice(KG_SEEDS)), "--out", data,
        )
        ops.append(Op("kg", argv, data))
    return ops


def sho_round(seed: int, k: int, rng: random.Random) -> list:
    omega = SHO_OMEGAS[(seed + k) % len(SHO_OMEGAS)]
    lplus = rng.uniform(0.5, 2.0)
    lminus = lplus * rng.uniform(-0.9, 0.9)
    lam = rng.uniform(0.25, 4.0)
    data = f"{DATA_DIR}/sho-series.csv"
    argv = (
        "sho", "--steps", "100000", "--t-final", "100", "--omega", _num(omega),
        "--lplus", _num(lplus), "--lminus", _num(lminus), "--lambda", _num(lam),
        "--out", data,
    )
    return [Op("sho", argv, data)]


WORKLOADS = {
    "verify-battery": verify_round,
    "wdw-minisuperspace": wdw_round,
    "kg-lattice": kg_round,
    "sho-series": sho_round,
}


def make_round(workload: str, seed: int, k: int) -> list:
    rng = random.Random(f"{workload}:{seed}:{k}")
    return WORKLOADS[workload](seed, k, rng)
