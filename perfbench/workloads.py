"""Benchmark workloads: a seeded sales generator and the three workload specs.

The generator is the benchmark's own, so a change to the program's
synthetic data cannot change the benchmark's inputs. The program only
ever sees the CSV it writes.
"""

import datetime
from dataclasses import dataclass

import numpy as np

START_DATE = datetime.date(2015, 1, 1)
PERSISTENCE = 0.85      # AR(1) coefficient of the shared group factor
FACTOR = 8.0            # scale of the shared factor
NOISE = 6.0             # idiosyncratic noise of the base panel
JITTER = 0.5            # seeded noise added on top of the base panel


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stores: int
    items: int
    days: int
    model: str
    filter_method: str
    seeds: tuple
    epochs: int
    jobs: int
    sweep_axis: str | None = None
    sweep_values: tuple = ()
    checkpoints: bool = False

    @property
    def units(self) -> int:
        """(item, seed) units trained per repeat, over all sweep values."""
        return self.items * len(self.seeds) * max(1, len(self.sweep_values))


# Each workload puts a different layer in charge of the wall time, so a
# change to one layer predicts a change on one workload and none on another.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="train-mfcf-gcn",
            why="LSTM training dominates; trains 2 seeds for 5 epochs, checkpoints and "
                "re-evaluates serially as the jobs=1 baseline",
            stores=10, items=1, days=365, model="fsst-gcn", filter_method="mfcf",
            seeds=(0, 1), epochs=5, jobs=1, checkpoints=True,
        ),
        Workload(
            name="glasso-cv-gat",
            why="glasso lambda CV and per-window glasso dominate; training is one short "
                "epoch, so LSTM work should not move it",
            stores=7, items=1, days=180, model="fsst-gat", filter_method="glasso",
            seeds=(0,), epochs=1, jobs=1,
        ),
        Workload(
            name="sweep-graph-kind",
            why="the parent MFCF-filters every window once per sweep value, so graph "
                "caching shows only here; a 2-worker pool trains",
            stores=10, items=2, days=365, model="fsst-gcn", filter_method="mfcf",
            seeds=(0, 1), epochs=1, jobs=2,
            sweep_axis="graph-kind", sweep_values=("correlation", "inverse-correlation"),
        ),
    )
}


def generate_sales(stores: int, items: int, days: int, seed: int) -> np.ndarray:
    """Integer sales of shape (items, stores, days) for one workload seed.

    Per item, stores fall into two groups that share an autocorrelated
    demand factor, on top of a per-store level, weekly pattern and
    noise. That base panel is the same for every seed; the seed adds
    small extra noise. Redrawing the whole panel per seed moves the
    cross-validated glasso penalty between grid points, and with it the
    glasso cost by up to 3x, which no timing bound could absorb. Sales
    stay well above zero, so MAPE has no excluded terms.
    """
    fixed = np.random.Generator(np.random.PCG64(np.random.SeedSequence([0x5A1E5, stores, items])))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([0x5A1E5, seed])))
    weekday = np.array([(START_DATE + datetime.timedelta(days=d)).weekday() for d in range(days)])
    group = np.arange(stores) * 2 // stores
    sales = np.empty((items, stores, days), dtype=np.int64)
    for item in range(items):
        level = fixed.uniform(60.0, 90.0, size=stores)
        loading = fixed.uniform(0.8, 1.2, size=stores)
        weekly = fixed.normal(0.0, 4.0, size=(stores, 7))
        factor = np.empty((2, days))
        factor[:, 0] = fixed.normal(0.0, 1.0, size=2)
        shocks = fixed.normal(0.0, np.sqrt(1.0 - PERSISTENCE ** 2), size=(2, days))
        for t in range(1, days):
            factor[:, t] = PERSISTENCE * factor[:, t - 1] + shocks[:, t]
        noise = fixed.normal(0.0, NOISE, size=(stores, days))
        noise += rng.normal(0.0, JITTER, size=(stores, days))
        demand = (level[:, None] + FACTOR * loading[:, None] * factor[group]
                  + weekly[:, weekday] + noise)
        sales[item] = np.maximum(1, np.rint(demand))
    return sales


def write_csv(path, workload: Workload, seed: int) -> np.ndarray:
    """Write the workload's sales CSV in the program's schema and return
    the sales array it holds."""
    sales = generate_sales(workload.stores, workload.items, workload.days, seed)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("date,store,item,sales\n")
        for day in range(workload.days):
            date = (START_DATE + datetime.timedelta(days=day)).isoformat()
            for store in range(workload.stores):
                for item in range(workload.items):
                    handle.write(f"{date},{store + 1},{item + 1},{sales[item, store, day]}\n")
    return sales
