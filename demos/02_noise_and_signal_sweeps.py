"""Reproduce the shapes of the evaluation figures as CSV tables.

Two sweeps are computed with the test size optimized at every point:

  * rate versus the X-error rate Q at 1e7 signals, for symmetric noise
    (every party's Z rate equals Q) and for asymmetric noise (first
    party at Q, the others at Q/4);
  * rate versus the total signal count for the asymmetric configuration,
    showing the finite threshold where the rate first turns positive.

Tables are written as sweep_q.csv and sweep_n.csv to the current
directory; any plotting tool can consume them.  The same tables are
available from the command line via `qcka-cad sweep-q` and
`qcka-cad sweep-n`.
"""

import csv
import pathlib

import numpy as np

from qcka_cad import NoiseModel, optimize_m

EPSILON = 1e-36
SIGNALS = 10**7


def sweep_q(path):
    rows = []
    for q in np.arange(0.0, 0.1601, 0.01):
        q = float(q)
        for label, z in (
            ("symmetric", (q, q)),
            ("asymmetric", (q, q / 4.0)),
        ):
            m_star, report = optimize_m(2, SIGNALS // 2, EPSILON, NoiseModel(q, z))
            rows.append({"scenario": label, "q": q, "qz": ",".join(f"{v:g}" for v in z),
                         "m": m_star, "rate": report.rate})
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["scenario", "q", "qz", "m", "rate"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path}")
    for label in ("symmetric", "asymmetric"):
        cutoff = next((r["q"] for r in rows if r["scenario"] == label and r["rate"] == 0.0), None)
        print(f"  {label:10s}: rate reaches zero at Q = {cutoff}")


def sweep_n(path):
    noise = NoiseModel(0.1, (0.1, 0.025))
    rows = []
    for total in np.geomspace(1e5, SIGNALS, num=17):
        half = int(round(total / 2))
        m_star, report = optimize_m(2, half, EPSILON, noise)
        rows.append({"signals": 2 * half, "m": m_star, "rate": report.rate})
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["signals", "m", "rate"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path}")
    threshold = next((r["signals"] for r in rows if r["rate"] > 0.0), None)
    print(f"  asymmetric Q=10%: first positive rate at {threshold:,} signals")


def main():
    sweep_q(pathlib.Path("sweep_q.csv"))
    sweep_n(pathlib.Path("sweep_n.csv"))


if __name__ == "__main__":
    main()
