"""The entanglement valley of low-rank weight updates.

A rank-r update B A can carry at most log2(r) bits across the
row-column cut of its tensorization, no matter how large the matrix.
Interior cuts see the Gaussian factors themselves and stay near the
Page value, so the profile dips at the matrix split: a valley whose
floor is set by the adapter rank alone.

Run:
  python3 demos/02_entanglement_valley.py
"""

import numpy as np

from aent import valley_check, valley_experiment

D = 64
RANKS = (1, 2, 4, 8, 16)


def main() -> None:
    print(f"rank sweep on {D}x{D} Gaussian updates, 20 seeds each")
    print()
    report = valley_experiment(d_out=D, d_in=D, ranks=RANKS, seeds=20)
    print(f"{'r':>3} {'log2 r':>7} {'S rowcol':>9} {'S interior':>11} {'bound ok':>9}")
    for row in report.tables["summary"]:
        print(
            f"{row['rank']:>3} {row['bound']:>7.2f} {row['mean_rowcol']:>9.4f} "
            f"{row['mean_interior']:>11.4f} {row['pass_rate']:>9.0%}"
        )
    print()
    print("(interior mean is nan at r = 16: the interior window sits past")
    print(" cut log2(r) + 2, which leaves no cuts on a 64x64 matrix)")

    print()
    print("one full profile at r = 4 (row-column cut is cut 6):")
    rng = np.random.default_rng(0)
    check = valley_check(rng.standard_normal((D, 4)), rng.standard_normal((4, D)))
    for cut, entropy in enumerate(check.entropies, start=1):
        marker = " <- valley floor, bound log2(4) = 2" if cut == 6 else ""
        print(f"  cut {cut:>2}  S = {entropy:6.4f} bits{marker}")
    print()
    print(f"row-column entropy {check.s_rowcol:.4f} <= bound {check.bound:.1f}: {check.passes}")


if __name__ == "__main__":
    main()
