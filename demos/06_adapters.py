"""Parameter counts and entanglement of factored adapter updates.

The tensor-factored adapter replaces LoRA's (r, d_in) matrix with two
cores joined by a bond of size chi over the split d_in = d1 * d2.  The
demo prints the trainable-parameter table for the reference 4096x4096
configurations, then checks small updates of both kinds from their
factors and shows they obey the same log2(r) entanglement cap at the
row-column cut.

Run:
  python3 demos/06_adapters.py
"""

import numpy as np

from aent import (
    REFERENCE_ADAPTER_SPECS,
    adapter_count_rows,
    mps_adapter_materialize,
    valley_check,
)


def main() -> None:
    report = adapter_count_rows(REFERENCE_ADAPTER_SPECS)
    print(f"{'kind':>10} {'params':>12} {'vs full':>8}")
    for row in report.tables["counts"]:
        print(f"{row['kind']:>10} {row['params']:>12,} {row['ratio_vs_full']:>8.4f}")

    r, d, d1, d2, chi = 4, 64, 8, 8, 2
    rng = np.random.default_rng(1)
    plain = (rng.standard_normal((d, r)), rng.standard_normal((r, d)))
    factored = (
        rng.standard_normal((d, r)),
        mps_adapter_materialize(rng.standard_normal((r, chi, d1)), rng.standard_normal((chi, 1, d2))),
    )
    print()
    print(f"valley check at the row-column cut, {d}x{d}, r = {r}, from the factors B and A:")
    for name, (b, a) in (("lora", plain), ("mps_adapt", factored)):
        check = valley_check(b, a)
        print(
            f"  {name:>10}: S = {check.s_rowcol:.4f} bits "
            f"<= log2(r) = {check.bound:.0f}  ({'ok' if check.passes else 'VIOLATED'})"
        )


if __name__ == "__main__":
    main()
