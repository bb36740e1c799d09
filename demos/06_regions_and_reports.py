"""Rate-equivocation regions and the batch report driver.

Builds the achievable region for an AWGN eavesdropper at snr 0.32 with a
rate-1/3 coarse code (time-sharing the two coset constructions) and shows it
sitting inside the capacity-equivocation region; then drives the CLI to emit
the same data as reproducible CSV reports plus the BSC comparison table.
"""

import pathlib
import tempfile

from wiretapcodes import achievable_region, capacity_equivocation_region, cli

snr, r1 = 0.32, 1 / 3
inner = achievable_region(snr, r1)
outer = capacity_equivocation_region(snr)

print(f"achievable region at snr={snr}, coarse rate {r1:.3f}:")
for v in inner.vertices:
    print(f"  (R, Re) = ({v.rate:.4f}, {v.equivocation:.4f})")
print(f"capacity-equivocation region cap: Re <= {outer.vertices[2].equivocation:.4f}")
print(f"achievable inside capacity region: {outer.contains_polygon(inner)}")

with tempfile.TemporaryDirectory(prefix="wiretapcodes_demo_") as tmp:
    out_dir = pathlib.Path(tmp)
    region_csv = out_dir / "region.csv"
    compare_csv = out_dir / "compare_bsc.csv"

    cli.main(["region", "--param", str(snr), "--r1", str(r1), "--out", str(region_csv)])
    cli.main(["compare-bsc", "--grid", "0.05:0.5:10", "--out", str(compare_csv)])

    print(f"\nCLI reports written under {out_dir} (removed on exit)")
    print(f"\n{region_csv.name}:")
    print(region_csv.read_text())
    print(f"{compare_csv.name}:")
    print(compare_csv.read_text())
