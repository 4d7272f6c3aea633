# Sweep the distance threshold from 0.01 to 1.00 and watch the
# precision/recall trade-off move through its zones.
#
# Writes the full per-alpha table to sweep_demo.csv next to this script.

from collections import defaultdict
from pathlib import Path

from defclust import (
    build_dendrogram,
    build_matrix,
    energy_distance_vector,
    energy_matrix,
    run_sweep,
    sweep_to_csv,
    synthetic_definitions,
    synthetic_gold,
    synthetic_tokenizer,
)
from defclust.evaluation import ZONE_NOTE

docs = synthetic_definitions()
matrix = build_matrix(docs, synthetic_tokenizer())
tree = build_dendrogram(energy_distance_vector(energy_matrix(matrix)))
rows = run_sweep(tree, total=len(docs), gold=synthetic_gold())

out = Path(__file__).with_name("sweep_demo.csv")
out.write_text(sweep_to_csv(rows), encoding="utf-8")
print(f"wrote {len(rows)} rows to {out}")
print(ZONE_NOTE)
print()

print(f"{'alpha':>6s} {'groups':>6s} {'precision':>9s} {'recall':>7s}  zone")
for row in rows:
    if round(row.alpha * 100) % 10 == 0 or row.zone == "absolute":
        print(
            f"{row.alpha:6.2f} {row.num_groups:6d} "
            f"{row.precision:9.4f} {row.recall:7.4f}  {row.zone}"
        )
print()

by_zone = defaultdict(list)
for row in rows:
    by_zone[row.zone].append(row)

print("zone summary (averages over the zone's alphas):")
for zone in ("zone1", "zone2", "zone3", "absolute"):
    zrows = by_zone[zone]
    p = sum(r.precision for r in zrows) / len(zrows)
    r = sum(r.recall for r in zrows) / len(zrows)
    print(
        f"  {zone:9s} {len(zrows):3d} alphas   mean precision {p:.4f}   "
        f"mean recall {r:.4f}"
    )
print()
print("the trade is visible: zone 1 keeps groups pure at low coverage,")
print("zone 3 buys recall by letting related senses bleed together.")
