# Interaction energy vs. plain Hamming distance on a toy collection.
#
# The point of this demo: energy couples documents through SHARED
# NEIGHBORS, not only through directly shared words.  Two texts with no
# word in common can still come out close if a third text overlaps both.
# Hamming distance cannot see that.

import numpy as np

from defclust import (
    Document,
    build_matrix,
    energy_distance_vector,
    energy_matrix,
    hamming_distance_vector,
    pair_distance,
)

docs = [
    Document(id="capital", text="madrid capital ciudad grande"),
    Document(id="puente", text="ciudad puente rio antiguo"),
    Document(id="rio", text="rio caudal agua puente"),
    Document(id="flor", text="rosa jardin aroma flor"),
]

matrix = build_matrix(docs)
print("dictionary:", matrix.terms)
print("binary matrix (rows = docs):")
print(matrix.data)
print()

energy = energy_matrix(matrix)
print("interaction energies e_ij = (G G)_ij / 2 with G = X X^T:")
print(energy.values)
print()

# "capital" and "rio" share zero words.  But both overlap "puente"
# (ciudad on one side, rio/puente on the other), so their energy is not
# zero.  Hamming only counts differing vector positions.
inv = energy_distance_vector(energy)
ham = hamming_distance_vector(matrix)

i, j = matrix.doc_ids.index("capital"), matrix.doc_ids.index("rio")
shared = int((matrix.data[i] & matrix.data[j]).sum())
print(f"capital vs rio: {shared} shared words")
print(f"  energy distance (inverted) : {pair_distance(inv, i, j):.4f}")
print(f"  hamming distance           : {pair_distance(ham, i, j):.4f}")
print()

k = matrix.doc_ids.index("flor")
print("capital vs flor: no shared words AND no shared neighbor")
print(f"  energy distance (inverted) : {pair_distance(inv, i, k):.4f}")
print(f"  hamming distance           : {pair_distance(ham, i, k):.4f}")
print()

print("all pairs, side by side:")
print(f"{'pair':24s} {'energy':>8s} {'hamming':>8s}")
n = matrix.n
for a in range(n):
    for b in range(a + 1, n):
        name = f"{matrix.doc_ids[a]} / {matrix.doc_ids[b]}"
        print(
            f"{name:24s} {pair_distance(inv, a, b):8.4f} "
            f"{pair_distance(ham, a, b):8.4f}"
        )
