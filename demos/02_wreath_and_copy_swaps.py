"""Automorphism groups of products: wreath action, its failure, and repair.

The wreath action (permute copies, then permute inside each copy) is always
a subgroup of the product's automorphism group.  It is the whole group
exactly when H is connected (if G has open twins) and the complement of H
is connected (if G has closed twins).  When it falls short, the copy-swap
generators fill the gap.
"""
from lexidis import (
    GeneratorSet,
    closure,
    complete,
    cycle,
    lex_product,
    path,
    sabidussi_equal,
    twin_swap_generators,
    wreath_generators,
)
from lexidis.autosearch import automorphism_group


def aut_gens(g):
    """Strong generators of Aut(g), straight from the search: no element list."""
    return GeneratorSet(g.n, tuple(automorphism_group(g)[1]))


# The classic failure: K2[K2] = K4.  The wreath action has order 2 * 2^2 = 8,
# but Aut(K4) is the full symmetric group of order 24.
k2 = complete(2)
w = closure(wreath_generators(aut_gens(k2), aut_gens(k2)))
print(f"K2[K2]: wreath order {len(w)}, full group {automorphism_group(complete(4))[2]},",
      f"criterion says equal: {sabidussi_equal(k2, k2)}")

# Adding the copy-swap generators (one per closed-twin pair of the base and
# per component of the second factor's complement) recovers everything.
extra = twin_swap_generators(k2, k2)
both = closure(GeneratorSet(4, wreath_generators(aut_gens(k2), aut_gens(k2)).gens + extra.gens))
print(f"with {len(extra.gens)} copy-swap generators: order {len(both)}")

# A case where the wreath action is everything: P3[P3].
p3 = path(3)
w = closure(wreath_generators(aut_gens(p3), aut_gens(p3)))
print(f"P3[P3]: wreath {len(w)} == full {automorphism_group(lex_product(p3, p3))[2]},",
      f"criterion: {sabidussi_equal(p3, p3)}")

# The criterion in both directions across a few factors.
for g, h, name in [
    (k2, cycle(5), "K2[C5]"),   # complement of C5 is connected: equal
    (k2, path(3), "K2[P3]"),    # complement of P3 is not: proper subgroup
    (complete(3), complete(3), "K3[K3]"),
]:
    print(f"{name}: wreath action is the whole group -> {sabidussi_equal(g, h)}")
