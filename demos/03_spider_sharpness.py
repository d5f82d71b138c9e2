"""Vertex labelings of products, and a family meeting the stepwise bound.

The subdivided star with n branches needs ceil(sqrt(n)) labels on its own;
its product with a single edge needs the least r with C(r,2)^2 >= n.  The
stepwise labeling of the product uses at most D(H) + M labels, and at
n = 50 that bound is met exactly: 2 + 3 = 5.
"""
import math

from lexidis import (
    complete,
    distinguishing_number,
    is_distinguishing,
    lex_product,
    min_extra_labels,
    pattern_product_labeling,
    pattern_sequence,
    spider,
    spider_distinguishing_labeling,
    spider_k2_distinguishing_number,
)

# Exact values at desk scale, straight from the search oracle.
for n in range(3, 11):
    d, _ = distinguishing_number(spider(n))
    print(f"D(spider({n})) = {d} = ceil(sqrt({n}))")

# The closed form stays at 3 up to n = 9 and jumps to 4 at n = 10, where
# C(3, 2)^2 = 9 < 10; the oracle meets it on the 42-vertex product.
for n in range(3, 11):
    prod = lex_product(spider(n), complete(2))
    d, _ = distinguishing_number(prod)
    assert d == spider_k2_distinguishing_number(n)
    print(f"D(spider({n})[K2]) = {d}, closed form {spider_k2_distinguishing_number(n)}")

# The closed form scales far beyond the oracle.
print("closed form at n = 50:", spider_k2_distinguishing_number(50))
print("tier budget M for D(G)=8, D(H)=2:", min_extra_labels(8, 2))

# The first few replacement patterns over base labels {1, 2}: identity,
# then single replacements by each new label, then a paired replacement.
for pat in pattern_sequence(2, 6):
    print("  pattern", pat)

# Build and certify the 202-vertex product labeling.
n = 50
g = spider(n)
lg = spider_distinguishing_labeling(n)
assert max(lg) == math.isqrt(n - 1) + 1 == 8
lab = pattern_product_labeling(g, complete(2), lg, [1, 2])
prod = lex_product(g, complete(2))
print(f"product on {prod.n} vertices labeled with {max(lab)} labels;",
      "certified distinguishing:", is_distinguishing(prod, lab))
