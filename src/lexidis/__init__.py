"""Distinguishing numbers and indices of lexicographic graph products.

A small exact-combinatorics toolkit: graph families and products, wreath
and copy-swap automorphism generators, a color-preserving automorphism
search on a ``Graph`` and a coloring, exact distinguishing oracles by
minimal-d search over labelings refuted by that search, and certified
constructive labelings.
"""

from .graph import (
    Graph,
    closed_twin_partition,
    complement,
    components,
    complete,
    cycle,
    is_connected,
    open_twin_partition,
    path,
    spider,
    star,
)
from .lexprod import ProductSizeError, lex_power, lex_product, product_degree
from .permgroup import (
    CapExceededError,
    GeneratorSet,
    Perm,
    closure,
    compose,
    generating_subset,
    sabidussi_equal,
    twin_swap_generators,
    wreath_generators,
    wreath_perm,
)
from .autosearch import (
    SearchStats,
    enumerate_automorphisms,
    find_preserving,
    find_preserving_edges,
    is_color_preserving_automorphism,
    preserves_edge_labels,
)
from .distinguishing import (
    distinguishing_index,
    distinguishing_number,
    is_distinguishing,
    is_distinguishing_edges,
)
from .constructions import (
    block_product_labeling,
    bundle_label_budget,
    bundle_sequence,
    bundle_tier_capacity,
    bundle_tier_tuples,
    inherited_edge_labeling,
    k2_product_edge_labeling,
    min_extra_labels,
    p2_product_edge_labeling,
    path_product_edge_labeling,
    pattern_product_labeling,
    pattern_sequence,
    power_distinguishing_bounds,
    power_edge_labeling,
    spider_distinguishing_labeling,
    spider_k2_distinguishing_number,
    star_product_edge_labeling,
    tier_pattern_count,
    tier_patterns,
    two_label_edge_labeling,
)

__version__ = "0.1.0"
