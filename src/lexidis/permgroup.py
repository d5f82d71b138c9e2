"""Permutations, finite group closure, and the automorphism generators of
lexicographic products: wreath-product maps plus the copy-swap elements of
twin pairs of the first factor, which appear when the second factor has a
disconnected complement (closed twins) or is itself disconnected (open
twins).  Together they generate Aut(G[H]) on every pair of graphs on at
most 4 vertices whose product group has at most 200 000 elements, the
range the tests check against the search.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Graph, closed_twin_partition, complement, components, is_connected, open_twin_partition
from .lexprod import ProductIndexer

# the default bound on every element listing, `aut --elements` included
DEFAULT_LISTING_CAP = 1_000_000


class CapExceededError(RuntimeError):
    """An enumeration grew past its cap.

    ``reached`` is the element count at the moment the cap tripped, a lower
    bound on the true size.
    """

    def __init__(self, reached: int) -> None:
        super().__init__(f"cap exceeded: at least {reached} elements")
        self.reached = reached


class Perm:
    """Bijection on 0..n-1 stored in one-line notation (image[v] = sigma(v))."""

    __slots__ = ("image",)

    def __init__(self, image: Iterable[int]) -> None:
        img = tuple(image)
        n = len(img)
        if sorted(img) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {img!r}")
        object.__setattr__(self, "image", img)

    @classmethod
    def identity(cls, n: int) -> Perm:
        return cls(range(n))

    @property
    def degree(self) -> int:
        return len(self.image)

    def __call__(self, v: int) -> int:
        return self.image[v]

    def __mul__(self, other: Perm) -> Perm:
        return compose(self, other)

    def inverse(self) -> Perm:
        inv = [0] * len(self.image)
        for v, w in enumerate(self.image):
            inv[w] = v
        return Perm(inv)

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.image))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least element."""
        seen = [False] * len(self.image)
        out = []
        for v in range(len(self.image)):
            if seen[v] or self.image[v] == v:
                seen[v] = True
                continue
            cyc = [v]
            seen[v] = True
            w = self.image[v]
            while w != v:
                cyc.append(w)
                seen[w] = True
                w = self.image[w]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Perm):
            return NotImplemented
        return self.image == other.image

    def __lt__(self, other: Perm) -> bool:
        return self.image < other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        return f"Perm{self.cycle_string()}"

    def __setattr__(self, *_args) -> None:
        raise AttributeError("Perm is immutable")


def identity(n: int) -> Perm:
    return Perm.identity(n)


def compose(p: Perm, q: Perm) -> Perm:
    """Apply q first, then p: compose(p, q)(v) = p(q(v))."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {q.degree}")
    pi = p.image
    return Perm(tuple(pi[w] for w in q.image))


def inverse(p: Perm) -> Perm:
    return p.inverse()


@dataclass(frozen=True)
class GeneratorSet:
    """Finite generating set for a permutation group on 0..degree-1."""

    degree: int
    gens: tuple[Perm, ...]

    def __post_init__(self) -> None:
        for g in self.gens:
            if g.degree != self.degree:
                raise ValueError(f"generator degree {g.degree} != {self.degree}")


def closure(gens: GeneratorSet, cap: int = DEFAULT_LISTING_CAP) -> list[Perm]:
    """All elements of the generated group, by breadth-first multiplication.

    Deterministic: BFS order is fixed by the generator list order, with the
    identity first.  Raises CapExceededError once the element count passes
    ``cap``.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    ident = tuple(range(gens.degree))
    elems: dict[tuple[int, ...], Perm] = {ident: Perm(ident)}
    queue: deque[tuple[int, ...]] = deque([ident])
    gimages = [g.image for g in gens.gens]
    while queue:
        x = queue.popleft()
        for gi in gimages:
            y = tuple(x[w] for w in gi)
            if y not in elems:
                elems[y] = Perm(y)
                if len(elems) > cap:
                    raise CapExceededError(len(elems))
                queue.append(y)
    return list(elems.values())


def generating_subset(elements: Sequence[Perm]) -> list[Perm]:
    """Greedy small generating subset of a group given as an element list."""
    if not elements:
        return []
    degree = elements[0].degree
    gens: list[Perm] = []
    span: set[tuple[int, ...]] = {tuple(range(degree))}
    for e in elements:
        if e.image not in span:
            gens.append(e)
            span = {p.image for p in closure(GeneratorSet(degree, tuple(gens)))}
    return gens


def wreath_perm(alpha: Perm, betas: Sequence[Perm]) -> Perm:
    """Product map (g, h) -> (alpha(g), betas[alpha(g)](h)).

    ``betas`` has one permutation of the second factor per target copy.
    """
    n_g = alpha.degree
    if len(betas) != n_g:
        raise ValueError(f"need {n_g} copy maps, got {len(betas)}")
    n_h = betas[0].degree if betas else 0
    image = [0] * (n_g * n_h)
    for g in range(n_g):
        tg = alpha(g)
        beta = betas[tg]
        if beta.degree != n_h:
            raise ValueError("copy maps must share one degree")
        for h in range(n_h):
            image[g * n_h + h] = tg * n_h + beta(h)
    return Perm(image)


def wreath_generators(aut_g: GeneratorSet, aut_h: GeneratorSet, n_g: int, n_h: int) -> GeneratorSet:
    """Generators of the wreath action of Aut(G) over Aut(H) on G[H]'s vertices.

    Two kinds: (i) each alpha acting on the copy coordinate, and (ii) each
    beta acting inside one copy, identity elsewhere.
    """
    if aut_g.degree != n_g or aut_h.degree != n_h:
        raise ValueError("generator degrees do not match the factor sizes")
    id_h = Perm.identity(n_h)
    gens: list[Perm] = []
    for alpha in aut_g.gens:
        gens.append(wreath_perm(alpha, [id_h] * n_g))
    id_g = Perm.identity(n_g)
    for beta in aut_h.gens:
        for g in range(n_g):
            betas = [id_h] * n_g
            betas[g] = beta
            gens.append(wreath_perm(id_g, betas))
    return GeneratorSet(n_g * n_h, tuple(gens))


def twin_swap_generators(g: Graph, h: Graph) -> GeneratorSet:
    """The product automorphisms from twin pairs of G that the wreath action
    misses.

    For each pair g1, g2 of closed twins (N[g1] = N[g2]) and each connected
    component C of the complement of H, and for each pair of open twins
    (N(g1) = N(g2)) and each component C of H itself: the permutation that
    fixes every (v, h) with h in C and swaps (g1, h) with (g2, h) for h
    outside C.  The open-twin swaps are the closed-twin swaps of the
    complements, since the complement of G[H] is the complement of G
    lexicographically times the complement of H.  A kind is left out when
    its side of H is connected (those maps are the identity).
    """
    n = g.n * h.n
    gens: list[Perm] = []
    idx = ProductIndexer(g.n, h.n)
    for twins, comps in ((closed_twin_partition(g), components(complement(h))),
                         (open_twin_partition(g), components(h))):
        if len(comps) < 2:
            continue
        pairs: list[tuple[int, int]] = []
        for cls in twins:
            for i in range(len(cls)):
                for j in range(i + 1, len(cls)):
                    pairs.append((cls[i], cls[j]))
        for g1, g2 in pairs:
            for comp in comps:
                fixed = set(comp)
                image = list(range(n))
                for hv in range(h.n):
                    if hv in fixed:
                        continue
                    a = idx.encode(g1, hv)
                    b = idx.encode(g2, hv)
                    image[a], image[b] = image[b], image[a]
                gens.append(Perm(image))
    return GeneratorSet(n, tuple(gens))


def sabidussi_equal(g: Graph, h: Graph) -> bool:
    """Whether the product's automorphism group is exactly the wreath action.

    Holds iff H is connected whenever G has a pair of open twins, and the
    complement of H is connected whenever G has a pair of closed twins.
    """
    if not open_twin_partition(g).is_discrete and not is_connected(h):
        return False
    if not closed_twin_partition(g).is_discrete and not is_connected(complement(h)):
        return False
    return True
