"""Constructions and invariants for permutation groups.

Everything here works through stabilizer chains and normal closures, never
through multiplication tables, so results can be cross-checked against the
table layer. Groups are immutable; each operation returns a fresh PermGroup.

Conventions: products apply the left factor first, and the commutator is
[a, b] = a^-1 b^-1 a b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .arith import exact_log, is_prime, prime_power_root
from .errors import CapExceeded, NotNormal, PgfError
from .group import PermGroup, StabilizerChain
from .perm import Perm, commutator

DEFAULT_DEGREE_CAP = 4096
DEFAULT_INDEX_CAP = 4096


def group_prime(g: PermGroup) -> int:
    """The prime l for a group of order l**k (k >= 1)."""
    l = prime_power_root(g.order)
    if l is None:
        raise PgfError(f"order {g.order} is not a prime power")
    return l


# ----- constructions ---------------------------------------------------------


def cyclic_group(l: int, k: int) -> PermGroup:
    """Cyclic group of order l**k as a single cycle."""
    if not is_prime(l):
        raise ValueError(f"{l} is not prime")
    if k < 1:
        raise ValueError("exponent must be >= 1")
    n = l**k
    gen = Perm.from_cycles(n, [tuple(range(1, n + 1))])
    return PermGroup([gen], degree=n, order_hint=n)


def direct_product(a: PermGroup, b: PermGroup) -> PermGroup:
    """Direct product acting on the disjoint union of the two point sets."""
    da, db = a.degree, b.degree
    gens = []
    for p in a.generators:
        gens.append(Perm(tuple(p.images) + tuple(range(da + 1, da + db + 1))))
    for p in b.generators:
        gens.append(Perm(tuple(range(1, da + 1)) + tuple(x + da for x in p.images)))
    return PermGroup(gens, degree=da + db, order_hint=a.order * b.order)


def wreath_regular(
    inner: PermGroup, outer: PermGroup, degree_cap: int = DEFAULT_DEGREE_CAP
) -> PermGroup:
    """Regular wreath product inner wr outer.

    The outer group permutes |outer| blocks by its right regular action;
    each block carries a copy of inner's point set. Generators are inner's
    generators acting on the block of the identity coset plus outer's
    generators permuting whole blocks, which together generate the full
    product of order |inner| ** |outer| * |outer|.
    """
    d, m = inner.degree, outer.order
    degree = d * m
    if degree > degree_cap:
        raise CapExceeded(
            f"wreath degree {degree} exceeds cap {degree_cap}"
        )
    blocks = outer.elements(cap=degree_cap)
    index = outer.element_index(cap=degree_cap)
    gens = []
    for p in inner.generators:
        img = list(range(1, degree + 1))
        for j in range(1, d + 1):
            img[j - 1] = p(j)
        gens.append(Perm(img))
    for t in outer.generators:
        img = [0] * degree
        for b, x in enumerate(blocks):
            tb = index[x * t]
            for j in range(1, d + 1):
                img[b * d + j - 1] = tb * d + j
        gens.append(Perm(img))
    return PermGroup(gens, degree=degree, order_hint=inner.order**m * m)


# ----- closures --------------------------------------------------------------


def normal_closure(g: PermGroup, seeds: Sequence[Perm]) -> PermGroup:
    """Smallest subgroup of g containing the seeds and normal in g.

    Grows a stabilizer chain from the seeds, repeatedly adjoining conjugates
    of current generators by g's generators until closed.
    """
    chain = StabilizerChain(g.degree)
    kept = []
    queue = [p for p in seeds if not p.is_identity()]
    while queue:
        s = queue.pop()
        if chain.contains(s):
            continue
        chain.add_generator(s)
        kept.append(s)
        for t in g.generators:
            queue.append((t.inverse() * s) * t)
    return PermGroup(kept, degree=g.degree, order_hint=chain.order())


def commutator_subgroup(g: PermGroup) -> PermGroup:
    """Derived subgroup [g, g]: normal closure of generator commutators."""
    seeds = []
    gens = g.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            seeds.append(commutator(gens[i], gens[j]))
    return normal_closure(g, seeds)


def _frattini_seeds(g: PermGroup, l: int) -> list:
    """l-th powers and pairwise commutators of g's generators; in an
    l-group their normal closure is the Frattini subgroup Phi(g)."""
    seeds = []
    gens = g.generators
    for i, a in enumerate(gens):
        seeds.append(a**l)
        for b in gens[i + 1 :]:
            seeds.append(commutator(a, b))
    return seeds


def frattini_subgroup(g: PermGroup, l: Optional[int] = None) -> PermGroup:
    """Frattini subgroup of an l-group: closure of powers and commutators."""
    return normal_closure(g, _frattini_seeds(g, l or group_prime(g)))


# ----- series ----------------------------------------------------------------


@dataclass(frozen=True)
class SeriesResult:
    """A descending subgroup series with precomputed orders.

    `orders` ends at 1 when the series terminates; a repeated final order
    means the series became stationary without reaching the identity.
    """

    orders: tuple
    groups: tuple


def _series(g: PermGroup, step) -> SeriesResult:
    """g = G1 >= G2 >= ... with G_{i+1} = step(G_i), until the trivial group
    or a repeated order."""
    groups = [g]
    while groups[-1].order > 1:
        nxt = step(groups[-1])
        groups.append(nxt)
        if nxt.order == groups[-2].order:
            break
    return SeriesResult(tuple(h.order for h in groups), tuple(groups))


def derived_series(g: PermGroup) -> SeriesResult:
    return _series(g, commutator_subgroup)


def derived_length(g: PermGroup) -> int:
    ser = derived_series(g)
    if ser.orders[-1] != 1:
        raise PgfError("group is not solvable")
    return len(ser.orders) - 1


def lower_central_series(g: PermGroup) -> SeriesResult:
    """g = G1 >= G2 >= ... with G_{i+1} = [G, G_i]."""

    def step(h: PermGroup) -> PermGroup:
        seeds = [commutator(t, y) for t in g.generators for y in h.generators]
        return normal_closure(g, seeds)

    return _series(g, step)


def factor_ranks(ser: SeriesResult, l: Optional[int] = None) -> tuple:
    """Rank of each factor G_i/G_{i+1}, with no quotient group built: in an
    l-group Phi(G_i/N) = Phi(G_i)N/N for N normal in G_i, so the rank is
    log_l |G_i : Phi(G_i)G_{i+1}|, one normal closure per factor."""
    if l is None and ser.groups[0].order > 1:
        l = group_prime(ser.groups[0])
    return tuple(
        _frattini_rank(top, l, bot.generators)
        for top, bot in zip(ser.groups, ser.groups[1:])
    )


# ----- quotients and rank ----------------------------------------------------


@dataclass(frozen=True)
class Quotient:
    """Quotient group with its projection homomorphism.

    `group` acts on the right cosets of the normal subgroup; `project` maps
    an element of the parent to its induced coset permutation. `reps` holds
    one representative per coset, with the identity coset first.
    """

    group: PermGroup
    project: Callable[[Perm], Perm]
    reps: tuple


def quotient_group(
    g: PermGroup, n: PermGroup, cap: int = DEFAULT_INDEX_CAP
) -> Quotient:
    """Quotient of g by a normal subgroup, as the action on right cosets."""
    for s in n.generators:
        if not g.contains(s):
            raise PgfError("subgroup is not contained in the group")
        for t in g.generators:
            if not n.contains((t.inverse() * s) * t):
                raise NotNormal(
                    "subgroup is not normal: a generator conjugate escapes"
                )
    if g.order % n.order:
        raise PgfError("subgroup order does not divide group order")
    q = g.order // n.order
    if q > cap:
        raise CapExceeded(f"quotient index {q} exceeds cap {cap}")

    reps = [g.identity]

    def identify(p: Perm) -> int:
        for j, r in enumerate(reps):
            if n.contains(p * r.inverse()):
                return j
        reps.append(p)
        return len(reps) - 1

    i = 0
    while i < len(reps):
        for t in g.generators:
            identify(reps[i] * t)
        i += 1
    if len(reps) != q:
        raise PgfError("coset enumeration did not reach the full index")

    frozen = tuple(reps)

    def lookup(p: Perm) -> int:
        for j, r in enumerate(frozen):
            if n.contains(p * r.inverse()):
                return j
        raise PgfError("element is not in the group being quotiented")

    def project(p: Perm) -> Perm:
        img = [lookup(r * p) + 1 for r in frozen]
        return Perm(img)

    qgens = [project(t) for t in g.generators]
    qgroup = PermGroup(qgens, degree=q, order_hint=q)
    return Quotient(group=qgroup, project=project, reps=frozen)


def rank(g: PermGroup, l: Optional[int] = None) -> int:
    """Minimal number of generators of an l-group (Frattini quotient size)."""
    if g.order == 1:
        return 0
    return _frattini_rank(g, l or group_prime(g))


def _frattini_rank(g: PermGroup, l: int, extra: Sequence[Perm] = ()) -> int:
    """log_l |g : <Frattini seeds, extra>^g|, the rank of g/<extra>^g."""
    sub = normal_closure(g, _frattini_seeds(g, l) + list(extra))
    try:
        return exact_log(g.order // sub.order, l)
    except ValueError as exc:
        raise PgfError("Frattini quotient is not a power of the prime") from exc
