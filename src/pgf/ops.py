"""Constructions and invariants for permutation groups.

Everything here works through stabilizer chains and normal closures, never
through multiplication tables, so results can be cross-checked against the
table layer. Groups are immutable; each operation returns a fresh PermGroup,
and the rank and G' are computed once per group and cached on it: `rank`,
`frattini_subgroup`, `derived_series` and the [G, G] step of
`lower_central_series` all read the one G' that `commutator_subgroup`
builds. A direct product records its factors, and its G' is the product
of theirs, (A x B)' = A' x B', so a product's derived series is assembled
with no normal closure. Rank, series-factor ranks and the Frattini
subgroup all read Phi(T)N for N normal in T with T/N abelian: N's chain,
copied and extended by the l-th powers of T's generators. Every group
between N and T is then normal in T, so each power is adjoined through its
own powers alone, with no conjugate of a strong generator. Factor ranks
take consecutive series terms and run no normal closure; `rank` and
`frattini_subgroup` take T = G and N = G', as Phi(G) = G'G^l. Every group
is an l-group and carries its prime l as `PermGroup.prime`. Every chain
is grown by the l-group routine StabilizerChain.adjoin, except those of
direct and regular wreath products, which are assembled from their
factors' chains with nothing sifted. A construction whose input mixes
primes, such as a wreath product of a 2-group by a 3-group, raises
PgfError. A quotient by N names each coset by its
canonical element on N's chain, one dict lookup per coset product.

Conventions: products apply the left factor first, and the commutator is
[a, b] = a^-1 b^-1 a b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .arith import exact_log, is_prime
from .errors import CapExceeded, NotNormal, PgfError
from .group import PermGroup, StabilizerChain
from .perm import Perm, commutator, conjugate

# the largest degree of a constructed group; a quotient's degree is its index
DEFAULT_DEGREE_CAP = 4096


# ----- constructions ---------------------------------------------------------


def cyclic_group(l: int, k: int) -> PermGroup:
    """Cyclic group of order l**k as a single cycle on l**k points."""
    if k < 1:
        raise ValueError("exponent must be >= 1")
    # refused before is_prime, whose trial division takes minutes on a huge
    # l; past the cap's bit length, l**k exceeds the cap for every l >= 2
    cap = DEFAULT_DEGREE_CAP
    if l > cap or l ** min(k, cap.bit_length()) > cap:
        raise CapExceeded(f"cyclic degree {l}**{k} exceeds cap {cap}")
    if not is_prime(l):
        raise ValueError(f"{l} is not prime")
    n = l**k
    gen = Perm.from_cycles(n, [tuple(range(1, n + 1))])
    return PermGroup([gen], degree=n, order_hint=n)


def direct_product(a: PermGroup, b: PermGroup) -> PermGroup:
    """Direct product acting on the disjoint union of the two point sets;
    both factors must be l-groups for one prime. The product inherits its
    factors' chains, placed one after the other, so nothing is sifted."""
    degree = a.degree + b.degree
    if degree > DEFAULT_DEGREE_CAP:
        raise CapExceeded(
            f"direct product degree {degree} exceeds cap {DEFAULT_DEGREE_CAP}"
        )
    return PermGroup._direct_product(a, b)


def wreath_regular(inner: PermGroup, outer: PermGroup) -> PermGroup:
    """Regular wreath product inner wr outer.

    The outer group permutes |outer| blocks by its right regular action,
    read off its generators' columns (`PermGroup.columns`); each block
    carries a copy of inner's point set. Generators are inner's
    generators acting on the block of the identity coset plus outer's
    generators permuting whole blocks, which together generate the full
    product of order |inner| ** |outer| * |outer|. The chain is assembled
    from inner's chain and the blocks' regular action, with nothing sifted
    (`PermGroup._wreath_regular`). Both factors must be l-groups for one
    prime.
    """
    d, m = inner.degree, outer.order
    degree = d * m
    if degree > DEFAULT_DEGREE_CAP:
        raise CapExceeded(
            f"wreath degree {degree} exceeds cap {DEFAULT_DEGREE_CAP}"
        )
    return PermGroup._wreath_regular(inner, outer)


# ----- closures --------------------------------------------------------------


def normal_closure(g: PermGroup, seeds: Sequence[Perm]) -> PermGroup:
    """Smallest subgroup of g containing the seeds and normal in g.

    Grows one stabilizer chain from the seeds, repeatedly adjoining
    conjugates of current generators by g's generators until closed, and
    returns the group wrapping that chain, an l-group chain for g's
    prime l. Conjugates are image arrays; only the kept generators become
    Perms. The seeds must lie in g.
    """
    chain = StabilizerChain(g.degree)
    kept = []
    queue = [p.img0 for p in seeds if not p.is_identity()]
    while queue:
        s = queue.pop()
        if not chain.adjoin(s, g.prime):
            continue
        kept.append(Perm._from0(s))
        queue.extend(conjugate(s, t.img0) for t in g.generators)
    return PermGroup._from_chain(tuple(kept), chain)


def commutator_subgroup(g: PermGroup) -> PermGroup:
    """Derived subgroup [g, g], built once per group and cached on it, as g
    is immutable: for a direct product A x B it is A' x B', assembled
    from the factors' cached derived subgroups with nothing sifted, and
    otherwise the normal closure of the generator commutators."""
    if g._derived is not None:
        return g._derived
    if g._factors is not None:
        a, b = g._factors
        g._derived = PermGroup._direct_product(
            commutator_subgroup(a), commutator_subgroup(b)
        )
    else:
        gens = g.generators
        seeds = [
            commutator(gens[i], gens[j])
            for i in range(len(gens))
            for j in range(i + 1, len(gens))
        ]
        g._derived = normal_closure(g, seeds)
    return g._derived


def frattini_subgroup(g: PermGroup) -> PermGroup:
    """Frattini subgroup of an l-group, Phi(g) = g'g^l: the commutator
    subgroup extended by the l-th powers of g's generators."""
    if g.order == 1:
        return PermGroup((), degree=g.degree)
    return _frattini_preimage(g, commutator_subgroup(g))


def _frattini_preimage(top: PermGroup, bot: PermGroup) -> PermGroup:
    """Phi(top)bot, for bot normal in top with top/bot abelian.

    In an l-group Phi(top/bot) = Phi(top)bot/bot, and an abelian quotient's
    Frattini subgroup is generated by the l-th powers of its generators, so
    Phi(top)bot is bot extended by t**l for each generator t of top. Its
    chain is a copy of bot's; every group between bot and top is normal in
    top, as top/bot is abelian, so each t**l normalises the group built so
    far and is adjoined by StabilizerChain._adjoin_normalising, through its
    powers alone. No normal closure runs.
    """
    l = top.prime
    chain = bot._chain.copy()
    powers = [t**l for t in top.generators]
    grown = tuple(p for p in powers if chain._adjoin_normalising(p.img0, l))
    return PermGroup._from_chain(bot.generators + grown, chain)


def _factor_rank(top: PermGroup, bot: PermGroup) -> int:
    """Rank of the abelian quotient top/bot: log_l |top : Phi(top)bot|."""
    sub = _frattini_preimage(top, bot)
    return exact_log(top.order // sub.order, top.prime)


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
    # every group here is an l-group, hence solvable: the series ends at 1
    return len(derived_series(g).orders) - 1


def lower_central_series(g: PermGroup) -> SeriesResult:
    """g = G1 >= G2 >= ... with G_{i+1} = [G, G_i]; G2 is g's cached G'."""

    def step(h: PermGroup) -> PermGroup:
        if h is g:
            return commutator_subgroup(g)
        seeds = [commutator(t, y) for t in g.generators for y in h.generators]
        return normal_closure(g, seeds)

    return _series(g, step)


def factor_ranks(ser: SeriesResult) -> tuple:
    """Rank of each factor G_i/G_{i+1}, with no quotient group built.

    Both series built here have abelian factors, as [G_i, G_i] lies in
    G_{i+1}, so each rank is the Frattini index log_l |G_i : Phi(G_i)G_{i+1}|
    and Phi(G_i)G_{i+1} is G_{i+1} extended by the l-th powers of G_i's
    generators: G_{i+1}'s chain is copied and extended, and no normal
    closure runs."""
    return tuple(
        _factor_rank(top, bot) for top, bot in zip(ser.groups, ser.groups[1:])
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


def quotient_group(g: PermGroup, n: PermGroup) -> Quotient:
    """Quotient of g by a normal subgroup, as the action on right cosets,
    each coset found by its canonical element on n's chain."""
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
    if q > DEFAULT_DEGREE_CAP:
        raise CapExceeded(f"quotient index {q} exceeds cap {DEFAULT_DEGREE_CAP}")

    def key(p: Perm) -> bytes:
        return n._chain._canonical(p.img0).tobytes()

    reps = [g.identity]
    cosets = {key(g.identity): 0}  # canonical element -> position in reps
    for r in reps:  # also visits the reps appended on the way
        for t in g.generators:
            p = r * t
            if cosets.setdefault(key(p), len(reps)) == len(reps):
                reps.append(p)
    if len(reps) != q:
        raise PgfError("coset enumeration did not reach the full index")

    frozen = tuple(reps)

    def project(p: Perm) -> Perm:
        try:
            return Perm([cosets[key(r * p)] + 1 for r in frozen])
        except KeyError:
            raise PgfError("element is not in the group being quotiented") from None

    qgens = [project(t) for t in g.generators]
    qgroup = PermGroup(qgens, degree=q, order_hint=q)
    return Quotient(group=qgroup, project=project, reps=frozen)


def rank(g: PermGroup) -> int:
    """Minimal number of generators of an l-group, the rank of g/g',
    computed once per group and cached on it, as g is immutable."""
    if g._rank is None:
        g._rank = 0 if g.order == 1 else _factor_rank(g, commutator_subgroup(g))
    return g._rank
