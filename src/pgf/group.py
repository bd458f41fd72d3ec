"""Permutation l-groups backed by deterministic stabilizer chains.

pgf works with groups of prime-power order only, and every chain that is
not assembled from factors is grown by one routine,
``StabilizerChain.adjoin`` (Sims, "Computing the order of a solvable
permutation group", JSC 9, 1990; Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, ch. 4). Before an element r
joins, every conjugate of a strong generator by r and r**l are made
members first, so r normalises the group H built so far, <H, r> has order
l|H|, and one orbit grows by exactly a factor l. No Schreier generator is
ever sifted. ``PermGroup`` takes l from the order of its first
non-identity generator; generators that do not generate an l-group raise
PgfError naming the prime.

Two chains are assembled from their factors' chains instead, with
nothing sifted (Holt, Eick and O'Brien, ch. 4). A direct product's
factors' chains placed one after the other are a base and strong
generating set, and ``PermGroup._direct_product`` assembles exactly the
chain that adjoining the product's generators would build. A regular
wreath product's chain, from ``PermGroup._wreath_regular``, starts with
the inner factor's first orbit on every block, each point reached by an
inner representative and a block permutation, and continues with the
inner factor's chain on each block. Either way a factor's strong
generators and transversal entries are carried as the rows of one matrix,
not one array each. ``adjoin`` returns at once for a member, and
``_adjoin_normalising`` adjoins an element known to normalise the chain's
group through its powers alone, conjugating no strong generator.

Below ``PermGroup`` an element is a read-only 0-based int32 image array,
composed with ``take``, and ``Perm`` is only the API's element type:
``adjoin`` takes an image array, a chain stores its strong generators as
one list of such arrays, in the order they joined, and a transversal
entry is the inverse of its representative alone, which is all that
sifting and enumeration read. A level keeps no generators of its own:
level i's are the strong generators that fix the first i base points.
Each group records its prime once, from its order.

The sorted rows of one int32 matrix are the elements, numbered by position;
``PermGroup.columns`` finds products among them with searchsorted, and
``_fill`` completes the generators' columns to the whole multiplication
table: the table layer tabulates with it, and a wreath product reads its
outer factor's regular action from it. The products of the inverse
representatives, one per level and level 0 first, are the inverses of
the elements, hence again all of them, so sorting them gives the same
matrix.

Generators and orbit points are processed in fixed orders, so identical
generator lists always produce the identical chain: same base, same cached
order, same membership answers. Groups and chains are immutable once built
and safe to share between threads.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Optional, Sequence

import numpy as np

from .arith import prime_power_root
from .errors import CapExceeded, PgfError
from .perm import Perm, conjugate, invert

DEFAULT_ENUM_CAP = 2**20


def _rows_as_void(rows: np.ndarray) -> np.ndarray:
    """The rows of a 2-D array as one opaque item each, which sort and
    compare as byte strings."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def _cannot_adjoin(l: int, x: Perm) -> PgfError:
    return PgfError(
        f"generators do not generate an l-group for l = {l}: an "
        f"element of order {x.order()} cannot be adjoined"
    )


class _Level:
    """A base point and its transversal. The level's strong generators are
    those of the chain that fix every earlier base point."""

    __slots__ = ("base", "transversal")

    def __init__(self, base: int):
        self.base = base  # 0-based point
        # orbit point (0-based) -> image array of the inverse of the rep u
        # with u(base) = point; the base point's entry, the identity, is
        # the first
        self.transversal: dict[int, np.ndarray] = {}


def _carry(arrays: Sequence[np.ndarray], d: int, offsets, n: int) -> np.ndarray:
    """The image arrays of 0..d-1 in `arrays` carried into 0..n-1 once per
    offset, as one read-only int32 matrix of shape (len(offsets),
    len(arrays), n): out[j, i] moves x + offsets[j] to arrays[i][x] +
    offsets[j] and fixes every other point. One assignment per offset, not
    one array per image."""
    out = np.empty((len(offsets), len(arrays), n), dtype=np.int32)
    out[...] = np.arange(n, dtype=np.int32)
    if arrays:
        rows = np.array(arrays)
        for j, offset in enumerate(offsets):
            out[j, :, offset : offset + d] = rows + offset
    out.setflags(write=False)
    return out


def _fill(cols: np.ndarray) -> Optional[np.ndarray]:
    """The table whose generator columns are cols[j, x] = id of x * g_j,
    id 0 the identity, or None when the generators do not reach every id.

    Dynamic programming over the right Cayley graph: id z, first reached as
    cols[j][y], gets column(z) = cols[j][column(y)]. Id 0 comes first and
    gives g_j the column cols[j], so every other id is table[y, g_j] of an
    earlier y.
    """
    n = cols.shape[1]
    table = np.empty((n, n), dtype=np.int32)
    table[:, 0] = np.arange(n, dtype=np.int32)
    steps = list(zip(cols.tolist(), cols))  # lists for lookups, arrays for gathers
    done = [True] + [False] * (n - 1)
    frontier = [0]
    while frontier:
        y = frontier.pop()
        for ids, col in steps:
            z = ids[y]
            if not done[z]:
                table[:, z] = col[table[:, y]]
                done[z] = True
                frontier.append(z)
    return table if all(done) else None


class StabilizerChain:
    """Base, transversals and strong generators of a permutation l-group."""

    def __init__(self, degree: int):
        self.degree = degree
        self.levels: list[_Level] = []
        # strong generators in the order they joined; level i's are those
        # fixing the base points of levels 0..i-1
        self.gens: list[np.ndarray] = []
        self._identity = Perm.identity(degree).img0  # shared per degree
        self._identity_bytes = self._identity.tobytes()

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.transversal)
        return n

    def base(self) -> tuple:
        return tuple(lvl.base + 1 for lvl in self.levels)

    def copy(self) -> "StabilizerChain":
        """An independent chain of the same group, to extend without
        changing this one; the stored image arrays are immutable and
        shared."""
        out = StabilizerChain(self.degree)
        out.gens = list(self.gens)
        for lvl in self.levels:
            new = _Level(lvl.base)
            new.transversal = dict(lvl.transversal)
            out.levels.append(new)
        return out

    def _arrays(self) -> list:
        """The strong generators, then each level's inverse representatives
        other than its base point's identity, in chain order: the arrays
        that _place reads back, once carried."""
        out = list(self.gens)
        for lvl in self.levels:
            out += islice(lvl.transversal.values(), 1, None)
        return out

    def _place(self, levels: Sequence[_Level], rows, offset: int) -> None:
        """Append copies of another chain's levels, their points shifted by
        offset and their entries other than the base point's identity
        taken in order from the iterator rows."""
        for lvl in levels:
            new = _Level(lvl.base + offset)
            new.transversal[new.base] = self._identity
            points = [x + offset for x in islice(lvl.transversal, 1, None)]
            new.transversal.update(zip(points, rows))
            self.levels.append(new)

    def _sift(self, img: np.ndarray) -> tuple[np.ndarray, int]:
        """Strip the image array img through the levels; returns (residue
        image array, level where sifting stopped). An identity residue
        means membership."""
        for i, lvl in enumerate(self.levels):
            x = img.item(lvl.base)
            if x == lvl.base:
                continue
            u_inv = lvl.transversal.get(x)
            if u_inv is None:
                return img, i
            img = u_inv.take(img)
        return img, len(self.levels)

    def _canonical(self, img: np.ndarray) -> np.ndarray:
        """The element of the right coset H*img with the lexicographically
        least base images (Holt, Eick and O'Brien, ch. 4): at each level,
        u_d * img = img.take(u_d) for the orbit point d of least image, with
        u_d inverted from its stored inverse."""
        for lvl in self.levels:
            d = min(lvl.transversal, key=img.item)
            if d != lvl.base:
                img = img.take(invert(lvl.transversal[d]))
        return img

    def contains(self, p: Perm) -> bool:
        return self._sift(p.img0)[0].tobytes() == self._identity_bytes

    def adjoin(self, r: np.ndarray, l: int) -> bool:
        """Extend the chain of an l-group by the read-only image array r,
        with no Schreier generator; returns whether the chain grew, that is
        whether r was not a member.

        r's prerequisites, r**l and r^-1 s r for each strong generator s,
        are adjoined first, depth first on an explicit stack. Each is
        tested once per element, because the chain only grows, and the
        test gives the same answers for r and for its sifted residue, which
        lies in r times the current group H. In an l-group every
        prerequisite lies in each maximal subgroup of <H, r> containing H,
        so the groups on the stack shrink strictly and the stack never
        holds more than log_l |<H, r>| <= (degree - 1) / (l - 1) elements.
        Outside l-groups an element turns up again among its own
        prerequisites, the stack outgrows that bound, or an orbit grows by
        other than l; each raises PgfError naming the prime.
        """
        if r.size != self.degree:
            raise ValueError("generator degree mismatch")
        if self._sift(r)[0].tobytes() == self._identity_bytes:
            return False
        max_depth = (self.degree - 1) // (l - 1)
        pending = {r.tobytes()}
        stack: list = [[r, -1]]  # [element, next generator or -1]

        def push(img: np.ndarray) -> None:
            if self._sift(img)[0].tobytes() == self._identity_bytes:
                return
            key = img.tobytes()
            if key in pending or len(stack) >= max_depth:
                raise _cannot_adjoin(l, Perm._from0(img))
            pending.add(key)
            stack.append([img, -1])

        while stack:
            frame = stack[-1]
            x, k = frame
            if k < 0:
                frame[1] = 0
                power = x
                for _ in range(l - 1):
                    power = power.take(x)
                push(power)
                continue
            if k < len(self.gens):
                frame[1] = k + 1
                push(conjugate(self.gens[k], x))
                continue
            stack.pop()
            pending.discard(x.tobytes())
            self._extend(x, l)
        return True

    def _adjoin_normalising(self, r: np.ndarray, l: int) -> bool:
        """Extend the chain of an l-group H by the read-only image array r,
        which must normalise H; returns whether the chain grew.

        The conjugates of the strong generators by r already lie in H, so
        only r's powers are prerequisites. r commutes with its powers and
        normalises H, so each power r**(l**i) normalises <H, r**(l**(i+1))>,
        and the powers are extended from the first one in H back to r, each
        growing an orbit by a factor l. The precondition holds, for
        instance, for every element of T when bot <= H <= T with bot normal
        in T and T/bot abelian: every group between them is normal in T.
        More than (degree - 1) / (l - 1) powers outside H, the bound on
        log_l of an l-group's order at this degree, raise PgfError naming
        the prime.
        """
        max_depth = (self.degree - 1) // (l - 1)
        powers = []
        x = r
        while self._sift(x)[0].tobytes() != self._identity_bytes:
            if len(powers) >= max_depth:
                raise _cannot_adjoin(l, Perm._from0(r))
            powers.append(x)
            power = x
            for _ in range(l - 1):
                power = power.take(x)
            x = power
        for x in reversed(powers):
            self._extend(x, l)
        return bool(powers)

    def _extend(self, r: np.ndarray, l: int) -> None:
        """Adjoin r, which normalises the group H and has r**l in H: sift
        r to its stopping level i, append the residue to the strong
        generators (it fixes the bases of levels 0..i-1; level i is a new
        trailing level when it fixes every base) and close the level-i
        orbit, which must grow by exactly a factor l. The residue is never
        already a strong generator, because it lies outside H.

        The residue normalises H and fixes the earlier bases, so it
        normalises the level-i stabiliser, whose strong generators then
        preserve each block residue**k(orbit): the new orbit is the union
        of those blocks, closed under the residue alone. The rep of a new
        point is an old rep times the residue, u * img, and only its
        inverse is stored: img^-1 * u^-1, which is u_inv.take(img_inv),
        with img inverted once."""
        img, i = self._sift(r)
        if img.tobytes() == self._identity_bytes:
            return
        img.setflags(write=False)
        if i == len(self.levels):
            new = _Level(int(np.flatnonzero(img != self._identity)[0]))
            new.transversal[new.base] = self._identity
            self.levels.append(new)
        self.gens.append(img)
        trans = self.levels[i].transversal
        before = len(trans)
        img_inv = invert(img)
        points = list(trans)  # grows while it is walked
        for x in points:
            y = img.item(x)
            if y not in trans:
                u_inv = trans[x].take(img_inv)
                u_inv.setflags(write=False)
                trans[y] = u_inv
                points.append(y)
        if len(trans) != l * before:
            raise PgfError(
                f"generators do not generate an l-group for l = {l}: an "
                f"orbit grew from {before} to {len(trans)} points"
            )


class PermGroup:
    """Immutable permutation l-group with a cached stabilizer chain."""

    def __init__(
        self,
        generators: Iterable[Perm],
        degree: Optional[int] = None,
        order_hint: Optional[int] = None,
    ):
        """Generate a group with StabilizerChain.adjoin, for the prime l
        whose power is the order of the first non-identity generator.
        Raises PgfError when the generators do not generate an l-group,
        and ValueError when `order_hint` differs from the built order."""
        gens = tuple(generators)
        if degree is None:
            if not gens:
                raise ValueError("degree required when no generators given")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError("generators must share one degree")
        gens = tuple(g for g in gens if not g.is_identity())
        chain = StabilizerChain(degree)
        if gens:
            k = gens[0].order()
            l = prime_power_root(k)
            if l is None:
                raise PgfError(
                    f"generators do not generate an l-group: a generator "
                    f"has order {k}, which is not a prime power"
                )
            for g in gens:
                chain.adjoin(g.img0, l)
        if order_hint is not None and chain.order() != order_hint:
            raise ValueError(
                f"order hint {order_hint} does not match computed order {chain.order()}"
            )
        self._wrap(gens, chain)

    @classmethod
    def _from_chain(cls, generators: tuple, chain: StabilizerChain) -> "PermGroup":
        """Wrap a finished chain whose group the non-identity `generators`
        generate."""
        g = object.__new__(cls)
        g._wrap(generators, chain)
        return g

    @classmethod
    def _direct_product(cls, a: "PermGroup", b: "PermGroup") -> "PermGroup":
        """a x b on the disjoint union of the point sets, a's points first.

        The chain is the one PermGroup would build from a's generators
        followed by b's, assembled from the factors' chains with nothing
        sifted: adjoining a's generators rebuilds a's chain, and each of
        b's elements fixes a's bases and commutes with a, so it passes a's
        levels and rebuilds b's chain below them, shifted by a.degree.
        Its strong generators are a's followed by b's. Each factor's
        strong generators, transversal entries and generators are carried
        as the rows of one matrix (_carry), a generator that is a strong
        generator sharing its row, and each level's identity entry is the
        chain's shared identity. The product records its factors,
        from which ops.commutator_subgroup assembles its G'. Factors of two
        primes raise the PgfError that adjoining b's first generator would.
        """
        if a.prime is not None and b.prime is not None and a.prime != b.prime:
            raise _cannot_adjoin(a.prime, b.generators[0])
        n = a.degree + b.degree
        chain = StabilizerChain(n)
        gens: list = []
        for f, offset in ((a, 0), (b, a.degree)):
            if f.order == 1:
                continue  # no strong generators, levels or generators
            arrays = f._chain._arrays()
            # a generator that is a strong generator shares its carried row
            row_of = {id(s): i for i, s in enumerate(f._chain.gens)}
            for p in f.generators:
                if id(p.img0) not in row_of:
                    row_of[id(p.img0)] = len(arrays)
                    arrays.append(p.img0)
            carried = list(_carry(arrays, f.degree, (offset,), n)[0])
            rows = iter(carried)
            chain.gens += (next(rows) for _ in f._chain.gens)
            chain._place(f._chain.levels, rows, offset)
            gens += (Perm._from0(carried[row_of[id(p.img0)]]) for p in f.generators)
        g = cls._from_chain(tuple(gens), chain)
        g._factors = (a, b)
        return g

    @classmethod
    def _wreath_regular(cls, inner: "PermGroup", outer: "PermGroup") -> "PermGroup":
        """inner wr outer on m = |outer| blocks of d = inner.degree points,
        outer permuting the blocks by its right regular action: block b,
        the b-th element e_b of outer, goes to the id of e_b * g.

        The generators are inner's on block 0 and outer's generators'
        block permutations. The chain is assembled from inner's chain with
        nothing sifted (Holt, Eick and O'Brien, ch. 4). Level 0 has inner's
        first base point b0 on block 0; its orbit is inner's level-0 orbit
        on every block, and the point a of block j has the representative
        u_a * pi_j: inner's representative for a, then the block
        permutation of e_j, the one element sending block 0 to block j.
        The stabiliser of b0 fixes block 0, so its top part is trivial: it
        is inner's stabiliser of b0 on block 0 times inner on each other
        block, whence the next levels are inner's lower levels on block 0
        and then inner's whole chain on blocks 1..m-1. The strong
        generators are inner's on every block and the block permutations.
        A trivial inner group contributes the orbit {0} with the identity
        representative; a level-0 orbit of one point is left out. Factors
        of two primes raise the PgfError that adjoining the first block
        permutation would.
        """
        d, m = inner.degree, outer.order
        n = d * m
        points = np.arange(d, dtype=np.int32)
        cols = outer.columns(outer.generators)  # cols[k, b] = id of e_b * g_k
        tops = [Perm._from0((col[:, None] * d + points).ravel()) for col in cols]
        if None not in (inner.prime, outer.prime) and inner.prime != outer.prime:
            raise _cannot_adjoin(inner.prime, tops[0])
        levels = inner._chain.levels
        # inner's strong generators and transversal entries on each block
        carried = _carry(inner._chain._arrays(), d, range(0, n, d), n)
        k = len(inner._chain.gens)
        chain = StabilizerChain(n)
        if levels:
            b0 = levels[0].base
            orbit = list(levels[0].transversal)  # b0 first
            u_inv = np.concatenate(
                (chain._identity[None, :], carried[0, k : k + len(orbit) - 1])
            )
        else:
            b0, orbit, u_inv = 0, [0], chain._identity[None, :]
        # the inverse of u_a * pi_j is pi_j^-1 * u_a^-1, pi_j^-1 sending
        # block c to the block b with id of e_b * e_j = c
        table = _fill(cols)  # table[b, j] = id of e_b * e_j
        blocks_inv = np.empty((m, m), dtype=np.int32)
        blocks_inv[np.arange(m)[:, None], table.T] = np.arange(m, dtype=np.int32)
        pi_inv = (blocks_inv[:, :, None] * d + points).reshape(m, n)
        invs = u_inv.ravel()[pi_inv[:, None, :] + (np.arange(len(orbit)) * n)[:, None]]
        invs.setflags(write=False)
        top = _Level(b0)
        top.transversal = {
            j * d + a: inv for j in range(m) for a, inv in zip(orbit, invs[j])
        }
        top.transversal[b0] = chain._identity
        if len(top.transversal) > 1:
            chain.levels.append(top)
        chain._place(levels[1:], iter(carried[0, k + len(orbit) - 1 :]), 0)
        for j in range(1, m):
            chain._place(levels, iter(carried[j, k:]), j * d)
        chain.gens = [s for j in range(m) for s in carried[j, :k]]
        chain.gens += (p.img0 for p in tops)
        on_block_0 = _carry([p.img0 for p in inner.generators], d, (0,), n)[0]
        gens = tuple(Perm._from0(row) for row in on_block_0) + tuple(tops)
        return cls._from_chain(gens, chain)

    def _wrap(self, generators: tuple, chain: StabilizerChain) -> None:
        self.generators = generators
        self.degree = chain.degree
        self._chain = chain
        self._order = chain.order()
        self.prime = prime_power_root(self._order)  # None for the trivial group
        self._matrix: Optional[np.ndarray] = None
        self._elements: Optional[tuple] = None
        self._rank: Optional[int] = None  # set once by ops.rank
        # set once by ops.commutator_subgroup
        self._derived: Optional["PermGroup"] = None
        # (a, b) for a direct product a x b, set by _direct_product
        self._factors: Optional[tuple] = None

    @property
    def order(self) -> int:
        return self._order

    @property
    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def contains(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise ValueError("degree mismatch in membership test")
        return self._chain.contains(p)

    def base(self) -> tuple:
        return self._chain.base()

    def _element_matrix(self) -> np.ndarray:
        """The elements' image arrays as the rows of one read-only int32
        matrix, sorted by image tuple (identity first), cached.

        The rows are the products of one inverse representative per
        level, level 0 first, built with one gather per level: these are
        the inverses of the products u_k * ... * u_0 that factor G's
        elements, so again all of G. Raises CapExceeded when the order is
        larger than DEFAULT_ENUM_CAP.
        """
        if self._order > DEFAULT_ENUM_CAP:
            raise CapExceeded(
                f"group order {self._order} exceeds enumeration cap "
                f"{DEFAULT_ENUM_CAP}"
            )
        if self._matrix is None:
            acc = self._chain._identity[None, :]
            for lvl in self._chain.levels:
                invs = np.stack(list(lvl.transversal.values()))
                # row (j, i) is acc[i] * invs[j], left factor first
                acc = invs[:, acc].reshape(-1, self.degree)
            acc = acc[np.lexsort(acc.T[::-1])]
            acc.setflags(write=False)
            self._matrix = acc
        return self._matrix

    def elements(self):
        """All elements, sorted by image tuple (identity first), cached;
        each Perm is a row view of the element matrix, and its position
        is its element id."""
        if self._elements is None:
            self._elements = tuple(Perm._from0(row) for row in self._element_matrix())
        return self._elements

    def columns(self, perms: Sequence[Perm]) -> np.ndarray:
        """cols[j, x] = id of elements()[x] * perms[j], as int32.

        The element rows, viewed as big-endian byte strings, sort as the
        image tuples do, so each perm's product rows are found with one
        searchsorted. Raises PgfError when a product is not an element.
        """
        mat = self._element_matrix()
        keys = _rows_as_void(mat.astype(">i4"))
        cols = np.empty((len(perms), len(mat)), dtype=np.int32)
        for j, p in enumerate(perms):
            # row x is elements()[x] * p, left factor first
            found = _rows_as_void(p.img0[mat].astype(">i4"))
            at = np.minimum(np.searchsorted(keys, found), len(mat) - 1)
            if not (keys[at] == found).all():
                raise PgfError("a product of elements lies outside the group")
            cols[j] = at
        return cols

    def __repr__(self) -> str:
        return (
            f"PermGroup(degree={self.degree}, order={self._order}, "
            f"ngens={len(self.generators)})"
        )
