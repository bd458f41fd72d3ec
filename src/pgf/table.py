"""Dense multiplication tables and subgroup lattices for small groups.

A CayleyTable reindexes a group of order n as ids 0..n-1 with the identity
at id 0 and table[a, b] = id of element(a) * element(b). Both constructors
hand the right-multiplication columns of the generators to one filler: a
permutation group's columns are read off its sorted element matrix, a
presentation's are filled by recursion on its normal forms. All
invariants here are computed directly from the table, which makes them an
independent route from the permutation-level algorithms built on
stabilizer chains.

The subgroup lattice is computed by cyclic extension, which is complete for
groups of prime-power order: every subgroup of order l**(k+1) contains a
normal subgroup of index l, so climbing one index-l layer at a time from the
trivial subgroup visits everything. Each layer is climbed as whole arrays in
blocks of rows: normalisers by one gather per recorded generator, and the
overgroups named by right-coset labels min(Hx), so that every covering pair
forms one packed row and the first occurrence of each row is kept.
Conjugacy classes are fused on positions: conjugation by an element permutes
the positions of the sorted subgroups, one gather over the stacked masks per
element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .arith import exact_log, prime_power_root
from .errors import CapExceeded, PgfError
from .group import PermGroup, _rows_as_void
from .pc import PcPresentation, _table_defect

DEFAULT_TABLE_CAP = 1024
# cells per block of rows in the lattice climb's temporaries
_BLOCK_CELLS = 1 << 17


def _closure(table: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Membership mask of the subgroup generated by the seed element ids.

    Breadth-first closure under right multiplication by the seeds. Row 0 of
    the table must be the identity, which every subgroup contains.
    """
    member = np.zeros(table.shape[0], dtype=bool)
    member[0] = True
    if seed.size == 0:
        return member
    member[seed] = True
    frontier = seed[seed != 0]
    while frontier.size:
        prods = np.unique(table[np.ix_(frontier, seed)])
        fresh = prods[~member[prods]]
        member[fresh] = True
        frontier = fresh
    return member


@dataclass(frozen=True, eq=False)
class TSub:
    """A subgroup of the ambient table, as sorted element ids plus flags.

    `gens` generate the subgroup: the lattice climb records its parent's
    generators plus the adjoined element. `normalizer` is the membership
    mask of its normaliser in the whole group. Both masks are read-only
    rows of the lattice's stacked matrices.
    """

    ids: tuple
    mask: np.ndarray = field(repr=False)
    order: int
    abelian: bool
    gens: tuple
    normalizer: np.ndarray = field(repr=False)
    class_rep: int  # index into Lattice.subgroups of the class representative
    conj_to_rep: int  # element id c with rep^c == this subgroup

    @property
    def normal(self) -> bool:
        return bool(self.normalizer.all())


class Lattice:
    """All subgroups of a prime-power CayleyTable, with conjugacy fusion.

    Subgroups are sorted by (order, ids), so the whole group comes last,
    and a position in that order names a subgroup. Their masks and
    normalisers are read-only rows of two stacked matrices. Conjugation by
    an element permutes positions (`_position_map`), and classes are fused
    on positions (`orbit`). `builds` counts the packed overgroup rows the
    climb formed: one per covering pair H < K with |K:H| = l.
    """

    def __init__(self, ct: CayleyTable, masks: list, norms: list, info: list, builds: int):
        """Sort the climb's subgroups into TSubs and fuse classes.

        `masks` holds one array of packed rows per layer; `norms` holds the
        packed normaliser rows and `info` the (generators, abelian) pairs,
        both in the same climb order.

        Within a layer every subgroup has the same order, and ascending ids
        are descending packed bytes, so each layer is sorted on its
        complemented packed rows.
        """
        n = ct.n
        perm = []  # perm[i] = climb index of the subgroup at position i
        off = 0
        for layer in masks:
            perm.append(off + np.argsort(_rows_as_void(~layer)))
            off += len(layer)
        perm = np.concatenate(perm)
        self._keys = np.concatenate(masks)[perm]
        self._masks = _unpack_rows(self._keys, n)
        normalizers = _unpack_rows(np.concatenate(norms)[perm], n)
        self._table = ct.table
        self._conj = ct.conj()
        self._inv = ct.inv()
        self._builds = builds
        keys = _rows_as_void(self._keys)
        self._key_order = np.argsort(keys).astype(np.int32)
        self._sorted_keys = keys[self._key_order]
        self._maps = {}
        self._ints = None
        class_rep, conj_to_rep = self._fuse(ct.gen_ids)
        sizes = self._masks.sum(axis=1).tolist()
        flat = np.nonzero(self._masks)[1].tolist()
        subs = []
        start = 0
        for i, j in enumerate(perm.tolist()):
            gens, abelian = info[j]
            stop = start + sizes[i]
            subs.append(
                TSub(
                    ids=tuple(flat[start:stop]),
                    mask=self._masks[i],
                    order=sizes[i],
                    abelian=abelian,
                    gens=gens,
                    normalizer=normalizers[i],
                    class_rep=class_rep[i],
                    conj_to_rep=conj_to_rep[i],
                )
            )
            start = stop
        self.subgroups = tuple(subs)

    @property
    def builds(self) -> int:
        return self._builds

    def mask_ints(self) -> tuple:
        """Each subgroup's packed mask as one int, by position; built once.

        Subgroup containment and intersection sizes are then single int
        operations (`&`, `bit_count`)."""
        if self._ints is None:
            w = self._keys.shape[1]
            raw = self._keys.tobytes()
            self._ints = tuple(
                int.from_bytes(raw[i : i + w], "big") for i in range(0, len(raw), w)
            )
        return self._ints

    def _position_map(self, g: int) -> np.ndarray:
        """pm[i] = position of g^-1 H g, for H the subgroup at position i.

        One gather conjugates every mask at once (y lies in H^g exactly when
        g y g^-1 lies in H); the packed images are found among the sorted
        packed masks. Memoised per element.
        """
        pm = self._maps.get(g)
        if pm is None:
            m = len(self._masks)
            img = np.packbits(np.take(self._masks, self._conj[self._inv[g]], axis=1), axis=1)
            at = np.searchsorted(self._sorted_keys, _rows_as_void(img))
            pm = self._key_order[np.minimum(at, m - 1)]
            if not (self._keys[pm] == img).all():
                raise PgfError("a conjugate subgroup is missing from the lattice")
            pm.setflags(write=False)
            self._maps[g] = pm
        return pm

    def orbit(self, pos: int, gens: Sequence[int]) -> dict:
        """Orbit of the subgroup at `pos` under conjugation by the group
        `gens` generate.

        Maps the position of each conjugate to an element id c with
        start^c equal to it (0 for the start itself). The traversal is a
        stack over `gens` in order, which fixes the conjugators recorded.
        """
        t = self._table
        moves = [(g, self._position_map(g)) for g in gens]
        orbit = {pos: 0}
        stack = [(pos, 0)]
        while stack:
            p, c = stack.pop()
            for g, pm in moves:
                q = int(pm[p])
                if q not in orbit:
                    cg = int(t[c, g])
                    orbit[q] = cg
                    stack.append((q, cg))
        return orbit

    def orbit_reps(self, positions: Sequence[int], gens: Sequence[int]) -> list:
        """The first position of each orbit under conjugation by the group
        `gens` generate, for `positions` a union of such orbits, in the
        order given."""
        seen: set = set()
        reps = []
        for p in positions:
            if p not in seen:
                seen.update(self.orbit(p, gens))
                reps.append(p)
        return reps

    def _fuse(self, gens: Sequence[int]) -> tuple:
        """Class representative and conjugator per position under the
        group `gens` generate.

        Positions are visited in increasing order, so each orbit starts at
        its least position, which is the class representative, and the
        orbit's conjugator c gives rep^c == the subgroup.
        """
        m = len(self._masks)
        class_rep = [-1] * m
        conj_to_rep = [0] * m
        for start in range(m):
            if class_rep[start] != -1:
                continue
            for pos, c in self.orbit(start, gens).items():
                class_rep[pos] = start
                conj_to_rep[pos] = c
        return class_rep, conj_to_rep

    def class_reps(self) -> tuple:
        return tuple(
            s for i, s in enumerate(self.subgroups) if s.class_rep == i
        )

    def maximal(self) -> tuple:
        # maximal subgroups of an l-group are exactly those of index l
        full = self.subgroups[-1].order
        if full == 1:
            return ()
        l = prime_power_root(full)
        return tuple(s for s in self.subgroups if s.order * l == full)

    def normal_abelian(self) -> tuple:
        return tuple(s for s in self.subgroups if s.normal and s.abelian)


def _row_offsets(m: int, width: int) -> np.ndarray:
    """Column vector of the flat offsets of the rows of an (m, width) array."""
    return (np.arange(m) * width)[:, None]


def _take_per_row(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """out[r, x] = a[r, idx[r, x]] for a contiguous 2-D array a, as one flat
    gather."""
    return np.take(a.ravel(), idx + _row_offsets(len(a), a.shape[1]))


def _unpack_rows(packed: np.ndarray, n: int) -> np.ndarray:
    """Read-only bool matrix of packed rows of n bits each."""
    out = np.unpackbits(packed, axis=1, count=n).view(bool)
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


class CayleyTable:
    """Multiplication table of a finite group with id 0 the identity."""

    __slots__ = (
        "table",
        "n",
        "gen_ids",
        "prime",
        "_inv",
        "_conj",
        "_pows",
        "_orders",
        "_frattini",
        "_lattice",
    )

    def __init__(self, table: np.ndarray, gen_ids: tuple):
        self.table = np.ascontiguousarray(table, dtype=np.int32)
        self.n = table.shape[0]
        self.gen_ids = tuple(gen_ids)
        self.prime = prime_power_root(self.n)
        self._inv = None
        self._conj = None
        self._pows = {}
        self._orders = None
        self._frattini = None
        self._lattice = None

    # ----- constructors ---------------------------------------------------

    @classmethod
    def from_perm_group(cls, g: PermGroup):
        """Tabulate a permutation group of order at most DEFAULT_TABLE_CAP.

        Element ids follow the sorted enumeration of the group (identity is
        id 0), and the generators' columns are read off the element matrix.
        """
        if g.order > DEFAULT_TABLE_CAP:
            raise CapExceeded(f"order {g.order} exceeds table cap {DEFAULT_TABLE_CAP}")
        cols = g.columns(g.generators)
        table = _fill(cols)
        if table is None:
            raise PgfError("generator columns do not reach the whole group")
        return cls(table, tuple(cols[:, 0].tolist()))

    @classmethod
    def from_pc(cls, pres: PcPresentation):
        """Tabulate a pc presentation of order at most DEFAULT_TABLE_CAP
        from its generators' columns (PcPresentation.gen_columns).

        Raises PgfError, naming the group and the defect, when the table
        filled from them is not a group (an inconsistent presentation).
        """
        if pres.order > DEFAULT_TABLE_CAP:
            raise CapExceeded(f"order {pres.order} exceeds table cap {DEFAULT_TABLE_CAP}")
        cols = pres.gen_columns()
        table = _fill(cols)
        gen_ids = tuple(cols[:, 0].tolist())
        if table is None:
            defect = "the generators do not reach every element"
        else:
            defect = _table_defect(table, gen_ids)
        if defect is not None:
            raise PgfError(
                f"group {pres.group_id}: inconsistent presentation: {defect}"
            )
        return cls(table, gen_ids)

    # ----- elementary maps --------------------------------------------------

    def inv(self) -> np.ndarray:
        """inv[x] = id of the inverse of x."""
        if self._inv is None:
            rows, cols = np.nonzero(self.table == 0)
            inv = np.empty(self.n, dtype=np.int32)
            inv[rows] = cols
            inv.setflags(write=False)
            self._inv = inv
        return self._inv

    def conj(self) -> np.ndarray:
        """conj[g, x] = id of g^-1 * x * g."""
        if self._conj is None:
            t = self.table
            left = t[self.inv(), :]  # left[g, x] = inv(g) * x
            c = t[left, np.arange(self.n, dtype=np.int32)[:, None]]
            c = np.ascontiguousarray(c, dtype=np.int32)
            c.setflags(write=False)
            self._conj = c
        return self._conj

    def pow_map(self, k: int) -> np.ndarray:
        """powmap[x] = id of x**k, for k >= 0."""
        if k not in self._pows:
            ar = np.arange(self.n, dtype=np.int32)
            cur = np.zeros(self.n, dtype=np.int32)
            for _ in range(k):
                cur = self.table[cur, ar]
            cur = np.ascontiguousarray(cur)
            cur.setflags(write=False)
            self._pows[k] = cur
        return self._pows[k]

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            ar = np.arange(self.n, dtype=np.int32)
            cur = ar.copy()
            out = np.zeros(self.n, dtype=np.int64)
            out[0] = 1
            k = 1
            while (out == 0).any():
                hit = (cur == 0) & (out == 0)
                out[hit] = k
                cur = self.table[cur, ar]
                k += 1
            out.setflags(write=False)
            self._orders = out
        return self._orders

    def conjugate_ids(self, ids: Sequence[int], g: int) -> tuple:
        """Ids of the set {g^-1 x g : x in ids}, sorted."""
        arr = self.conj()[g, np.asarray(ids, dtype=np.int64)]
        return tuple(int(v) for v in np.sort(arr))

    # ----- subgroup primitives ----------------------------------------------

    def closure_mask(self, seed_ids: Sequence[int]) -> np.ndarray:
        seed = np.asarray(sorted(set(seed_ids)), dtype=np.int32)
        return _closure(self.table, seed)

    def closure_ids(self, seed_ids: Sequence[int]) -> tuple:
        return tuple(int(v) for v in np.nonzero(self.closure_mask(seed_ids))[0])

    def is_abelian_ids(self, ids: Sequence[int]) -> bool:
        idx = np.asarray(ids, dtype=np.int64)
        block = self.table[np.ix_(idx, idx)]
        return bool((block == block.T).all())

    def center_ids(self) -> tuple:
        mask = (self.table == self.table.T).all(axis=1)
        return tuple(int(v) for v in np.nonzero(mask)[0])

    def _comm_ids(self, a_ids: np.ndarray, b_ids: np.ndarray) -> np.ndarray:
        """Unique ids of commutators [a, b] = a^-1 b^-1 a b with a in A, b in B."""
        t = self.table
        ab = t[np.ix_(a_ids, b_ids)]
        ba = t[np.ix_(b_ids, a_ids)].T
        return np.unique(t[self.inv()[ba], ab])

    def derived_ids(self, ids: Sequence[int]) -> tuple:
        """The commutator subgroup of the subgroup with these ids."""
        idx = np.asarray(ids, dtype=np.int64)
        seeds = self._comm_ids(idx, idx)
        return self.closure_ids(seeds)

    # ----- whole-group invariants --------------------------------------------

    def _require_prime(self) -> int:
        if self.n == 1:
            return 0
        if self.prime is None:
            raise PgfError(f"order {self.n} is not a prime power")
        return self.prime

    def frattini_ids(self) -> tuple:
        """Frattini subgroup: closure of all l-th powers and commutators.

        For an l-group, G/[G,G]G^l is the largest elementary abelian
        quotient, so the subgroup generated by powers and commutators is the
        Frattini subgroup. The lattice route (intersection of maximal
        subgroups) is used as an independent check in the tests.
        """
        if self._frattini is None:
            l = self._require_prime()
            if self.n == 1:
                self._frattini = (0,)
            else:
                all_ids = np.arange(self.n, dtype=np.int64)
                seeds = set(self.pow_map(l).tolist())
                seeds.update(self._comm_ids(all_ids, all_ids).tolist())
                self._frattini = self.closure_ids(seeds)
        return self._frattini

    def rank(self) -> int:
        """Minimal generator count: log_l of the Frattini quotient order."""
        if self.n == 1:
            return 0
        l = self._require_prime()
        quot = self.n // len(self.frattini_ids())
        try:
            return exact_log(quot, l)
        except ValueError as exc:
            raise PgfError("Frattini quotient is not a power of the prime") from exc

    def _series_orders(self, step) -> tuple:
        """Orders along G = S_0 >= S_1 >= ... with S_{t+1} = step(ids of S_t).

        Ends at 1, or repeats the last order where the series stalls.
        """
        cur = tuple(range(self.n))
        orders = [self.n]
        while len(cur) > 1:
            nxt = step(np.asarray(cur, dtype=np.int64))
            orders.append(len(nxt))
            if len(nxt) == len(cur):
                break
            cur = nxt
        return tuple(orders)

    def derived_length(self) -> int:
        orders = self._series_orders(self.derived_ids)
        if orders[-1] != 1:
            raise PgfError("derived series does not terminate")
        return len(orders) - 1

    def lcs_orders(self) -> tuple:
        """Orders along the lower central series, ending at 1 for nilpotent groups."""
        all_ids = np.arange(self.n, dtype=np.int64)
        return self._series_orders(
            lambda idx: self.closure_ids(self._comm_ids(all_ids, idx))
        )

    def lower_exp_orders(self) -> tuple:
        """Orders along the lower exponent-l central series, for l the
        table's prime.

        Step: F_{t+1} = <f**l, [g, f] : f in F_t, g in G>. The first step
        equals the Frattini subgroup for l-groups.
        """
        l = self._require_prime()
        all_ids = np.arange(self.n, dtype=np.int64)

        def step(idx):
            seeds = set(self.pow_map(l)[idx].tolist())
            seeds.update(self._comm_ids(all_ids, idx).tolist())
            return self.closure_ids(seeds)

        return self._series_orders(step)

    # ----- subgroup lattice ----------------------------------------------------

    def lattice(self) -> Lattice:
        """All subgroups, by cyclic extension one index-l layer at a time.

        A layer is climbed as whole arrays, in blocks of at most
        _BLOCK_CELLS cells. The normalisers of H in the layer take one
        gather per recorded generator: g normalises H exactly when it maps
        H's generators into H. A candidate g outside H with g**l in H that
        normalises H spans an overgroup H<g> of index l, and every such
        overgroup arises so. Right-coset labels lab_H[x] = min(Hx) name it:
        key(g) = min over e = 1..l-1 of lab_H[g**e] is min(H<g> minus H),
        so the distinct keys of H's candidates are its covering pairs, and
        the candidates sharing a key are K minus H. One packed row per
        covering pair is formed (`Lattice.builds`), and the first
        occurrence of each row in (H, key) order is kept: K is reached from
        the first subgroup it covers, recording that subgroup's generators
        plus the key. Its labels are lab_K[x] = min over e < l of
        lab_H[key**e * x].
        """
        if self._lattice is not None:
            return self._lattice
        l = self._require_prime()
        n = self.n
        t = self.table
        conj_t = np.ascontiguousarray(self.conj().T)  # conj_t[g] = column g of conj
        powl = self.pow_map(l)
        pows = [self.pow_map(e) for e in range(1, l)]  # x -> x**e, e = 1..l-1
        rows = max(1, _BLOCK_CELLS // n)
        # the layer's masks, packed; its generators, abelian flags, labels
        layer = np.packbits(np.arange(n) == 0)[None, :]
        gens = np.zeros((1, 0), dtype=np.intp)
        abelian = np.ones(1, dtype=bool)
        lab = np.arange(n, dtype=np.int16)[None, :]
        masks, norms, infos = [], [], []
        builds = 0
        while True:
            owners, keys, packed = [], [], []
            for lo in range(0, len(layer), rows):
                block = np.unpackbits(layer[lo : lo + rows], axis=1, count=n).view(bool)
                norm = np.ones(block.shape, dtype=bool)
                for j in range(gens.shape[1]):
                    norm &= _take_per_row(block, conj_t[gens[lo : lo + rows, j]])
                norms.append(np.packbits(norm, axis=1))
                # g outside H with g**l in H normalising H, keyed by
                # min(H<g> minus H)
                cand = norm & block[:, powl] & ~block
                lb = lab[lo : lo + rows]
                key = np.full(block.shape, n, dtype=np.int16)
                for p in pows:
                    np.minimum(key, lb[:, p], out=key)
                key[~cand] = n
                # the distinct keys of each row, in (row, key) order
                hit = np.zeros((len(block), n + 1), dtype=bool)
                hit.ravel()[key + _row_offsets(len(block), n + 1)] = True
                h, k = np.nonzero(hit[:, :n])
                # the overgroup of each pair: H and the candidates with its key
                for a in range(0, len(h), rows):
                    hs, ks = h[a : a + rows], k[a : a + rows]
                    over = block[hs] | (key[hs] == ks[:, None].astype(np.int16))
                    packed.append(np.packbits(over, axis=1))
                owners.append(h + lo)
                keys.append(k)
            masks.append(layer)
            infos.extend(zip(map(tuple, gens.tolist()), abelian.tolist()))
            if not packed:
                break
            packed = np.concatenate(packed)
            builds += len(packed)
            first = np.sort(np.unique(_rows_as_void(packed), return_index=True)[1])
            layer = packed[first]
            h = np.concatenate(owners)[first]
            k = np.concatenate(keys)[first]
            hg = gens[h]
            # K = H<k> is abelian when H is and k commutes with H's generators
            abelian = abelian[h] & (t[k[:, None], hg] == t[hg, k[:, None]]).all(axis=1)
            gens = np.column_stack([hg, k])
            child = np.empty((len(h), n), dtype=np.int16)  # labels of the new layer
            for lo in range(0, len(h), rows):
                hs, ks = h[lo : lo + rows], k[lo : lo + rows]
                lh = lab[hs]
                out = child[lo : lo + rows]
                out[...] = lh
                for p in pows:
                    np.minimum(out, _take_per_row(lh, t[p[ks]]), out=out)
            lab = child
        self._lattice = Lattice(self, masks, norms, infos, builds)
        return self._lattice
