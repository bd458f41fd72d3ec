"""Dense multiplication tables and subgroup lattices for small groups.

A CayleyTable reindexes a group of order n as ids 0..n-1 with the identity
at id 0 and table[a, b] = id of element(a) * element(b). Both constructors
start from the right-multiplication columns of the generators. A
permutation group's are read off its sorted element matrix, and its table
is filled over the right Cayley graph (`group._fill`). Presentations of
one prime and generator count are tabulated together (`tabulate`): their
columns are filled by recursion on normal forms, each table along the
normal forms of its ids, and the group check runs on the whole stack, so
a census chunk pays each numpy call once; `CayleyTable.from_pc` is the
one-presentation case. All invariants here are computed directly from
the table, which makes them an independent route from the
permutation-level algorithms built on stabilizer chains. The
whole-group invariants (Frattini subgroup, rank, derived length, the
lower central and lower exponent-l central series) are normal closures
of seeds formed from generators only, never from all pairs of elements.

The subgroup lattice is computed by cyclic extension, which is complete for
groups of prime-power order: every subgroup of order l**(k+1) contains a
normal subgroup of index l, so climbing one index-l layer at a time from the
trivial subgroup visits everything. Tables of one order are climbed
together (`lattices`): a layer holds the subgroups of all of them, each row
tagged with its table, and each row reads its table's multiplication,
conjugation and power maps at that table's offset in stacked copies. The
numpy calls of a layer are then paid once for all the tables, not once per
table, which is what a census of many small groups spends most on.
`CayleyTable.lattice` is the same climb with one table. Each layer is
climbed as whole arrays in blocks of rows: the overgroups are named by
right-coset labels min(Hx), and the cyclic-extension conditions are tested
only at the ids that are the least of their overgroup outside the
subgroup, so that every covering pair forms one packed row, led by a key of
its table, and the first occurrence of each row is kept. Within a table's
layer, ascending ids are descending packed bytes, and the table keys
descend as the tables ascend, so the one sort that finds the duplicates,
read backwards, puts the layer in (table, position) order.
The climb also carries the conjugation action up: K = H<k> gives
K^g = H^g<k^g> (Holt, Eick and O'Brien, Handbook of Computational Group
Theory, 2005, ch. 4), so each generator's position map on a new layer is
one lookup of a (parent, key) covering pair per subgroup, and no mask is
ever conjugated. A subgroup is its position: the lattice keeps its
subgroups as arrays by position, masks only as the climb's packed rows,
and reads one position's mask, ids or generators on request. Normality
is a fixed point of the position maps: H is normalised by <X> exactly
when every x in X maps H's position to itself. Conjugacy classes are the
orbits of the generators' position maps, labelled by min-label
propagation; a conjugator is walked only for the classes whose
conjugators are read.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .arith import exact_log, prime_power_root
from .errors import CapExceeded, PgfError
from .group import PermGroup, _fill, _rows_as_void
from .pc import PcPresentation, shape_of, stacked_columns

DEFAULT_TABLE_CAP = 1024
# cells per block of rows in the lattice climb's temporaries
_BLOCK_CELLS = 1 << 17
# cells per block of tables that `tabulate` fills and checks as one stack;
# the check's temporaries are a few such stacks, kept below the climb's
_TABULATE_CELLS = 1 << 15


def _closure(table: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Membership mask of the subgroup generated by the seed element ids.

    Breadth-first closure under right multiplication by the seeds. Row 0 of
    the table must be the identity, which every subgroup contains. Each
    frontier is deduplicated on a mask, not by `np.unique`, whose first
    call imports `numpy.ma` under numpy 2.
    """
    n = table.shape[0]
    member = np.zeros(n, dtype=bool)
    member[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size and seed.size:
        fresh = np.zeros(n, dtype=bool)
        fresh[table[frontier[:, None], seed]] = True
        fresh &= ~member
        member |= fresh
        frontier = np.flatnonzero(fresh)
    return member


class Lattice:
    """All subgroups of a prime-power CayleyTable, with conjugacy classes.

    Subgroups come in (order, ids) order, so the whole group comes last,
    and a position in that order is the only handle on a subgroup: the
    climb emits each layer in that order, and the lattice stacks the
    layers. `subgroups` is range(m), the positions. The lattice keeps them
    as arrays by position: `packed_masks` (a read-only uint8 matrix, one
    np.packbits row of n bits per subgroup), `orders`, `abelian`, and
    `class_rep`, the least position of each conjugacy class. It holds no
    unpacked mask: membership is a bytewise test on the packed rows, and
    normality a fixed point of the position maps (`normalised_by`).
    `mask`, `ids` and `gens` read one position's row on each call. The
    lattice refers to no table object, so reference counting frees it
    once no table or other name refers to it; the lattices of one shared
    climb hold slices of the same arrays.

    Conjugation by an element permutes positions (`_position_map`). The
    climb hands over each generator's map; another element's map is
    composed from the generators' along a breadth-first word. Classes are
    the orbits of the generators' position maps, labelled by min-label
    propagation; the conjugators a class's orbit walk (`_orbit`) records
    are walked when first read (`conj_to_rep`). `builds` counts the packed
    overgroup rows the climb formed: one per covering pair H < K with
    |K:H| = l.
    """

    def __init__(
        self,
        ct: CayleyTable,
        packed_masks: np.ndarray,
        depth: np.ndarray,
        orders: np.ndarray,
        gens: np.ndarray,
        abelian: np.ndarray,
        maps: np.ndarray,
        class_rep: np.ndarray,
        builds: int,
    ):
        """Keep one table's part of a climb (`_climb`), by position.

        `depth` is the generator count of each position, `gens` the
        generator matrix padded with zeros, `maps` the (generators,
        positions) position maps of the table's generators and `class_rep`
        the least position of each class.
        """
        self.n = ct.n
        self.packed_masks = _frozen(packed_masks)
        self._depth = depth
        self.orders = _frozen(orders)
        self.abelian = _frozen(abelian)
        self._gens = gens
        self.builds = builds
        self._table = ct.table
        self._gen_ids = ct.gen_ids
        self._maps = dict(zip(ct.gen_ids, _frozen(maps)))
        self._tree = None  # breadth-first (parent, generator) per element
        self._walks = {}  # class_rep -> _orbit(class_rep)
        self.subgroups = range(len(orders))
        self.class_rep = _frozen(class_rep)

    def mask(self, pos: int) -> np.ndarray:
        """The read-only bool membership mask of the subgroup at `pos`,
        unpacked from its row."""
        return _frozen(np.unpackbits(self.packed_masks[pos], count=self.n).view(bool))

    def ids(self, pos: int) -> tuple:
        """The sorted element ids of the subgroup at `pos`."""
        return tuple(np.flatnonzero(self.mask(pos)).tolist())

    def gens(self, pos: int) -> tuple:
        """Generators of the subgroup at `pos`: the climb records its
        parent's generators plus the adjoined element."""
        return tuple(self._gens[pos, : self._depth[pos]].tolist())

    def _position_map(self, g: int) -> np.ndarray:
        """pm[i] = position of g^-1 H g, for H the subgroup at position i.

        A generator's map comes from the climb. Any other element is a
        breadth-first word g = g_1 ... g_r in the generators, and H^g =
        (...(H^g_1)...)^g_r, so its map composes theirs, one gather per
        letter. Memoised per element.
        """
        pm = self._maps.get(g)
        if pm is None:
            pm = np.arange(len(self.orders))
            for j in self._word(g):
                pm = self._maps[self._gen_ids[j]][pm]
            self._maps[g] = pm = _frozen(pm)
        return pm

    def _word(self, g: int) -> list:
        """Indices j_1..j_r into the table's generators with g their
        product g_j1 * ... * g_jr, read off a breadth-first tree of the
        right Cayley graph that is built once."""
        if self._tree is None:
            t = self._table
            parent = np.full(len(t), -1, dtype=np.int32)
            via = np.zeros(len(t), dtype=np.int32)
            parent[0] = 0
            frontier = np.zeros(1, dtype=np.intp)
            while frontier.size:
                reached = []
                for j, x in enumerate(self._gen_ids):
                    y = t[frontier, x]
                    fresh = parent[y] < 0
                    parent[y[fresh]] = frontier[fresh]
                    via[y[fresh]] = j
                    reached.append(y[fresh])
                frontier = np.concatenate(reached)
            self._tree = (parent.tolist(), via.tolist())
        parent, via = self._tree
        word = []
        while g:
            word.append(via[g])
            g = parent[g]
        return word[::-1]

    def _orbit(self, pos: int) -> dict:
        """Orbit of the subgroup at `pos` under conjugation by the group.

        Maps the position of each conjugate to an element id c with
        start^c equal to it (0 for the start itself). The traversal is a
        stack over the table's generators in order, which fixes the
        conjugators recorded.
        """
        t = self._table
        moves = [(g, self._position_map(g)) for g in self._gen_ids]
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

    def conj_to_rep(self, pos: int) -> int:
        """An element id c with rep^c the subgroup at `pos`, for rep the
        subgroup at class_rep[pos]: the conjugator the orbit walk from rep
        records for pos, under the table's generators; walked once per
        class, and 0 at a representative."""
        r = int(self.class_rep[pos])
        if r == pos:
            return 0
        walk = self._walks.get(r)
        if walk is None:
            walk = self._walks[r] = self._orbit(r)
        return walk[pos]

    def normalised_by(
        self, positions: Sequence[int], gens: Sequence[int]
    ) -> np.ndarray:
        """The positions among `positions` whose subgroup the group `gens`
        generate normalises, in the given order: those that every
        generator's position map fixes."""
        positions = np.asarray(positions, dtype=np.intp)
        fixed = np.ones(len(positions), dtype=bool)
        for g in gens:
            fixed &= self._position_map(g)[positions] == positions
        return positions[fixed]

    def orbit_reps(
        self, positions: Sequence[int], gens: Sequence[int]
    ) -> np.ndarray:
        """The least position of each orbit under conjugation by the group
        `gens` generate, for `positions` a union of such orbits, ascending:
        the first position of each orbit met."""
        positions = np.asarray(positions, dtype=np.intp)
        maps = [self._position_map(g) for g in gens]
        rep = _least_in_orbits(maps, len(self.orders))
        return positions[rep[positions] == positions]

    def maximal(self) -> np.ndarray:
        """Positions of the maximal subgroups, ascending: in an l-group
        exactly those of index l, so none in the trivial group."""
        full = int(self.orders[-1])
        if full == 1:
            return np.zeros(0, dtype=np.intp)
        return np.flatnonzero(self.orders * prime_power_root(full) == full)


def _least_in_orbits(maps, m: int) -> np.ndarray:
    """rep[i] = the least position in the orbit of position i under the
    group of position maps `maps`, each a permutation of range(m).

    Min-label propagation, rep = min(rep, rep[pm]), with pointer jumping,
    rep = rep[rep]: rep[i] stays in i's orbit and only falls. At the fixed
    point rep[i] <= rep[pm[i]] around each cycle of every pm, so rep is
    constant on orbits, and it is the orbit's least position, which labels
    itself.
    """
    rep = np.arange(m)
    while True:
        new = rep
        for pm in maps:
            new = np.minimum(new, new[pm])
        new = new[new]
        if (new == rep).all():
            return rep
        rep = new


def _take_per_row(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """out[r, x] = a[r, idx[r, x]] for a contiguous 2-D array a, as one flat
    gather. The flat index is formed in int32, as idx is: a holds at most
    _BLOCK_CELLS cells, so it fits."""
    starts = np.arange(0, a.size, a.shape[1], dtype=np.int32)
    return np.take(a.ravel(), idx + starts[:, None])


def _first_rows(rows: np.ndarray) -> tuple:
    """(kept, row_of) for a 2-D array: kept, the index of the first
    occurrence of each distinct row, the rows in descending byte order,
    and row_of[r], the index into kept of row r.

    One stable sort of the rows as byte strings, read backwards.
    Neighbours in sorted order are compared a block of _BLOCK_CELLS bytes
    at a time, so no sorted copy of all rows is made, nor the unsorted one
    `np.unique` makes.
    """
    void = _rows_as_void(rows)
    order = np.argsort(void, kind="stable")
    start = np.ones(len(void), dtype=bool)  # first of its run in sorted order
    step = max(1, _BLOCK_CELLS // rows.shape[1])
    for lo in range(1, len(void), step):
        run = void[order[lo - 1 : lo + step]]
        start[lo : lo + step] = run[1:] != run[:-1]
    first = order[start]  # first occurrence of each distinct row, by ascending bytes
    row_of = np.empty(len(void), dtype=np.int32)
    row_of[order] = len(first) - np.cumsum(start)
    return first[::-1], row_of


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
            raise _over_cap(g.order)
        cols = g.columns(g.generators)
        table = _fill(cols)
        if table is None:
            raise PgfError("generator columns do not reach the whole group")
        return cls(table, tuple(cols[:, 0].tolist()))

    @classmethod
    def from_pc(cls, pres: PcPresentation):
        """Tabulate a pc presentation of order at most DEFAULT_TABLE_CAP
        from its generators' columns (PcPresentation.gen_columns): the
        one-presentation case of `tabulate`.

        Raises PgfError, naming the group and the defect, when the table
        filled from them is not a group (an inconsistent presentation).
        """
        if pres.order > DEFAULT_TABLE_CAP:
            raise _over_cap(pres.order)
        [out] = _pc_tables([pres], pres.gen_columns()[None])
        if isinstance(out, PgfError):
            raise out
        return out

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

    def is_abelian_ids(self, ids: Sequence[int]) -> bool:
        idx = np.asarray(ids, dtype=np.int64)
        block = self.table[idx[:, None], idx]
        return bool((block == block.T).all())

    def center_ids(self) -> tuple:
        mask = (self.table == self.table.T).all(axis=1)
        return tuple(int(v) for v in np.nonzero(mask)[0])

    def _commutators(self, a_ids, b_ids) -> np.ndarray:
        """Ids of the commutators [a, b] = a^-1 b^-1 a b, a in A, b in B, one
        per pair."""
        t = self.table
        a_ids = np.asarray(a_ids, dtype=np.intp)
        b_ids = np.asarray(b_ids, dtype=np.intp)
        ab = t[a_ids[:, None], b_ids]
        ba = t[b_ids[:, None], a_ids].T
        return t[self.inv()[ba], ab].ravel()

    def _normal_closure(self, seeds: Sequence[int]) -> tuple:
        """(mask, generators) of the normal closure of the seed ids.

        A seed outside the subgroup built so far is adjoined as a generator
        and its conjugates by the table's generators become seeds. Each
        adjoined seed multiplies the order by at least l, so there are at
        most log_l(n) closures, and the result is closed under conjugation
        by the generators, hence normal.
        """
        conj = self.conj()
        gen_ids = np.asarray(self.gen_ids, dtype=np.intp)
        member = np.zeros(self.n, dtype=bool)
        member[0] = True
        gens = []
        todo = list(seeds)
        while todo:
            x = todo.pop()
            if member[x]:
                continue
            gens.append(x)
            member = _closure(self.table, np.asarray(gens, dtype=np.intp))
            todo.extend(conj[gen_ids, x].tolist())
        return member, gens

    # ----- whole-group invariants --------------------------------------------
    #
    # Each term below is a normal subgroup computed as the normal closure of
    # seeds formed from generators only (Holt, Eick and O'Brien, Handbook of
    # Computational Group Theory, 2005): for G = <X> and N = <Y> normal,
    # [G, N] is the normal closure of {[x, y] : x in X, y in Y}.

    def _require_prime(self) -> int:
        if self.n == 1:
            return 0
        if self.prime is None:
            raise PgfError(f"order {self.n} is not a prime power")
        return self.prime

    def _exp_step(self, gens: Sequence[int]) -> list:
        """Seeds of [G, N]N^l for N = <gens> normal: l-th powers of N's
        generators and their commutators with G's. Modulo their normal
        closure N is central and generated by elements of order l, so every
        l-th power of N lies in it too."""
        l = self._require_prime()
        powers = self.pow_map(l)[np.asarray(gens, dtype=np.intp)]
        return powers.tolist() + self._commutators(self.gen_ids, gens).tolist()

    def frattini_ids(self) -> tuple:
        """Frattini subgroup: the normal closure of the generators' l-th
        powers and pairwise commutators.

        For an l-group, G/[G,G]G^l is the largest elementary abelian
        quotient, and the quotient by that closure is elementary abelian
        already, so the closure is the Frattini subgroup. The lattice route
        (intersection of maximal subgroups) is used as an independent check
        in the tests.
        """
        if self._frattini is None:
            if self.n == 1:
                self._frattini = (0,)
            else:
                mask, _ = self._normal_closure(self._exp_step(self.gen_ids))
                self._frattini = tuple(np.flatnonzero(mask).tolist())
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
        """Orders along G = S_0 >= S_1 >= ... with S_{t+1} the normal
        closure of step(generators of S_t).

        Ends at 1, or repeats the last order where the series stalls.
        """
        gens = list(self.gen_ids)
        orders = [self.n]
        while orders[-1] > 1:
            mask, gens = self._normal_closure(step(gens))
            orders.append(int(mask.sum()))
            if orders[-1] == orders[-2]:
                break
        return tuple(orders)

    def derived_length(self) -> int:
        """Length of the derived series. Each term [D, D] is characteristic
        in the normal D, so it is the normal closure in G of the
        commutators of D's generators."""
        orders = self._series_orders(lambda gens: self._commutators(gens, gens).tolist())
        if orders[-1] != 1:
            raise PgfError("derived series does not terminate")
        return len(orders) - 1

    def lcs_orders(self) -> tuple:
        """Orders along the lower central series, ending at 1 for nilpotent groups."""
        return self._series_orders(
            lambda gens: self._commutators(self.gen_ids, gens).tolist()
        )

    def lower_exp_orders(self) -> tuple:
        """Orders along the lower exponent-l central series, for l the
        table's prime.

        Step: F_{t+1} = <f**l, [g, f] : f in F_t, g in G>. The first step
        equals the Frattini subgroup for l-groups.
        """
        self._require_prime()
        return self._series_orders(self._exp_step)

    # ----- subgroup lattice ----------------------------------------------------

    def lattice(self) -> Lattice:
        """All subgroups, by cyclic extension one index-l layer at a time:
        the climb of `lattices` with this table alone. Memoised."""
        return lattices([self])[0]


def _over_cap(order: int) -> CapExceeded:
    return CapExceeded(f"order {order} exceeds table cap {DEFAULT_TABLE_CAP}")


def tabulate(presentations: Sequence[PcPresentation]) -> list:
    """The table of each presentation, or the PgfError that
    `CayleyTable.from_pc` raises for it, in the given order, for
    presentations of one prime and generator count.

    The presentations go in blocks of at most _TABULATE_CELLS table cells
    (one table at least), and each block is tabulated as one stack: its
    columns (`stacked_columns`), its fill and its group check are paid
    once per block, not once per presentation.
    """
    if not presentations:
        return []
    shape_of(presentations)
    order = presentations[0].order
    if order > DEFAULT_TABLE_CAP:
        return [_over_cap(order) for _ in presentations]
    step = max(1, _TABULATE_CELLS // order**2)
    out = []
    for lo in range(0, len(presentations), step):
        block = presentations[lo : lo + step]
        out += _pc_tables(block, stacked_columns(block))
    return out


def _pc_tables(presentations: Sequence[PcPresentation], cols: np.ndarray) -> list:
    """The table of each presentation from its generator columns
    cols[i, j, x], or a PgfError naming its group and the defect when the
    table filled from them is not a group."""
    by_col = _fill_normal_forms(cols, presentations[0].prime)
    tables = np.ascontiguousarray(by_col.transpose(0, 2, 1))
    gen_ids = cols[:, :, 0]
    defects = _defects(tables, by_col, gen_ids)
    out = []
    for pres, table, ids, defect in zip(presentations, tables, gen_ids.tolist(), defects):
        if defect is None:
            out.append(CayleyTable(table, tuple(ids)))
        else:
            out.append(PgfError(f"group {pres.group_id}: inconsistent presentation: {defect}"))
    return out


def _fill_normal_forms(cols: np.ndarray, p: int) -> np.ndarray:
    """by_col[i, z, x] = table[x, z] of presentation i, filled from its
    generator columns cols[i, j, x] along the normal forms: each table's
    columns as the rows of one stack.

    An id z != 0 is y * g_t, for t the last non-zero digit of z and y = z
    - w_t, w_t the id of g_t, so its column is g_t's column after y's:
    table[:, z] = cols[t][table[:, y]]. The ids whose normal form ends in
    g_t^e are one strided slice, and y lies in the slice of (t, e - 1), or
    of an earlier t when e = 1, so the fill is one gather per (t, e) for
    the whole stack, ascending. When cols[t][y] = z for each such step, as
    the columns of `stacked_columns` satisfy by construction, row 0 of the
    table is the identity and every z is table[y, w_t] of an earlier y and
    a generator.
    """
    T, n, N = cols.shape
    by_col = np.empty((T, N, N), dtype=np.int32)
    by_col[:, 0] = np.arange(N, dtype=np.int32)
    flat = np.ascontiguousarray(cols).reshape(-1)
    base = np.arange(T, dtype=np.int32)[:, None, None] * (n * N)
    for t in range(n):
        wt = p ** (n - 1 - t)
        at = base + t * N
        for e in range(1, p):
            by_col[:, e * wt :: p * wt] = flat.take(by_col[:, (e - 1) * wt :: p * wt] + at)
    return by_col


def _defects(tables: np.ndarray, by_col: np.ndarray, gen_ids: np.ndarray) -> list:
    """Why each table of a stack filled by `_fill_normal_forms` is not a
    group, or None when it is one; by_col holds each table's columns as
    rows, and gen_ids[i] table i's generators.

    Checks that row 0 is the identity (column 0 is by construction), that
    every row and every column is a permutation, and Light's associativity
    test over the generators: (x*g)*y == x*(g*y) for every generator g and
    all x, y (Clifford and Preston, The Algebraic Theory of Semigroups I,
    1961). The elements satisfying that identity are closed under
    products, and the filler reaches every id z other than 0 as table[y,
    g] of an earlier y and a generator g, so every element is a product of
    generators and passing for the generators proves full associativity.
    Each table gets the first check it fails, the checks taken in that
    order and the generators in theirs. Every check runs on the whole
    stack: both sides of Light's test are whole rows gathered by int32
    row numbers, of the tables and of their columns.
    """
    T, N, _ = tables.shape
    ar = np.arange(N, dtype=np.int32)
    first_row = np.arange(T, dtype=np.int32)[:, None] * N
    defect = [None] * T

    def fail(bad, why):
        for i in np.flatnonzero(bad).tolist():
            if defect[i] is None:
                defect[i] = why(i)

    fail(
        ~(tables[:, 0] == ar).all(axis=1),
        lambda i: "the generators do not reach every element",
    )
    for stack, what in ((tables, "row"), (by_col, "column")):
        fail(
            ~(np.sort(stack, axis=2) == ar).all(axis=(1, 2)),
            lambda i: f"some {what} is not a permutation",
        )
    rows, cols = tables.reshape(T * N, N), by_col.reshape(T * N, N)
    tix = np.arange(T)
    for g in gen_ids.T:
        # (x*g)*y: row x*g of the table; x*(g*y): column g*y, as a row
        left = rows.take((by_col[tix, g] + first_row).ravel(), axis=0).reshape(T, N, N)
        right = cols.take((tables[tix, g] + first_row).ravel(), axis=0).reshape(T, N, N)
        bad = left != right.transpose(0, 2, 1)

        def where(i):
            a, c = np.argwhere(bad[i])[0].tolist()
            return f"associativity fails at ({a}, {int(g[i])}, {c})"

        fail(bad.any(axis=(1, 2)), where)
    return defect


def lattices(tables: Sequence[CayleyTable]) -> list:
    """The lattice of each table, for tables of one order, in the given
    order. The tables whose lattice is not memoised yet are climbed
    together, in one climb (`_climb`), and each keeps its lattice as
    `CayleyTable.lattice` does."""
    todo = list({id(ct): ct for ct in tables if ct._lattice is None}.values())
    if todo:
        for ct, lat in zip(todo, _climb(todo)):
            ct._lattice = lat
    return [ct._lattice for ct in tables]


def _climb(tables: Sequence[CayleyTable]) -> list:
    """The lattices of tables of one order, by one climb of cyclic
    extensions through all of them, one index-l layer at a time.

    A layer holds the subgroups of every table, each row tagged with its
    table, and is climbed as whole arrays, in blocks of at most
    _BLOCK_CELLS cells. The tables, their conjugation maps and their power
    maps are stacked, table i's ids offset by i * n, and a row reads them
    at its table's offset. A candidate g outside H with g**l in H that
    normalises H (maps H's generators into H) spans an overgroup H<g> of
    index l, and every such overgroup arises so. Right-coset labels
    lab_H[x] = min(Hx) name it: key(g) = min over e = 1..l-1 of
    lab_H[g**e] is min(H<g> minus H), so the distinct keys of H's
    candidates are its covering pairs. The conditions are tested only at
    the ids that key themselves, which is exact: k = min(K minus H) for an
    overgroup K is a candidate with H<k> = K, so key(k) = k; and an id
    x != 0 with key(x) = x lies outside H, as the ids of H key to 0. So
    H's covering pairs are the ids k != 0 with key(k) = k that pass the
    tests, at most n/|H| per row. The ids keyed k are K minus H: such a y
    has y**e in Hk for an e prime to l, and y, an l-element, is a power of
    y**e, so y lies in K and not in H. One packed row per covering pair is
    formed (`Lattice.builds`), led by a key of its table, so that rows of
    two tables never merge, and the first occurrence of each row in (H,
    key) order, H by row, is kept: K is reached from the first subgroup it
    covers, recording that subgroup's generators plus the key. Its labels
    are lab_K[x] = min over e < l of lab_H[key**e * x]. The kept rows come
    in descending byte order, which is the new layer's order: by table,
    and within a table by position.

    The pairs, coded H * n + key, ascend, and each names the kept row
    equal to its own. Conjugation by a generator g sends K = H<k> to the
    overgroup of H^g keyed min over e of lab_{H^g}[(k^g)**e], so g's map
    on the new layer is one lookup of that code per K, with H^g read off
    g's map on the layer below; a code that is no pair raises PgfError. A
    table with fewer generators than another is padded with the identity,
    whose map fixes every row. Classes are labelled once, on all tables'
    positions, and each table keeps its slice of every array.
    """
    n = tables[0].n
    if any(ct.n != n for ct in tables):
        raise PgfError("tables climbed together must share one order")
    l = tables[0]._require_prime()
    T = len(tables)
    G = max(len(ct.gen_ids) for ct in tables)
    off = np.arange(T) * n  # the offset of each table's ids
    t = np.concatenate([ct.table for ct in tables])  # t[i*n + a, b]
    conj = np.concatenate([ct.conj() for ct in tables])
    gen_ids = np.zeros((T, G), dtype=np.intp)
    for i, ct in enumerate(tables):
        gen_ids[i, : len(ct.gen_ids)] = ct.gen_ids
    # conj_g[j, i*n + x] = x^g, g table i's generator j
    conj_g = conj[gen_ids + off[:, None]].transpose(1, 0, 2).reshape(G, T * n)
    # pows[e-1][i*n + x] = x**e in table i, e = 1..l-1, and powl x**l
    ar = np.tile(np.arange(n, dtype=np.int32), T)
    row_off = np.repeat(off, n)
    pows = [ar]
    for _ in range(1, l - 1):
        pows.append(t[row_off + pows[-1], ar])
    powl = t[row_off + pows[-1], ar]
    pow_rows = [p.reshape(T, n) for p in pows[1:]]  # [table, x] = x**e, e >= 2
    ids = np.arange(n, dtype=np.int16)
    rows = max(1, _BLOCK_CELLS // n)
    # each packed row leads with T - 1 - table, big-endian, in as many
    # bytes as that takes, so that descending bytes are ascending tables
    lead = ((T - 1).bit_length() + 7) // 8
    tab = np.arange(T)  # the table of each row of the layer
    # the layer's masks, packed; its generators, abelian flags, labels,
    # and the generators' position maps within it
    layer = np.empty((T, lead + (n + 7) // 8), dtype=np.uint8)
    layer[:, :lead] = (T - 1 - tab)[:, None] >> 8 * np.arange(lead - 1, -1, -1) & 0xFF
    layer[:, lead:] = np.packbits(np.arange(n) == 0)
    gens = np.zeros((T, 0), dtype=np.intp)
    abelian = np.ones(T, dtype=bool)
    lab = np.tile(ids, (T, 1))
    pm = np.tile(np.arange(T, dtype=np.int32), (G, 1))
    masks, tabs, gen_layers, abelian_layers, maps = [], [], [], [], []
    builds = np.zeros(T, dtype=np.int64)
    while True:
        row_base = tab * n  # the offset of each row's table
        codes, packed = [], []
        for lo in range(0, len(layer), rows):
            block = np.unpackbits(layer[lo : lo + rows, lead:], axis=1, count=n)
            flat = block.view(bool).ravel()
            lb = lab[lo : lo + rows]
            rb = row_base[lo : lo + rows]
            # key(x) = min over e of lab_H[x**e]; x**1 = x, so for l = 2
            # the key is the label row itself. A block of one table's rows
            # reads each power map as one column gather
            tb = tab[lo : lo + rows]
            key = lb
            for p in pow_rows:
                if tb[0] == tb[-1]:
                    key = np.minimum(key, lb[:, p[tb[0]]])
                else:
                    key = np.minimum(key, _take_per_row(lb, p[tb]))
            # H's keys: the ids x != 0 with key(x) == x, x**l in H, and
            # H's recorded generators conjugated by x in H, ascending
            # per row; k is offset by its table while tested
            own = key == ids
            own[:, 0] = False
            h, k = np.divmod(np.flatnonzero(own), n)
            k += rb.take(h)
            ok = flat.take(h * n + powl.take(k))
            for j in range(gens.shape[1]):
                h, k = h[ok], k[ok]
                ok = flat.take(h * n + conj.take(k * n + gens[lo + h, j]))
            h, k = h[ok], k[ok]
            k -= rb.take(h)
            # the overgroup of each pair: H and the ids with its key,
            # disjoint from H, so OR-ed in packed form
            for a in range(0, len(h), rows):
                hs, ks = h[a : a + rows], k[a : a + rows]
                over = layer[lo + hs]
                fresh = key[hs] == ks[:, None].astype(np.int16)
                over[:, lead:] |= np.packbits(fresh, axis=1)
                packed.append(over)
            codes.append(((h + lo) * n + k).astype(np.int32))
        masks.append(layer)
        tabs.append(tab)
        gen_layers.append(gens)
        abelian_layers.append(abelian)
        maps.append(pm)
        if not packed:
            break
        packed = np.concatenate(packed)
        codes = np.concatenate(codes)
        builds += np.bincount(tab.take(codes // n), minlength=T)
        kept, over_of = _first_rows(packed)
        layer = packed[kept]
        del packed
        h, k = np.divmod(codes.take(kept), n)
        hb = row_base.take(h)
        # conjugates K^g = H^g<k^g>, one row per generator g, coded
        # H^g * n + key
        base = pm.take(h, axis=1) * n
        kg = conj_g.take(hb + k, axis=1)
        want = lab.take(base + kg)  # take reads lab flat
        for p in pows[1:]:
            np.minimum(want, lab.take(base + p.take(hb + kg)), out=want)
        want = base + want
        at = np.searchsorted(codes, want)
        # a code past the last pair is clipped onto it, which differs
        if not (codes.take(at, mode="clip") == want).all():
            raise PgfError("a conjugate subgroup is missing from the lattice")
        pm = over_of.take(at)
        hg = gens[h]
        # K = H<k> is abelian when H is and k commutes with H's generators
        hk = (hb + k)[:, None]
        abelian = abelian[h] & (t[hk, hg] == t[hb[:, None] + hg, k[:, None]]).all(axis=1)
        gens = np.concatenate((hg, k[:, None]), axis=1)
        child = np.empty((len(h), n), dtype=np.int16)  # labels of the new layer
        for lo in range(0, len(h), rows):
            hs, ks, bs = h[lo : lo + rows], k[lo : lo + rows], hb[lo : lo + rows]
            lh = lab[hs]
            out = child[lo : lo + rows]
            out[...] = lh
            for p in pows:
                np.minimum(out, _take_per_row(lh, t[bs + p.take(bs + ks)]), out=out)
        lab = child
        tab = tab.take(h)

    # stack the layers, then order the rows by table: each table's rows
    # are then one slice, its layers in order, each in position order
    sizes = [len(layer) for layer in masks]
    m = sum(sizes)
    padded = np.zeros((m, len(masks) - 1), dtype=np.int32)
    stacked = np.empty((G, m), dtype=np.int32)
    at = 0
    for j, size in enumerate(sizes):
        padded[at : at + size, :j] = gen_layers[j]
        stacked[:, at : at + size] = maps[j] + at
        at += size
    tab = np.concatenate(tabs)
    order = np.argsort(tab, kind="stable")
    where = np.empty(m, dtype=np.int32)
    where[order] = np.arange(m, dtype=np.int32)
    stacked = where[stacked[:, order]]
    class_rep = _least_in_orbits(stacked, m)
    depth = np.repeat(np.arange(len(masks), dtype=np.uint8), sizes)[order]
    orders = (l or 1) ** depth.astype(np.int64)
    packed_masks = np.ascontiguousarray(np.concatenate(masks)[order, lead:])
    padded = padded[order]
    abelian = np.concatenate(abelian_layers)[order]
    starts = np.concatenate(([0], np.cumsum(np.bincount(tab, minlength=T))))
    out = []
    for i, ct in enumerate(tables):
        s, e = starts[i], starts[i + 1]
        out.append(
            Lattice(
                ct,
                packed_masks[s:e],
                depth[s:e],
                orders[s:e],
                padded[s:e],
                abelian[s:e],
                stacked[: len(ct.gen_ids), s:e] - s,
                class_rep[s:e] - s,
                int(builds[i]),
            )
        )
    return out
