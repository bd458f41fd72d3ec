"""Brute-force reference computations for small groups.

Everything here works on explicit element sets obtained by naive closure,
with no stabilizer chains, no collection and no Cayley tables, so these
values are independent of every production code path they are compared to.
The one exception, the presentation oracle, multiplies by collection from
the left, one product at a time, and checks every triple. The production
route fills generator columns by recursion on normal forms and never
collects, so the two share no arithmetic. Only usable for small orders;
that is the point.
"""

import math
from itertools import combinations, product

import numpy as np

from pgf.errors import PgfError
from pgf.perm import Perm, commutator
from pgf.verify import naive_closure


def closure_of(elems, degree):
    gens = list(elems) or [Perm.identity(degree)]
    return naive_closure(gens)


def brute_center(elems):
    els = list(elems)
    return {z for z in els if all(z * g == g * z for g in els)}


def brute_commutator_subgroup(elems, degree):
    comms = {commutator(a, b) for a in elems for b in elems}
    return closure_of(comms, degree)


def brute_power_subgroup(elems, l, degree):
    pows = set()
    for a in elems:
        q = Perm.identity(degree)
        for _ in range(l):
            q = q * a
        pows.add(q)
    return closure_of(pows, degree)


def brute_frattini(elems, l, degree):
    """For an l-group: closure of all l-th powers and all commutators."""
    seed = {commutator(a, b) for a in elems for b in elems}
    seed |= brute_power_subgroup(elems, l, degree)
    return closure_of(seed, degree)


def brute_rank(elems, l, degree):
    phi = brute_frattini(elems, l, degree)
    quot = len(elems) // len(phi)
    r = round(math.log(quot, l))
    assert l**r == quot
    return r


def brute_derived_length(elems, degree):
    cur = set(elems)
    length = 0
    while len(cur) > 1:
        nxt = brute_commutator_subgroup(cur, degree)
        assert len(nxt) < len(cur), "derived series must strictly descend here"
        cur = nxt
        length += 1
    return length


def brute_subgroups(elems, degree, max_gens=None):
    """All subgroups, as frozensets, by closing every small generating
    subset. For a group of order p**k every subgroup is generated by at
    most k elements, so max_gens defaults to log2(order)."""
    els = sorted(elems, key=lambda p: p.images)
    if max_gens is None:
        max_gens = max(1, round(math.log2(len(els))))
    found = {frozenset([Perm.identity(degree)])}
    for size in range(1, max_gens + 1):
        for combo in combinations(els, size):
            found.add(frozenset(closure_of(combo, degree)))
    return found


def brute_normal_closure(g_gens, seeds, degree):
    """Smallest subgroup containing the seeds and stable under conjugation
    by every given generator: alternate product closure with conjugation
    sweeps until nothing new appears. Generator-stability suffices for
    normality because conjugation permutes a finite subgroup."""
    cur = closure_of(set(seeds), degree)
    while True:
        extra = {(g.inverse() * s) * g for s in cur for g in g_gens} - cur
        if not extra:
            return cur
        cur = closure_of(cur | extra, degree)


def brute_lower_central_ranks(g_gens, l, degree):
    """Factor ranks of the lower central series, entirely by enumeration.

    Each term is the naive normal closure of the commutators of the group
    generators against every element of the previous term (the previous
    term is normal, so ranging over all its elements is enough). Each
    factor rank comes from the index of bottom * l-th-powers inside the
    top term."""
    series = [closure_of(g_gens, degree)]
    while len(series[-1]) > 1:
        seeds = {commutator(t, y) for t in g_gens for y in series[-1]}
        seeds.discard(Perm.identity(degree))
        if not seeds:
            series.append({Perm.identity(degree)})
            break
        nxt = brute_normal_closure(g_gens, seeds, degree)
        assert len(nxt) < len(series[-1])
        series.append(nxt)
    ranks = []
    for top, bot in zip(series, series[1:]):
        lpows = set()
        for x in top:
            q = Perm.identity(degree)
            for _ in range(l):
                q = q * x
            lpows.add(q)
        pre = closure_of(bot | lpows, degree)
        quot = len(top) // len(pre)
        r = round(math.log(quot, l))
        assert l**r == quot
        ranks.append(r)
    return ranks


def brute_normal_subgroups(elems, degree):
    full = set(elems)
    out = []
    for sub in brute_subgroups(elems, degree):
        if all((g.inverse() * s) * g in sub for s in sub for g in full):
            out.append(sub)
    return out


def is_abelian_elems(elems):
    els = list(elems)
    return all(a * b == b * a for a in els for b in els)


def order_histogram(elems):
    hist = {}
    for p in elems:
        hist[p.order()] = hist.get(p.order(), 0) + 1
    return tuple(sorted(hist.items()))


_COLLECT_STEP_CAP = 50_000_000


def collect(pres, u, letters):
    """Collection from the left with an explicit letter stack: the exponent
    vector u (a list, changed in place) times the letters, as a normal form."""
    p = pres.prime
    n = pres.ngens
    stack = list(letters)
    stack.reverse()
    steps = 0
    while stack:
        steps += 1
        if steps > _COLLECT_STEP_CAP:
            raise PgfError("collection did not terminate within the step cap")
        i = stack.pop()
        t = -1
        for j in range(n - 1, i, -1):
            if u[j]:
                t = j
                break
        if t < 0:
            u[i] += 1
            if u[i] == p:
                u[i] = 0
                w = pres._pow_letters[i]
                if w:
                    stack.extend(reversed(w))
        else:
            # u ends in g_t; swap it past g_i:  g_t g_i = g_i g_t [g_t, g_i]
            u[t] -= 1
            c = pres._comm_letters.get((t, i), ())
            if c:
                stack.extend(reversed(c))
            stack.append(t)
            stack.append(i)
    return u


def pc_elements(pres):
    """All exponent vectors in lex order, the identity first: the vector
    at index x is the element with id x in a table from the presentation."""
    return list(product(range(pres.prime), repeat=pres.ngens))


def pc_id(pres, vec):
    """The lex-order number of an exponent vector, its digits base p."""
    out = 0
    for x in vec:
        out = out * pres.prime + int(x)
    return out


def pc_multiply(pres, a, b):
    """The normal form of a * b, collected."""
    return tuple(collect(pres, list(a), pres._letters(b)))


def collected_columns(pres):
    """cols[j][x] = id of element(x) * g_j, each entry collected."""
    cols = np.empty((pres.ngens, pres.order), dtype=np.int32)
    for j in range(pres.ngens):
        for x, vec in enumerate(pc_elements(pres)):
            cols[j, x] = pc_id(pres, collect(pres, list(vec), (j,)))
    return cols


def brute_pc_is_group(pres):
    """Whether collection in `pres` defines a group, by checking the group
    axioms on every product and every triple of elements. Products come
    from the collector element by element, never from the table builder."""
    els = pc_elements(pres)
    n = len(els)
    t = np.array([[pc_id(pres, pc_multiply(pres, a, b)) for b in els] for a in els])
    ids = np.arange(n)
    if (t[0] != ids).any() or (t[:, 0] != ids).any():
        return False
    if not (t == 0).any(axis=1).all():
        return False  # some element has no right inverse
    # (a*b)*c against a*(b*c) for all n**3 triples at once
    return bool((t[t] == t[ids[:, None, None], t[None, :, :]]).all())


# ----- table-level references ----------------------------------------------
#
# These work on a CayleyTable's ids but take no shortcut the production code
# takes: subgroups are closed under the products of all pairs of their
# members, series terms are closed from the commutators of every pair of
# elements and the l-th powers of every element, subgroup classes are
# fused by conjugating id tuples, and conjugation permutes subgroups by
# conjugating every membership mask.


def table_closure(ct, seed_ids):
    """Sorted ids of the subgroup of the table that the seed ids
    generate: the identity and the seeds, with every product of two members
    added until none is new. A finite set closed under products is a
    subgroup."""
    member = np.zeros(ct.n, dtype=bool)
    member[0] = True
    member[list(seed_ids)] = True
    while True:
        ids = np.flatnonzero(member)
        grown = member.copy()
        grown[ct.table[np.ix_(ids, ids)]] = True
        if (grown == member).all():
            return tuple(ids.tolist())
        member = grown


def table_subgroups(ct):
    """Every subgroup of the table as a sorted id tuple: from the trivial
    subgroup, each subgroup found with each element outside it adjoined."""
    found = {(0,)}
    todo = [(0,)]
    while todo:
        h = todo.pop()
        for x in sorted(set(range(ct.n)) - set(h)):
            k = table_closure(ct, h + (x,))
            if k not in found:
                found.add(k)
                todo.append(k)
    return found


def _all_commutators(ct, a_ids, b_ids):
    t = ct.table
    a = np.asarray(a_ids, dtype=np.intp)
    b = np.asarray(b_ids, dtype=np.intp)
    ab = t[np.ix_(a, b)]
    ba = t[np.ix_(b, a)].T
    return set(t[ct.inv()[ba], ab].ravel().tolist())


def _table_series(ct, step):
    cur = tuple(range(ct.n))
    terms = [cur]
    while len(cur) > 1:
        nxt = table_closure(ct, step(cur))
        terms.append(nxt)
        if len(nxt) == len(cur):
            break
        cur = nxt
    return terms


def all_pairs_invariants(ct):
    """(Frattini ids, rank, derived length, lower central orders, lower
    exponent-l central orders) of a nontrivial l-group table, from every
    pair of elements of each term."""
    l = ct.prime
    every = tuple(range(ct.n))
    powl = ct.pow_map(l)
    frattini = table_closure(ct, _all_commutators(ct, every, every) | set(powl.tolist()))
    derived = _table_series(ct, lambda cur: _all_commutators(ct, cur, cur))
    assert len(derived[-1]) == 1, "derived series must end at 1"
    lcs = _table_series(ct, lambda cur: _all_commutators(ct, every, cur))
    lower_exp = _table_series(
        ct, lambda cur: _all_commutators(ct, every, cur) | set(powl[list(cur)].tolist())
    )
    return (
        frattini,
        round(math.log(ct.n // len(frattini), l)),
        len(derived) - 1,
        tuple(map(len, lcs)),
        tuple(map(len, lower_exp)),
    )


def eager_fusion(ct, subgroups):
    """(class_rep, conj_to_rep) per position of `subgroups`, a list of
    sorted id tuples closed under conjugation, as eager fusion computed
    them: positions are visited in increasing order, each unvisited one
    starts a stack walk over the table's generators in order, and each
    conjugate reached records the product c of the generators that led to
    it, so start^c is that conjugate."""
    t, conj = ct.table, ct.conj()
    where = {ids: i for i, ids in enumerate(subgroups)}
    m = len(subgroups)
    class_rep, conj_to_rep = [-1] * m, [0] * m
    for start in range(m):
        if class_rep[start] != -1:
            continue
        class_rep[start] = start
        stack = [(start, 0)]
        while stack:
            p, c = stack.pop()
            for g in ct.gen_ids:
                image = tuple(sorted(conj[g, list(subgroups[p])].tolist()))
                q = where[image]
                if class_rep[q] == -1:
                    cg = int(t[c, g])
                    class_rep[q], conj_to_rep[q] = start, cg
                    stack.append((q, cg))
    return class_rep, conj_to_rep


def conjugation_position_maps(ct, masks, elements):
    """{g: pm} for each element id g, with pm[i] the row of `masks` (the
    stacked membership masks of a conjugation-closed set of subgroups)
    equal to the mask of g^-1 H g, for H the subgroup of row i. Every mask
    is conjugated: y lies in H^g exactly when g y g^-1 lies in H."""
    rows = {m.tobytes(): i for i, m in enumerate(masks)}
    conj, inv = ct.conj(), ct.inv()
    return {
        g: np.array([rows[r.tobytes()] for r in masks[:, conj[inv[g]]]])
        for g in elements
    }
