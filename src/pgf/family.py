"""Construction certificates and the semiabelian decision procedure.

A certificate is a term over four constructors:

    C(l,k)            cyclic group of order l**k
    D(a,b)            direct product
    W(inner,outer)    regular wreath product
    Q(child;w1,...)   quotient of child by the normal closure of the listed
                      words, which must land inside the Frattini subgroup

All leaves of one certificate must share the same prime. Words are written
in the child's generators: factors "g<k>" with an optional integer exponent
"g2^-1", commutators "[w1,w2]", joined by "*".

Evaluating a certificate produces a permutation group whose rank equals the
declared rank read off the tree (1 for C, sums for D and W, unchanged by Q
because the quotient kernel sits inside the Frattini subgroup); evaluation
verifies that equality and fails loudly if the engine ever breaks it.

A group is semiabelian when it is trivial, abelian, or splits as G = A * H
with A a normal abelian subgroup, H a proper subgroup that is itself
semiabelian. The constructible family above coincides with the semiabelian
groups at each prime, so membership is decided by the decomposition
search in `is_semiabelian`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .arith import is_prime
from .errors import CapExceeded, InvalidCertificate, PgfError
from .group import DEFAULT_ENUM_CAP, PermGroup
from .ops import (
    DEFAULT_DEGREE_CAP,
    cyclic_group,
    direct_product,
    frattini_subgroup,
    normal_closure,
    quotient_group,
    rank,
    wreath_regular,
)
from .perm import commutator
from .table import CayleyTable

SCREEN_NOT_MEMBER = "definitely_not_member"
SCREEN_INCONCLUSIVE = "inconclusive"

# deepest bracket nesting a certificate may have. Evaluation recurses once
# or twice per level; under Python's default recursion limit a quotient
# chain still evaluated at about 400 levels in a fresh CLI process and 460
# under pytest, and crashed at 500, so this leaves room for deeper callers
MAX_NESTING = 200


# ----- certificate terms -------------------------------------------------------


@dataclass(frozen=True)
class Cyclic:
    prime: int
    exponent: int


@dataclass(frozen=True)
class DirectProduct:
    left: "Cert"
    right: "Cert"


@dataclass(frozen=True)
class Wreath:
    inner: "Cert"
    outer: "Cert"


@dataclass(frozen=True)
class FrattiniQuotient:
    child: "Cert"
    words: tuple  # parsed word trees, see _parse_word


Cert = Union[Cyclic, DirectProduct, Wreath, FrattiniQuotient]


def _children(c: Cert) -> tuple:
    """The two operands of a D or W node, in constructor order."""
    if isinstance(c, DirectProduct):
        return c.left, c.right
    return c.inner, c.outer


def cert_prime(c: Cert) -> int:
    """The common prime of all leaves; mixed primes invalidate the term, as
    do a word generator index below 1 and nesting deeper than MAX_NESTING,
    checked before anything recurses.

    Nesting counts brackets as the parser does: each term's "(" and each
    commutator's "[" in a quotient's words. A product nested directly in a
    product, which only a term built in code holds, counts as one more.
    """
    primes = set()
    # (node, depth): a term with the depth of its own "(", a word with the
    # number of brackets around it. Children are pushed in reverse, so
    # leaves are checked left to right.
    stack = [(c, 1)]
    while stack:
        t, depth = stack.pop()
        if isinstance(t, tuple):  # a word, see _parse_word
            if t[0] == "comm":
                depth += 1
                kids = [(w, depth) for w in t[1:]]
            elif t[0] == "prod":
                kids = [(w, depth + 1 if w[0] == "prod" else depth) for w in t[1]]
            elif t[1] < 1:  # as the parser requires; g0 would read gens[-1]
                raise InvalidCertificate(f"generator index must be >= 1, not {t[1]}")
            else:
                kids = []
            if depth > MAX_NESTING:
                raise InvalidCertificate(f"certificate nests deeper than {MAX_NESTING}")
            stack.extend(reversed(kids))
            continue
        if depth > MAX_NESTING:
            raise InvalidCertificate(f"certificate nests deeper than {MAX_NESTING}")
        if isinstance(t, Cyclic):
            if t.prime > DEFAULT_DEGREE_CAP:  # trial division on a huge l takes minutes
                raise _size_error(t)
            if not is_prime(t.prime):
                raise InvalidCertificate(f"{t.prime} is not prime")
            if t.exponent < 1:
                raise InvalidCertificate("cyclic exponent must be >= 1")
            primes.add(t.prime)
        elif isinstance(t, (DirectProduct, Wreath)):
            stack.extend((k, depth + 1) for k in reversed(_children(t)))
        elif isinstance(t, FrattiniQuotient):
            stack.extend((w, depth) for w in reversed(t.words))
            stack.append((t.child, depth + 1))
        else:
            raise InvalidCertificate(f"not a certificate term: {t!r}")
    if len(primes) != 1:
        raise InvalidCertificate(
            f"certificate mixes primes {sorted(primes)}: {serialize_cert(c)}"
        )
    return primes.pop()


def declared_rank(c: Cert) -> int:
    """Rank promised by the shape of the term alone."""
    if isinstance(c, Cyclic):
        return 1
    if isinstance(c, FrattiniQuotient):
        return declared_rank(c.child)
    return sum(declared_rank(k) for k in _children(c))


# ----- text form ----------------------------------------------------------------


_QUOTE = 40


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # brackets open at pos

    def fail(self, msg: str):
        # quote at most _QUOTE characters on each side of the position, so
        # a huge text still gives a short error
        near = self.text[max(0, self.pos - _QUOTE) : self.pos + _QUOTE]
        raise InvalidCertificate(
            f"{msg} at position {self.pos} of {len(self.text)} near {near!r}"
        )

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        if ch in "([":
            if self.depth == MAX_NESTING:
                self.fail(f"nesting deeper than {MAX_NESTING}")
            self.depth += 1
        elif ch in ")]":
            self.depth -= 1
        self.pos += 1

    def take_int(self) -> int:
        self.peek()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        digits = self.text[start : self.pos]
        if not digits.lstrip("-"):
            self.fail("expected an integer")
        try:
            return int(digits)
        except ValueError:  # past Python's limit on integer digits
            self.pos = start
            self.fail(f"integer of {len(digits)} characters is too long")


def parse_cert(text: str) -> Cert:
    """Parse the certificate grammar; raises InvalidCertificate on errors."""
    cur = _Cursor(text)
    c = _parse_cert(cur)
    if cur.peek():
        cur.fail("unexpected trailing text")
    cert_prime(c)  # validates leaves and the single-prime rule
    return c


def _parse_cert(cur: _Cursor) -> Cert:
    head = cur.peek()
    if head == "C":
        cur.pos += 1
        cur.take("(")
        l = cur.take_int()
        cur.take(",")
        k = cur.take_int()
        cur.take(")")
        if l > DEFAULT_DEGREE_CAP:  # trial division on a huge l takes minutes
            raise _size_error(Cyclic(l, k))
        if not is_prime(l):
            cur.fail(f"{l} is not prime")
        if k < 1:
            cur.fail("cyclic exponent must be >= 1")
        return Cyclic(l, k)
    if head in ("D", "W"):
        cur.pos += 1
        cur.take("(")
        a = _parse_cert(cur)
        cur.take(",")
        b = _parse_cert(cur)
        cur.take(")")
        return DirectProduct(a, b) if head == "D" else Wreath(a, b)
    if head == "Q":
        cur.pos += 1
        cur.take("(")
        child = _parse_cert(cur)
        cur.take(";")
        words = [_parse_word(cur)]
        while cur.peek() == ",":
            cur.take(",")
            words.append(_parse_word(cur))
        cur.take(")")
        return FrattiniQuotient(child, tuple(words))
    cur.fail("expected one of C, D, W, Q")


def _parse_word(cur: _Cursor):
    factors = [_parse_factor(cur)]
    while cur.peek() == "*":
        cur.take("*")
        factors.append(_parse_factor(cur))
    return factors[0] if len(factors) == 1 else ("prod", tuple(factors))


def _parse_factor(cur: _Cursor):
    head = cur.peek()
    if head == "[":
        cur.take("[")
        a = _parse_word(cur)
        cur.take(",")
        b = _parse_word(cur)
        cur.take("]")
        return ("comm", a, b)
    if head == "g":
        cur.pos += 1
        i = cur.take_int()
        if i < 1:
            cur.fail("generator index must be >= 1")
        e = 1
        if cur.peek() == "^":
            cur.take("^")
            e = cur.take_int()
        return ("gen", i, e)
    cur.fail("expected 'g<k>' or '[word,word]'")


def serialize_cert(c: Cert) -> str:
    if isinstance(c, Cyclic):
        return f"C({c.prime},{c.exponent})"
    if isinstance(c, DirectProduct):
        return f"D({serialize_cert(c.left)},{serialize_cert(c.right)})"
    if isinstance(c, Wreath):
        return f"W({serialize_cert(c.inner)},{serialize_cert(c.outer)})"
    words = ",".join(_word_text(w) for w in c.words)
    return f"Q({serialize_cert(c.child)};{words})"


def _word_text(w) -> str:
    if w[0] == "gen":
        _, i, e = w
        return f"g{i}" if e == 1 else f"g{i}^{e}"
    if w[0] == "comm":
        return f"[{_word_text(w[1])},{_word_text(w[2])}]"
    return "*".join(_word_text(f) for f in w[1])


# ----- evaluation ---------------------------------------------------------------

_EVAL_CACHE: dict = {}


def eval_cert(c: Cert) -> PermGroup:
    """Build the permutation group a certificate describes.

    Raises InvalidCertificate for mixed primes, out-of-range word
    generators, or quotient selectors escaping the Frattini subgroup;
    CapExceeded when an intermediate group would pass the size limits.
    """
    cert_prime(c)
    return _eval(c)


def _eval(c: Cert) -> PermGroup:
    hit = _EVAL_CACHE.get(c)
    if hit is not None:
        return hit
    if isinstance(c, FrattiniQuotient):
        child = _eval(c.child)
        label = serialize_cert(c)
        seeds = [_eval_word(w, child.generators, label) for w in c.words]
        n = normal_closure(child, seeds)
        phi = frattini_subgroup(child)
        for s in n.generators:
            if not phi.contains(s):
                raise InvalidCertificate(
                    "quotient selector escapes the Frattini subgroup: " + label
                )
        g = quotient_group(child, n).group
    else:
        kids = [] if isinstance(c, Cyclic) else [_eval(k) for k in _children(c)]
        if _node_size(c, *((k.order, k.degree) for k in kids)) is None:
            raise _size_error(c)
        if isinstance(c, Cyclic):
            g = cyclic_group(c.prime, c.exponent)
        elif isinstance(c, DirectProduct):
            g = direct_product(*kids)
        else:
            g = wreath_regular(*kids)
    want = declared_rank(c)
    got = rank(g)
    if want != got:
        raise PgfError(
            f"declared rank {want} but computed rank {got}: {serialize_cert(c)}"
        )
    _EVAL_CACHE[c] = g
    return g


def _size_error(c: Cert) -> CapExceeded:
    # quote at most 2 * _QUOTE characters of the term, as _Cursor.fail does
    text = serialize_cert(c)
    if len(text) > 2 * _QUOTE:
        text = f"{text[: 2 * _QUOTE]}... ({len(text)} characters)"
    return CapExceeded(
        f"{text} exceeds the size limits: order "
        f"{DEFAULT_ENUM_CAP}, degree {DEFAULT_DEGREE_CAP}"
    )


# a power base**exp with exp * floor(log2(base)) above this many bits is
# certainly above the order limit, so it is never computed
_ORDER_BITS = DEFAULT_ENUM_CAP.bit_length()


def _node_size(c: Cert, a: tuple = (1, 0), b: tuple = (1, 0)) -> Optional[tuple]:
    """(order, degree) of a C, D or W node, given its children's (order,
    degree) pairs `a` and `b`; None once either passes its limit,
    DEFAULT_ENUM_CAP or DEFAULT_DEGREE_CAP. A cyclic group acts on its own
    elements, a direct product on the disjoint union of the factors' points
    and a wreath product on one copy of the inner points per outer
    element. No power is computed past the order limit."""
    if isinstance(c, DirectProduct):
        order, degree = a[0] * b[0], a[1] + b[1]
    else:
        if isinstance(c, Cyclic):
            base, exp, m = c.prime, c.exponent, 1
        else:
            base, exp, m = a[0], b[0], b[0]
        if base > 1 and exp * (base.bit_length() - 1) > _ORDER_BITS:
            return None
        order = base**exp * m
        degree = order if isinstance(c, Cyclic) else a[1] * m
    if order > DEFAULT_ENUM_CAP or degree > DEFAULT_DEGREE_CAP:
        return None
    return order, degree


def _eval_word(w, gens, label):
    if w[0] == "gen":
        _, i, e = w
        if i > len(gens):
            raise InvalidCertificate(
                f"word uses g{i} but the child has only {len(gens)} generators: "
                + label
            )
        return gens[i - 1] ** e
    if w[0] == "comm":
        return commutator(
            _eval_word(w[1], gens, label), _eval_word(w[2], gens, label)
        )
    out = _eval_word(w[1][0], gens, label)
    for f in w[1][1:]:
        out = out * _eval_word(f, gens, label)
    return out


# ----- corpus -------------------------------------------------------------------

# quotient certificates cannot be enumerated mechanically (selectors are
# free text), so the corpus carries a curated set over the same leaves
_CORPUS_QUOTIENTS = (
    "Q(C(2,2);g1^2)",
    "Q(C(3,2);g1^3)",
    "Q(W(C(2,1),C(2,1));[g1,g2])",
    "Q(W(C(3,1),C(3,1));[g1,g2])",
    "Q(D(C(2,2),C(2,2));g1^2*g2^2)",
    "Q(D(C(3,2),C(3,1));g1^3)",
    "Q(W(C(2,1),C(2,1));[g1,g2],g1^2)",
    "Q(Q(D(C(2,2),C(2,2));g1^2*g2^2);g1^2)",
)


def certificate_corpus(max_constructors: int = 3) -> tuple:
    """Every D/W tree over the standard leaves within the size limits, plus
    the curated quotient certificates; deterministic order."""
    out = []
    for l in (2, 3):
        # entries are (cert, order, degree), sized by _node_size
        leaves = [Cyclic(l, 1), Cyclic(l, 2)]
        layers = [[(c,) + _node_size(c) for c in leaves]]
        for size in range(1, max_constructors + 1):
            layer = []
            for i in range(size):
                j = size - 1 - i
                for a in layers[i]:
                    for b in layers[j]:
                        for ctor in (DirectProduct, Wreath):
                            c = ctor(a[0], b[0])
                            fit = _node_size(c, a[1:], b[1:])
                            if fit is not None:
                                layer.append((c,) + fit)
            layers.append(layer)
        for layer in layers:
            out.extend(entry[0] for entry in layer)
    # constants, each within the limits
    out.extend(parse_cert(text) for text in _CORPUS_QUOTIENTS)
    out.sort(key=lambda c: (_constructor_count(c), serialize_cert(c)))
    return tuple(out)


def _constructor_count(c: Cert) -> int:
    if isinstance(c, Cyclic):
        return 0
    if isinstance(c, FrattiniQuotient):
        return 1 + _constructor_count(c.child)
    return 1 + sum(_constructor_count(k) for k in _children(c))


# ----- semiabelian decision -----------------------------------------------------

# _BIT_COUNT[b] = the number of set bits of the byte b
_BIT_COUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


@dataclass(frozen=True)
class SemiabelianVerdict:
    """Outcome of the decomposition search.

    On success `witness` lists (A_ids, H_ids) steps: the current group S
    factors as the product A * H with A normal abelian in S and H a proper
    subgroup, and the next step continues inside H until H is trivial. On
    failure `search` reports the exhausted search space.
    """

    flag: bool
    witness: Optional[tuple] = None
    search: Optional[dict] = None


def is_semiabelian(g: PermGroup) -> SemiabelianVerdict:
    """Decide semiabelianity of a group of order at most DEFAULT_TABLE_CAP."""
    return semiabelian_table(CayleyTable.from_perm_group(g))


def semiabelian_table(ct: CayleyTable) -> SemiabelianVerdict:
    """Drive the decomposition search on a tabulated group.

    Candidate pairs run over normal abelian subgroups A of the current
    group S (largest first) and conjugacy class representatives H of
    proper subgroups of S (smallest first). Since A is normal in S, A * H
    is a subgroup, so the order identity |A||H| = |S||A inter H| alone
    proves A * H = S.
    Results are memoized per conjugacy class of the ambient group, with
    witnesses translated back through the recorded conjugator, since
    conjugate subgroups decompose compatibly.
    """
    n = ct.n
    if n == 1:
        return SemiabelianVerdict(True, ())
    all_ids = tuple(range(n))
    if ct.is_abelian_ids(all_ids):
        return SemiabelianVerdict(True, ((all_ids, (0,)),))
    if ct.prime is None:
        raise PgfError(f"order {n} is not a prime power")
    lat = ct.lattice()
    m = len(lat.subgroups)
    stats = {"subgroups": m, "classes_examined": 0, "pairs_tested": 0}
    memo: dict = {}

    def solve(r):
        stats["classes_examined"] += 1
        order = lat.orders[r]
        if order == 1:
            return True, ()
        if lat.abelian[r]:
            return True, ((lat.ids(r), (0,)),)
        # positions of the subgroups inside S, S last: no element outside
        # S, tested bytewise on the packed rows
        row = lat.packed_masks[r]
        members = np.flatnonzero(~(lat.packed_masks[: r + 1] & ~row).any(axis=1))
        whole = r == m - 1
        gens = ct.gen_ids if whole else lat.gens(r)
        # A is normal in S when S's generators fix its position; largest
        # first, then by position, which orders equal orders by ids
        o = lat.orders[members]
        a_cands = members[lat.abelian[members] & (1 < o) & (o < order)]
        a_cands = lat.normalised_by(a_cands, gens)
        a_cands = a_cands[np.argsort(-lat.orders[a_cands], kind="stable")].tolist()
        # one representative per S-class of proper subgroups: the first
        # member of each orbit in (order, ids) order. For S = G these are
        # the fused classes, whose first member is their class_rep.
        if whole:
            h_reps = np.flatnonzero(lat.class_rep[:-1] == np.arange(m - 1))
        else:
            h_reps = lat.orbit_reps(members[:-1], gens)
        h_rows = lat.packed_masks[h_reps]
        h_orders = lat.orders[h_reps]
        for a in a_cands:
            # |A inter H| for every H at once: the set bits of each byte
            meet = _BIT_COUNT[h_rows & lat.packed_masks[a]].sum(axis=1, dtype=np.int64)
            fits = lat.orders[a] * h_orders == order * meet
            for h in h_reps[fits].tolist():
                stats["pairs_tested"] += 1
                ok, sub_chain = decide(h)
                if ok:
                    return True, ((lat.ids(a), lat.ids(h)),) + sub_chain
        return False, None

    def decide(i):
        r = int(lat.class_rep[i])
        if r not in memo:
            memo[r] = solve(r)
        flag, chain = memo[r]
        if not flag:
            return False, None
        c = lat.conj_to_rep(i)
        if c == 0:
            return True, chain
        return True, tuple(
            (ct.conjugate_ids(a, c), ct.conjugate_ids(h, c)) for a, h in chain
        )

    ok, chain = decide(m - 1)
    del solve  # breaks the solve-decide cycle, which would hold the lattice
    if ok:
        return SemiabelianVerdict(True, chain)
    return SemiabelianVerdict(False, None, dict(stats))


def validate_witness(ct: CayleyTable, chain) -> bool:
    """Re-check a witness chain from the raw table, independently of the
    search: each step needs A, H closed, A abelian and normal in the
    current group, H proper, and the product set A*H covering it.

    Sets are membership masks, and each condition is one whole-array test:
    a nonempty subset closed under products is a subgroup, so A*A inside
    A, and likewise H*H, proves closure."""
    if chain is None:
        return False
    t = ct.table
    inv = ct.inv()
    n = ct.n
    current = np.ones(n, dtype=bool)
    cur_arr = np.arange(n)
    for a_ids, h_ids in chain:
        a_arr = np.asarray(a_ids, dtype=np.intp)
        h_arr = np.asarray(h_ids, dtype=np.intp)
        if not (a_arr.size and h_arr.size):
            return False
        both = np.concatenate((a_arr, h_arr))
        if both.min() < 0 or both.max() >= n or not current[both].all():
            return False
        a = np.zeros(n, dtype=bool)
        a[a_arr] = True
        h = np.zeros(n, dtype=bool)
        h[h_arr] = True
        a_arr, h_arr = np.flatnonzero(a), np.flatnonzero(h)
        if len(h_arr) >= len(cur_arr):
            return False
        block = t[a_arr[:, None], a_arr]
        if not a[block].all():
            return False
        if not h[t[h_arr[:, None], h_arr]].all():
            return False
        if not (block == block.T).all():
            return False
        twisted = t[t[inv[cur_arr][:, None], a_arr], cur_arr[:, None]]
        if not a[twisted].all():
            return False
        covered = np.zeros(n, dtype=bool)
        covered[t[a_arr[:, None], h_arr]] = True
        if not (covered == current).all():
            return False
        current, cur_arr = h, h_arr
    return len(cur_arr) == 1
