"""Power-commutator presentations with prime exponent, and their tables.

A presentation on generators g1..gn over the prime p consists of

* power relations   gi^p = w,   w a word in generators with index > i,
* commutator relations  [gj, gi] = gj^-1 gi^-1 gj gi = w,  j > i,
  w a word in generators with index > j,

with omitted relations meaning trivial right-hand sides. Elements are
exponent vectors (e1..en), 0 <= ei < p, standing for g1^e1 ... gn^en,
numbered in lex order. The generators' right-multiplication columns are
filled by recursion on these normal forms, using only the relations, for
many presentations of one prime and generator count at once
(`stacked_columns`): they share every step, and only their relation words
differ. `PcPresentation.gen_columns` is the one-presentation case.

File format, '#' starts a comment:

    GROUP <order> <index>      (both at least 1)
    PRIME <p>
    NGENS <n>
    POWER <i> = <word>
    COMM <j> <i> = <word>
    END

where <word> is "1" or "g<a>^<e>" factors joined by "*", indices strictly
increasing, exponents in 1..p-1.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

import numpy as np

from .arith import exact_log, is_prime as _is_prime
from .errors import PcFileError, PgfError
from .group import PermGroup
from .ops import DEFAULT_DEGREE_CAP
from .perm import Perm


class PcPresentation:
    """Immutable pc presentation of a group of order prime**ngens."""

    __slots__ = (
        "prime",
        "ngens",
        "powers",
        "comms",
        "group_id",
        "provenance",
        "_pow_letters",
        "_comm_letters",
    )

    def __init__(
        self,
        prime: int,
        ngens: int,
        powers: Sequence[Optional[tuple]] = (),
        comms: Optional[dict] = None,
        group_id: Optional[tuple] = None,
        provenance: str = "",
    ):
        if prime > DEFAULT_DEGREE_CAP:  # trial division on a huge prime takes minutes
            raise ValueError(f"prime exceeds the size limit {DEFAULT_DEGREE_CAP}")
        if not _is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        if ngens < 0:
            raise ValueError("ngens must be >= 0")
        self.prime = prime
        self.ngens = ngens
        pw = list(powers) + [None] * (ngens - len(powers))
        self.powers = tuple(
            None if (w is None or not any(w)) else tuple(w) for w in pw
        )
        self.comms = {
            k: tuple(v) for k, v in (comms or {}).items() if any(v)
        }  # keys are 1-based (j, i), j > i
        self.group_id = group_id
        self.provenance = provenance
        self._validate()
        # relation words as letters (0-based generator indices)
        self._pow_letters = tuple(
            self._letters(w) if w else () for w in self.powers
        )
        self._comm_letters = {
            (j - 1, i - 1): self._letters(w) for (j, i), w in self.comms.items()
        }

    def _letters(self, vec: tuple) -> tuple:
        out = []
        for k, e in enumerate(vec):
            out.extend([k] * e)
        return tuple(out)

    def _validate(self) -> None:
        n, p = self.ngens, self.prime
        for i, w in enumerate(self.powers, start=1):
            if w is None:
                continue
            if len(w) != n:
                raise ValueError(f"power rhs for g{i} has wrong length")
            for k, e in enumerate(w, start=1):
                if e and k <= i:
                    raise ValueError(
                        f"power rhs for g{i} uses g{k}; only higher indices allowed"
                    )
                if not 0 <= e < p:
                    raise ValueError(f"exponent {e} out of range in power rhs")
        for (j, i), w in self.comms.items():
            if not 1 <= i < j <= n:
                raise ValueError(f"bad commutator pair ({j}, {i})")
            if len(w) != n:
                raise ValueError(f"commutator rhs for ({j}, {i}) has wrong length")
            for k, e in enumerate(w, start=1):
                if e and k <= j:
                    raise ValueError(
                        f"commutator rhs for ({j}, {i}) uses g{k}; "
                        "only indices above j allowed"
                    )
                if not 0 <= e < p:
                    raise ValueError("exponent out of range in commutator rhs")

    @property
    def order(self) -> int:
        return self.prime**self.ngens

    def gen_columns(self) -> np.ndarray:
        """Right-multiplication maps: cols[j][x] = id of element(x) * g_j,
        where the id of an exponent vector is its number in lex order, the
        vector read as digits base p. The one-presentation case of
        `stacked_columns`."""
        return stacked_columns([self])[0]

    def __repr__(self) -> str:
        gid = f", id={self.group_id}" if self.group_id else ""
        return f"PcPresentation(prime={self.prime}, ngens={self.ngens}{gid})"


def shape_of(presentations: Sequence[PcPresentation]) -> tuple:
    """(prime, ngens) shared by all of `presentations`, which must be at
    least one; raises PgfError when they differ."""
    shapes = {(q.prime, q.ngens) for q in presentations}
    if len(shapes) != 1:
        raise PgfError(
            "presentations tabulated together must share one prime and generator count"
        )
    return shapes.pop()


def stacked_columns(presentations: Sequence[PcPresentation]) -> np.ndarray:
    """cols[i, j, x] = id of element(x) * g_j in presentations[i], for
    presentations of one prime and generator count: each one's
    `PcPresentation.gen_columns`, filled together.

    Filled by recursion on normal forms from the relations alone, last
    generator first. With w_j the id of g_j, the ids of column j are taken
    in ascending order of the generator t their normal form ends in and
    its exponent e, one step per (t, e):

    * t < j, or t == j and e < p - 1: x * g_j is the normal form x + w_j;
    * t == j and e == p - 1: x * g_j = prefix * g_j^p, the power word's
      columns applied to the prefix x - (p - 1) * w_j;
    * t > j: x = y * g_t, so x * g_j = (y * g_j) * g_t * [g_t, g_j], with
      y * g_j an earlier entry of column j.

    Every step reads only finished columns of later generators and
    earlier entries of its own, so the recursion ends. When a presentation
    is consistent these are the true multiplication maps; in any case the
    relations hold among the columns, so a table filled from them that is
    a group proves the presentation consistent.

    The ids of each step are one strided slice, the same for every
    presentation, and only the relation words differ. A word is read as a
    row of letters per presentation, padded to the longest with an
    identity column (index ngens), so each letter of a step is one flat
    gather for all the presentations.
    """
    p, n = shape_of(presentations)
    T, N = len(presentations), p**n
    cols = np.empty((T, n + 1, N), dtype=np.int32)
    cols[:, n] = np.arange(N, dtype=np.int32)
    flat = cols.reshape(-1)
    first = np.arange(T, dtype=np.int32)[:, None] * (n + 1)

    def offsets(words) -> np.ndarray:
        """(T, L) flat offsets of the columns each word's letters name."""
        letters = np.full((T, max(map(len, words))), n, dtype=np.int32)
        for i, w in enumerate(words):
            letters[i, : len(w)] = w
        return (first + letters) * N

    def apply(z, at):
        for s in range(at.shape[1]):
            z = flat.take(at[:, s : s + 1] + z)
        return z

    for j in range(n - 1, -1, -1):
        col, wj = cols[:, j], p ** (n - 1 - j)
        x = np.arange(0, N, wj, dtype=np.int32)
        x = x[x // wj % p < p - 1]
        col[:, x] = x + wj
        prefix = np.arange(0, N, p * wj, dtype=np.int32)
        power = offsets([q._pow_letters[j] for q in presentations])
        col[:, (p - 1) * wj :: p * wj] = apply(prefix, power)
        for t in range(j + 1, n):
            wt = p ** (n - 1 - t)
            comm = offsets([(t,) + q._comm_letters.get((t, j), ()) for q in presentations])
            for e in range(1, p):
                col[:, e * wt :: p * wt] = apply(col[:, (e - 1) * wt :: p * wt], comm)
    return cols[:, :n]


def pc_to_perm(pres: PcPresentation) -> PermGroup:
    """Faithful right-regular permutation image on prime**ngens points.

    The chain is built without an order hint on purpose, for the prime of
    the first generator's order. Each generator that joins it must grow one
    orbit by exactly a factor of that prime, so the order is a product of
    such checked steps, and its equalling prime**ngens is an independent
    check on the presentation, kept for `pgf verify` (criterion 7). Columns
    that do not generate an l-group raise PgfError.
    """
    cols = pres.gen_columns()
    gens = [Perm._from0(cols[j].copy()) for j in range(pres.ngens)]
    return PermGroup(gens, degree=pres.order)


# ---------------------------------------------------------------------------
# file format


def _parse_word(tok: str, n: int, p: int, min_index: int, where: str):
    """Parse a relation rhs; returns an exponent vector or raises ValueError."""
    vec = [0] * n
    if tok == "1":
        return tuple(vec)
    last = 0
    for factor in tok.split("*"):
        factor = factor.strip()
        if not factor.startswith("g"):
            raise ValueError(f"bad factor {factor!r} in {where}")
        body = factor[1:]
        if "^" in body:
            idx_s, exp_s = body.split("^", 1)
        else:
            idx_s, exp_s = body, "1"
        try:
            k, e = int(idx_s), int(exp_s)
        except ValueError:
            raise ValueError(f"bad factor {factor!r} in {where}") from None
        if not 1 <= k <= n:
            raise ValueError(f"generator index {k} out of range in {where}")
        if k <= min_index:
            raise ValueError(
                f"index-order violation in {where}: g{k} not above g{min_index}"
            )
        if k <= last:
            raise ValueError(f"indices must strictly increase in {where}")
        if not 1 <= e <= p - 1:
            raise ValueError(f"exponent {e} out of range 1..{p - 1} in {where}")
        vec[k - 1] = e
        last = k
    return tuple(vec)


def _is_power(order: int, prime: int, ngens: int) -> bool:
    """order == prime**ngens, decided without computing the power."""
    try:
        return exact_log(order, prime) == ngens
    except ValueError:
        return False


def parse_pc_text(text: str, source: str = "<text>") -> list:
    """Parse every GROUP block in `text`; raises PcFileError with a line
    number on the first problem."""
    groups: list[PcPresentation] = []
    seen_ids = set()
    state = None  # None or dict of the open block
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()

        def fail(msg, _ln=lineno):
            raise PcFileError(msg, path=source, line=_ln)

        if tok[0] == "GROUP":
            if state is not None:
                fail("GROUP inside an unfinished block (missing END?)")
            if len(tok) != 3:
                fail("GROUP needs: GROUP <order> <index>")
            try:
                order, index = int(tok[1]), int(tok[2])
            except ValueError:
                fail("GROUP order and index must be integers")
            if order < 1 or index < 1:
                fail(f"GROUP order and index must be at least 1, got {order} {index}")
            if (order, index) in seen_ids:
                fail(f"duplicate group id ({order}, {index})")
            state = {
                "order": order,
                "index": index,
                "prime": None,
                "ngens": None,
                "powers": {},
                "comms": {},
                "line": lineno,
            }
            continue
        if state is None:
            fail(f"{tok[0]} outside a GROUP block")
        if tok[0] == "PRIME":
            if state["prime"] is not None or len(tok) != 2:
                fail("bad or repeated PRIME line")
            try:
                state["prime"] = int(tok[1])
            except ValueError:
                fail("PRIME must be an integer")
            if state["prime"] > DEFAULT_DEGREE_CAP:  # as in PcPresentation
                fail(f"PRIME exceeds the size limit {DEFAULT_DEGREE_CAP}")
            if not _is_prime(state["prime"]):
                fail(f"{state['prime']} is not prime")
        elif tok[0] == "NGENS":
            if state["ngens"] is not None or len(tok) != 2:
                fail("bad or repeated NGENS line")
            try:
                state["ngens"] = int(tok[1])
            except ValueError:
                fail("NGENS must be an integer")
            if state["ngens"] < 0:
                fail("NGENS must be >= 0")
        elif tok[0] in ("POWER", "COMM"):
            if state["prime"] is None or state["ngens"] is None:
                fail(f"{tok[0]} before PRIME/NGENS")
            n, p = state["ngens"], state["prime"]
            if "=" not in tok:
                fail(f"{tok[0]} line needs '='")
            eq = tok.index("=")
            rhs_toks = tok[eq + 1 :]
            if len(rhs_toks) != 1:
                fail("relation rhs must be a single word token")
            if tok[0] == "POWER":
                if eq != 2:
                    fail("POWER needs: POWER <i> = <word>")
                try:
                    i = int(tok[1])
                except ValueError:
                    fail("POWER index must be an integer")
                if not 1 <= i <= n:
                    fail(f"POWER index {i} out of range 1..{n}")
                if i in state["powers"]:
                    fail(f"duplicate POWER {i}")
                try:
                    state["powers"][i] = _parse_word(
                        rhs_toks[0], n, p, i, f"POWER {i}"
                    )
                except ValueError as e:
                    fail(str(e))
            else:
                if eq != 3:
                    fail("COMM needs: COMM <j> <i> = <word>")
                try:
                    j, i = int(tok[1]), int(tok[2])
                except ValueError:
                    fail("COMM indices must be integers")
                if not 1 <= i < j <= n:
                    fail(f"COMM needs 1 <= i < j <= {n}, got j={j} i={i}")
                if (j, i) in state["comms"]:
                    fail(f"duplicate COMM {j} {i}")
                try:
                    state["comms"][(j, i)] = _parse_word(
                        rhs_toks[0], n, p, j, f"COMM {j} {i}"
                    )
                except ValueError as e:
                    fail(str(e))
        elif tok[0] == "END":
            if state["prime"] is None or state["ngens"] is None:
                fail("END before PRIME/NGENS")
            powers = [state["powers"].get(i) for i in range(1, state["ngens"] + 1)]
            try:
                pres = PcPresentation(
                    state["prime"],
                    state["ngens"],
                    powers,
                    state["comms"],
                    group_id=(state["order"], state["index"]),
                    provenance=source,
                )
            except ValueError as e:
                fail(str(e))
            groups.append(pres)
            seen_ids.add((state["order"], state["index"]))
            state = None
        else:
            fail(f"unknown directive {tok[0]!r}")
        if tok[0] in ("PRIME", "NGENS") and None not in (state["prime"], state["ngens"]):
            # checked before any relation allocates an ngens-long vector
            p, n = state["prime"], state["ngens"]
            if not _is_power(state["order"], p, n):
                fail(f"declared order {state['order']} is not prime**ngens = {p}**{n}")
    if state is not None:
        raise PcFileError(
            "file ends inside a GROUP block (missing END)",
            path=source,
            line=state["line"],
        )
    return groups


def parse_pc_file(path: str) -> list:
    """Parse a pc file; a file that cannot be read or is not UTF-8 text
    raises PcFileError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PcFileError(f"cannot read: {exc.strerror or exc}", path=path) from exc
    except UnicodeDecodeError as exc:
        raise PcFileError(f"not UTF-8 text at byte {exc.start}", path=path) from exc
    return parse_pc_text(text, source=os.path.basename(path))


def _word_str(vec: Optional[tuple]) -> str:
    if vec is None or not any(vec):
        return "1"
    return "*".join(f"g{k}^{e}" for k, e in enumerate(vec, start=1) if e)


def serialize_pc(pres: PcPresentation) -> str:
    """Canonical text block; parse(serialize(p)) reproduces p exactly."""
    order, index = pres.group_id if pres.group_id else (pres.order, 1)
    lines = [f"GROUP {order} {index}", f"PRIME {pres.prime}", f"NGENS {pres.ngens}"]
    for i, w in enumerate(pres.powers, start=1):
        if w is not None:
            lines.append(f"POWER {i} = {_word_str(w)}")
    for j, i in sorted(pres.comms):
        lines.append(f"COMM {j} {i} = {_word_str(pres.comms[(j, i)])}")
    lines.append("END")
    return "\n".join(lines) + "\n"
