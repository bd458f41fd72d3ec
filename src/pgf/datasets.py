"""Access to bundled presentation files and external dataset directories.

Bundled fixtures cover every group of the small orders (2, 4, 8, 16, 32
for prime 2; 3, 9, 27, 81 for prime 3); the order-32 and order-81
catalogues can be rebuilt by tools/generate_small_groups.py, which tries
every central-extension tail over the catalogue one order below and keeps
one group per invariant key, with the classical counts as hard gates. Larger
catalogues are external inputs: any *.pc files in a data directory are
picked up and bucketed by (prime, order). The PGF_DATA environment
variable names the default directory; nothing fails when it is absent,
lookups just come back empty.
"""

from __future__ import annotations

import os
from importlib import resources
from typing import Optional

from .pc import parse_pc_file

DATA_ENV = "PGF_DATA"

_FIXTURES = (
    "o2.pc",
    "o3.pc",
    "o4.pc",
    "o8.pc",
    "o9.pc",
    "o16.pc",
    "o27.pc",
    "o32.pc",
    "o81.pc",
)


def fixture_names() -> tuple:
    return _FIXTURES


def load_fixture(name: str) -> list:
    ref = resources.files(__package__).joinpath("data", name)
    text = ref.read_text(encoding="utf-8")
    from .pc import parse_pc_text

    return parse_pc_text(text, source=name)


def load_all_fixtures() -> list:
    out = []
    for name in _FIXTURES:
        out.extend(load_fixture(name))
    return out


def default_data_dir() -> Optional[str]:
    return os.environ.get(DATA_ENV)


def scan_data_dir(data_dir: Optional[str]) -> dict:
    """Parse every *.pc file under `data_dir`; returns a dict keyed by
    (prime, order) with lists of presentations. Empty when the directory
    is missing or unset."""
    buckets: dict[tuple, list] = {}
    if not data_dir or not os.path.isdir(data_dir):
        return buckets
    for fname in sorted(os.listdir(data_dir)):
        if not fname.endswith(".pc"):
            continue
        for pres in parse_pc_file(os.path.join(data_dir, fname)):
            buckets.setdefault((pres.prime, pres.order), []).append(pres)
    return buckets
