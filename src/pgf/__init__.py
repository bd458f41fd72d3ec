"""Finite l-group engine: constructions, invariants, semiabelian
decomposition and census runs over power-commutator datasets.

The public surface is re-exported lazily so that ``import pgf`` stays
cheap; submodules load on first attribute access.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # errors
    "PgfError": ".errors",
    "CapExceeded": ".errors",
    "InvalidCertificate": ".errors",
    "NotNormal": ".errors",
    "PcFileError": ".errors",
    # core objects
    "Perm": ".perm",
    "PermGroup": ".group",
    "CayleyTable": ".table",
    # constructions and invariants
    "cyclic_group": ".ops",
    "direct_product": ".ops",
    "wreath_regular": ".ops",
    "normal_closure": ".ops",
    "commutator_subgroup": ".ops",
    "frattini_subgroup": ".ops",
    "derived_series": ".ops",
    "derived_length": ".ops",
    "lower_central_series": ".ops",
    "factor_ranks": ".ops",
    "quotient_group": ".ops",
    "rank": ".ops",
    # certificates and the semiabelian test
    "parse_cert": ".family",
    "serialize_cert": ".family",
    "eval_cert": ".family",
    "cert_prime": ".family",
    "declared_rank": ".family",
    "certificate_corpus": ".family",
    "SemiabelianVerdict": ".family",
    "is_semiabelian": ".family",
    "semiabelian_table": ".family",
    "validate_witness": ".family",
    # power-commutator presentations and datasets
    "PcPresentation": ".pc",
    "parse_pc_text": ".pc",
    "parse_pc_file": ".pc",
    "pc_to_perm": ".pc",
    "fixture_names": ".datasets",
    "load_fixture": ".datasets",
    "load_all_fixtures": ".datasets",
    # ramification bounds
    "RamReport": ".ramification",
    "min_ramified_primes": ".ramification",
    "plans_bound": ".ramification",
    "compare_bounds": ".ramification",
    # census pipeline
    "CensusRecord": ".census",
    "CensusSummary": ".census",
    "classify_presentation": ".census",
    "run_census": ".census",
    "emit_report": ".census",
    # claims gate
    "run_claims": ".verify",
    "format_claims": ".verify",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    try:
        modname = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(modname, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
