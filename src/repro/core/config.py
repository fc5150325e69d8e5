"""Configuration of the enumeration algorithm and its ablation variants.

Every optimisation described in the paper can be toggled individually so that
the ablation studies (Tables 5 and 6, Figures 9 and 15) can be reproduced:

* ``branching`` selects between the default algorithm ``Ours`` (re-pick the
  pivot from the candidate set and use upper-bound pruning, Algorithm 3
  lines 15–19) and the variant ``Ours_P`` (FaPlexen-style multi-branching of
  Eq (4)–(6) when the pivot lies in ``P``).
* ``use_upper_bound`` / ``upper_bound_method`` control the Eq (3) pruning of
  the include-branch: the paper's bound (Theorems 5.3 and 5.5) or the
  FP-style sorting bound (the ``Ours\\ub+fp`` ablation).
* ``use_seed_upper_bound`` is pruning rule R1 (Theorem 5.7, applied to each
  initial sub-task before branching).
* ``use_pair_pruning`` is pruning rule R2 (Theorems 5.13–5.15, the boolean
  co-occurrence matrix ``T``).
* ``use_seed_pruning`` is the Corollary 5.2 shrinking of seed subgraphs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

BRANCHING_PIVOT = "pivot"  # Ours: re-pick pivot from C, prune with Eq (3)
BRANCHING_FAPLEXEN = "faplexen"  # Ours_P: Eq (4)-(6) multi-branching when pivot in P

UPPER_BOUND_PAPER = "paper"  # min of Theorem 5.3 and Theorem 5.5 bounds
UPPER_BOUND_FP = "fp"  # sorting-based bound modelled after FP (Lemma 5 of [16])

_VALID_BRANCHING = (BRANCHING_PIVOT, BRANCHING_FAPLEXEN)
_VALID_UPPER_BOUNDS = (UPPER_BOUND_PAPER, UPPER_BOUND_FP)


@dataclass(frozen=True)
class EnumerationConfig:
    """Tunable switches of :class:`repro.core.enumerator.KPlexEnumerator`."""

    branching: str = BRANCHING_PIVOT
    use_upper_bound: bool = True
    upper_bound_method: str = UPPER_BOUND_PAPER
    use_seed_upper_bound: bool = True
    use_pair_pruning: bool = True
    use_seed_pruning: bool = True

    def __post_init__(self) -> None:
        if self.branching not in _VALID_BRANCHING:
            raise ValueError(
                f"branching must be one of {_VALID_BRANCHING}, got {self.branching!r}"
            )
        if self.upper_bound_method not in _VALID_UPPER_BOUNDS:
            raise ValueError(
                f"upper_bound_method must be one of {_VALID_UPPER_BOUNDS}, "
                f"got {self.upper_bound_method!r}"
            )

    # ------------------------------------------------------------------ #
    # Named variants matching the paper's experiment labels
    # ------------------------------------------------------------------ #
    @classmethod
    def ours(cls) -> "EnumerationConfig":
        """The default algorithm ``Ours`` with every technique enabled."""
        return cls()

    @classmethod
    def ours_p(cls) -> "EnumerationConfig":
        """The ``Ours_P`` variant: FaPlexen branching instead of pivot re-picking."""
        return cls(branching=BRANCHING_FAPLEXEN)

    @classmethod
    def basic(cls) -> "EnumerationConfig":
        """``Basic``: Ours without the R1 and R2 pruning rules (Table 6)."""
        return cls(use_seed_upper_bound=False, use_pair_pruning=False)

    @classmethod
    def basic_with_r1(cls) -> "EnumerationConfig":
        """``Basic+R1``: add Theorem 5.7 sub-task pruning back (Table 6)."""
        return cls(use_seed_upper_bound=True, use_pair_pruning=False)

    @classmethod
    def basic_with_r2(cls) -> "EnumerationConfig":
        """``Basic+R2``: add the vertex-pair pruning back (Table 6)."""
        return cls(use_seed_upper_bound=False, use_pair_pruning=True)

    @classmethod
    def without_upper_bound(cls) -> "EnumerationConfig":
        """``Ours\\ub``: disable the Eq (3) upper-bound pruning (Table 5)."""
        return cls(use_upper_bound=False)

    @classmethod
    def with_fp_upper_bound(cls) -> "EnumerationConfig":
        """``Ours\\ub+fp``: replace the paper's bound with the FP-style bound (Table 5)."""
        return cls(upper_bound_method=UPPER_BOUND_FP)

    def with_changes(self, **changes: object) -> "EnumerationConfig":
        """Return a copy of the configuration with the given fields replaced."""
        return replace(self, **changes)

    @property
    def label(self) -> str:
        """Short human-readable label used in experiment tables."""
        if self.branching == BRANCHING_FAPLEXEN:
            return "Ours_P"
        if not self.use_upper_bound:
            if not self.use_seed_upper_bound and not self.use_pair_pruning:
                return "Basic\\ub"
            return "Ours\\ub"
        if self.upper_bound_method == UPPER_BOUND_FP:
            return "Ours\\ub+fp"
        if not self.use_seed_upper_bound and not self.use_pair_pruning:
            return "Basic"
        if self.use_seed_upper_bound and not self.use_pair_pruning:
            return "Basic+R1"
        if not self.use_seed_upper_bound and self.use_pair_pruning:
            return "Basic+R2"
        return "Ours"


NAMED_VARIANTS = {
    "ours": EnumerationConfig.ours,
    "ours_p": EnumerationConfig.ours_p,
    "basic": EnumerationConfig.basic,
    "basic+r1": EnumerationConfig.basic_with_r1,
    "basic+r2": EnumerationConfig.basic_with_r2,
    "ours-no-ub": EnumerationConfig.without_upper_bound,
    "ours-fp-ub": EnumerationConfig.with_fp_upper_bound,
}


def config_by_name(name: str) -> EnumerationConfig:
    """Return a named configuration variant (case-insensitive)."""
    key = name.strip().lower()
    try:
        return NAMED_VARIANTS[key]()
    except KeyError as exc:
        known = ", ".join(sorted(NAMED_VARIANTS))
        raise ValueError(f"unknown variant {name!r}; known variants: {known}") from exc
