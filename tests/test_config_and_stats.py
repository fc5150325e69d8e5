"""Unit tests for the enumeration configuration and search statistics."""

import pytest

from repro.core.config import (
    BRANCHING_FAPLEXEN,
    BRANCHING_PIVOT,
    UPPER_BOUND_FP,
    EnumerationConfig,
    config_by_name,
)
from repro.core.stats import SearchStatistics


def test_default_config_is_ours():
    config = EnumerationConfig()
    assert config.branching == BRANCHING_PIVOT
    assert config.use_upper_bound
    assert config.use_seed_upper_bound
    assert config.use_pair_pruning
    assert config.label == "Ours"


def test_named_variants_match_paper_labels():
    assert EnumerationConfig.ours().label == "Ours"
    assert EnumerationConfig.ours_p().label == "Ours_P"
    assert EnumerationConfig.basic().label == "Basic"
    assert EnumerationConfig.basic_with_r1().label == "Basic+R1"
    assert EnumerationConfig.basic_with_r2().label == "Basic+R2"
    assert EnumerationConfig.without_upper_bound().label == "Ours\\ub"
    assert EnumerationConfig.with_fp_upper_bound().label == "Ours\\ub+fp"


def test_invalid_values_rejected():
    with pytest.raises(ValueError):
        EnumerationConfig(branching="something")
    with pytest.raises(ValueError):
        EnumerationConfig(upper_bound_method="something")


def test_with_changes_returns_new_config():
    base = EnumerationConfig.ours()
    changed = base.with_changes(use_pair_pruning=False)
    assert changed is not base
    assert not changed.use_pair_pruning
    assert base.use_pair_pruning


def test_config_by_name():
    assert config_by_name("ours") == EnumerationConfig.ours()
    assert config_by_name("OURS_P").branching == BRANCHING_FAPLEXEN
    assert config_by_name("ours-fp-ub").upper_bound_method == UPPER_BOUND_FP
    with pytest.raises(ValueError):
        config_by_name("does-not-exist")


def test_statistics_record_and_merge():
    first = SearchStatistics()
    first.record_seed(10)
    first.branch_calls = 2
    first.record_seed_calls(7, 2)
    first.outputs = 3
    second = SearchStatistics()
    second.record_seed(4)
    second.branch_calls = 1
    second.record_seed_calls(9, 1)
    second.elapsed_seconds = 1.5
    first.merge(second)
    assert first.seeds == 2
    assert first.branch_calls == 3
    assert first.per_seed_branch_calls == {7: 2, 9: 1}
    assert first.elapsed_seconds == 1.5
    assert first.outputs == 3


def test_statistics_as_dict_and_str():
    stats = SearchStatistics()
    stats.branch_calls += 1
    payload = stats.as_dict()
    assert payload["branch_calls"] == 1
    assert "branch_calls=1" in str(stats)


def test_record_seed_calls_without_seed_registration():
    stats = SearchStatistics()
    stats.record_seed_calls(42, 3)
    assert stats.per_seed_branch_calls == {42: 3}
    assert stats.seeds == 0
