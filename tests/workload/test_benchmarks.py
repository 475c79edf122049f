"""Tests for the retail benchmark suite."""

import numpy as np
import pytest

from repro.workload.benchmarks import (
    _COUNTRY_CDF,
    _COUNTRY_P,
    _STATUS_CDF,
    _STATUS_P,
    _pick,
    build_retail_suite,
    default_rates,
)


def test_suite_builds_both_tables():
    suite = build_retail_suite(orders_rows=5_000, inventory_rows=1_000)
    db = suite.database
    assert db.catalog.table_names() == ("inventory", "orders")
    assert db.table("orders").row_count == 5_000
    assert db.table("inventory").row_count == 1_000


def test_all_families_execute():
    suite = build_retail_suite(orders_rows=5_000, inventory_rows=1_000)
    rng = np.random.default_rng(0)
    for family in suite.families.values():
        result = suite.database.execute(family.sample(rng))
        assert result.report.elapsed_ms > 0


def test_family_templates_are_distinct_and_stable():
    suite = build_retail_suite(orders_rows=2_000, inventory_rows=500)
    keys = [f.template_key for f in suite.families.values()]
    assert len(set(keys)) == len(keys)
    rng = np.random.default_rng(9)
    for family in suite.families.values():
        assert family.sample(rng).template().key == family.template_key


def test_rates_cover_all_families():
    suite = build_retail_suite(orders_rows=2_000, inventory_rows=500)
    assert set(default_rates()) == set(suite.families)


def test_order_dates_are_sorted_for_rle():
    suite = build_retail_suite(orders_rows=5_000, inventory_rows=500)
    for chunk in suite.database.table("orders").chunks():
        dates = chunk.segment("order_date").values()
        assert (np.diff(dates) >= 0).all()


def test_customer_distribution_is_skewed():
    suite = build_retail_suite(orders_rows=10_000, inventory_rows=500)
    customers = np.concatenate(
        [c.segment("customer").values() for c in suite.database.table("orders").chunks()]
    )
    counts = np.bincount(customers)
    # Zipf: the most popular customer dwarfs the median
    assert counts.max() > 20 * max(np.median(counts[counts > 0]), 1)


def test_seed_determinism():
    a = build_retail_suite(orders_rows=1_000, inventory_rows=200, seed=5)
    b = build_retail_suite(orders_rows=1_000, inventory_rows=200, seed=5)
    av = a.database.table("orders").chunks()[0].segment("customer").values()
    bv = b.database.table("orders").chunks()[0].segment("customer").values()
    np.testing.assert_array_equal(av, bv)


@pytest.mark.parametrize(
    "p, cdf",
    [(_COUNTRY_P, _COUNTRY_CDF), (_STATUS_P, _STATUS_CDF)],
    ids=["country", "status"],
)
def test_per_query_sampler_draws_what_choice_draws(p, cdf):
    """The samplers' settled CDFs draw what ``rng.choice(n, p=p)`` draws,
    one uniform per query, so every literal stream is unchanged."""
    old, new = np.random.default_rng(7), np.random.default_rng(7)
    expected = [int(old.choice(len(p), p=p)) for _ in range(100_000)]
    assert [_pick(new, cdf) for _ in range(100_000)] == expected
    assert old.random() == new.random()
