"""The live loop has one assessment path: each feature's default
assessor, pricing through the tenant's one measured what-if optimizer."""

from repro.core.driver import DriverConfig
from repro.fleet.context import TenantContext
from repro.tuning import standard_features
from repro.tuning.assessors import BufferPoolAssessor

from tests.conftest import make_small_database


def test_every_what_if_priced_tuner_prices_through_the_tenants_optimizer():
    ctx = TenantContext.wire(
        make_small_database(rows=1_000),
        standard_features(include_sort_order=True),
        DriverConfig(),
    )
    assert ctx.optimizer.is_measured
    assessors = {tuner.feature.name: tuner._assessor for tuner in ctx.tuners}
    # the buffer-pool tuner replays capacities on a scratch pool instead
    assert isinstance(assessors.pop("buffer_pool"), BufferPoolAssessor)
    assert set(assessors) == {
        "sort_order",
        "index_selection",
        "compression",
        "data_placement",
    }
    for name, assessor in assessors.items():
        assert assessor._optimizer is ctx.optimizer, name
    ctx.close()
