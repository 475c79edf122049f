"""Tests for the catalog and the plugin host."""

import pytest

from repro.dbms.catalog import Catalog
from repro.dbms.plugin import Plugin
from repro.dbms.schema import TableSchema
from repro.dbms.table import Table
from repro.dbms.types import DataType
from repro.errors import CatalogError, PluginError

from tests.conftest import make_small_database


def _table(name="t"):
    return Table(TableSchema.build(name, [("a", DataType.INT)]))


def test_catalog_register_and_lookup():
    catalog = Catalog()
    table = _table()
    catalog.register(table)
    assert catalog.table("t") is table
    assert catalog.has_table("t")
    assert catalog.table_names() == ("t",)
    assert len(catalog) == 1


def test_catalog_duplicate_rejected():
    catalog = Catalog()
    catalog.register(_table())
    with pytest.raises(CatalogError):
        catalog.register(_table())


def test_catalog_unknown_lookup():
    with pytest.raises(CatalogError):
        Catalog().table("missing")


class _RecorderPlugin(Plugin):
    def __init__(self):
        self.attached = None
        self.detached = False
        self.ticks = []

    @property
    def name(self):
        return "recorder"

    def on_attach(self, database):
        self.attached = database

    def on_detach(self):
        self.detached = True

    def on_tick(self, now_ms):
        self.ticks.append(now_ms)


def test_plugin_lifecycle():
    db = make_small_database(rows=100)
    plugin = _RecorderPlugin()
    db.plugin_host.attach(plugin)
    assert plugin.attached is db
    assert db.plugin_host.is_attached("recorder")
    db.plugin_host.tick(5.0)
    assert plugin.ticks == [5.0]
    db.plugin_host.detach("recorder")
    assert plugin.detached
    assert not db.plugin_host.is_attached("recorder")


def test_plugin_duplicate_attach_rejected():
    db = make_small_database(rows=100)
    db.plugin_host.attach(_RecorderPlugin())
    with pytest.raises(PluginError):
        db.plugin_host.attach(_RecorderPlugin())


def test_plugin_detach_unknown_rejected():
    db = make_small_database(rows=100)
    with pytest.raises(PluginError):
        db.plugin_host.detach("ghost")


def test_detach_leaves_database_functional():
    db = make_small_database(rows=500)
    plugin = _RecorderPlugin()
    db.plugin_host.attach(plugin)
    db.plugin_host.detach("recorder")
    result = db.execute("SELECT COUNT(*) FROM events")
    assert result.aggregate_value == 500.0
