"""Catalog behaviour: schemas, name resolution, lazy bindings."""

import pytest

from repro.db.catalog import Catalog
from repro.db.table import ColumnSpec, TableSchema
from repro.db.types import DataType
from repro.errors import BindError, CatalogError


def _schema():
    return TableSchema(columns=[ColumnSpec("a", DataType.BIGINT)])


def test_default_schema_resolution():
    catalog = Catalog()
    catalog.create_table(("t",), _schema())
    assert catalog.table(("t",)).name == "main.t"
    assert catalog.table(("main", "t")) is catalog.table(("t",))


def test_schema_lifecycle():
    catalog = Catalog()
    catalog.create_schema("app")
    assert "app" in catalog.schema_names()
    catalog.create_schema("app", if_not_exists=True)
    with pytest.raises(CatalogError):
        catalog.create_schema("app")
    catalog.drop_schema("app")
    with pytest.raises(CatalogError):
        catalog.drop_schema("app")
    catalog.drop_schema("app", if_exists=True)


def test_default_schema_protected():
    catalog = Catalog()
    with pytest.raises(CatalogError):
        catalog.drop_schema("main")


def test_duplicate_table_rejected():
    catalog = Catalog()
    catalog.create_table(("t",), _schema())
    with pytest.raises(CatalogError):
        catalog.create_table(("t",), _schema())
    assert catalog.create_table(("t",), _schema(), if_not_exists=True)


def test_drop_table():
    catalog = Catalog()
    catalog.create_table(("t",), _schema())
    catalog.drop_table(("t",))
    with pytest.raises(CatalogError):
        catalog.table(("t",))
    catalog.drop_table(("t",), if_exists=True)
    with pytest.raises(CatalogError):
        catalog.drop_table(("t",))


def test_over_qualified_name_rejected():
    catalog = Catalog()
    with pytest.raises(CatalogError):
        catalog.split_name(("a", "b", "c"))


def test_lookup_unknown_is_bind_error():
    catalog = Catalog()
    with pytest.raises(BindError):
        catalog.lookup(("ghost",))


def test_lazy_binding_lifecycle():
    class FakeBinding:
        key_columns = ("k",)
        range_column = None

        def fetch(self, *args):
            raise NotImplementedError

        def scan_all(self, *args):
            raise NotImplementedError

    catalog = Catalog()
    table = catalog.create_table(("d",), _schema())
    binding = FakeBinding()
    catalog.bind_lazy(("d",), binding)
    assert catalog.is_lazy("main.d")
    assert catalog.lazy_binding("main.d") is binding
    assert table.lazy_binding is binding
    catalog.unbind_lazy(("d",))
    assert not catalog.is_lazy("main.d")
    assert getattr(table, "lazy_binding", None) is None


def test_binding_removed_with_table():
    class FakeBinding:
        key_columns = ()
        range_column = None

        def fetch(self, *args):
            raise NotImplementedError

        def scan_all(self, *args):
            raise NotImplementedError

    catalog = Catalog()
    catalog.create_table(("d",), _schema())
    catalog.bind_lazy(("d",), FakeBinding())
    catalog.drop_table(("d",))
    assert catalog.lazy_binding("main.d") is None
