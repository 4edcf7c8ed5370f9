"""Unit tests for quality attributes and the attribute service."""

import pytest

from repro.core.attributes import (ADAPT_MARK, ADAPT_PKTSIZE, NET_ERROR_RATIO,
                                   AttributeService, AttributeSet)


class TestAttributeSet:
    def test_construction_and_access(self):
        a = AttributeSet({ADAPT_MARK: 0.4}, extra=1)
        assert a[ADAPT_MARK] == 0.4
        assert a.get("extra") == 1
        assert a.get("missing", "d") == "d"
        assert ADAPT_MARK in a and "missing" not in a

    def test_none_values_are_absent(self):
        a = AttributeSet({ADAPT_MARK: None, ADAPT_PKTSIZE: 0.1})
        assert ADAPT_MARK not in a
        assert len(a) == 1

    def test_truthiness(self):
        assert not AttributeSet()
        assert AttributeSet({ADAPT_MARK: 0.0})  # present-with-zero counts

    def test_iteration_and_dict(self):
        a = AttributeSet({"x": 1, "y": 2})
        assert dict(a) == {"x": 1, "y": 2}
        assert a.as_dict() == {"x": 1, "y": 2}

    def test_equality(self):
        assert AttributeSet({"x": 1}) == AttributeSet({"x": 1})
        assert AttributeSet({"x": 1}) != AttributeSet({"x": 2})


class TestAttributeService:
    def test_register_update_query(self):
        svc = AttributeService()
        svc.register(NET_ERROR_RATIO, 0.0)
        assert svc.query(NET_ERROR_RATIO) == 0.0
        svc.update(NET_ERROR_RATIO, 0.25)
        assert svc.query(NET_ERROR_RATIO) == 0.25

    def test_register_is_idempotent(self):
        svc = AttributeService()
        svc.update("a", 5)
        svc.register("a", 0)
        assert svc.query("a") == 5

    def test_query_default(self):
        assert AttributeService().query("nope", 42) == 42

    def test_counters(self):
        svc = AttributeService()
        svc.update("a", 1)
        svc.query("a")
        svc.query("b")
        assert svc.updates == 1 and svc.queries == 2
