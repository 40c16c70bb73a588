"""Doctest execution for the modules whose docstrings carry examples."""

from __future__ import annotations

import doctest
import importlib

import pytest


class TestDoctests:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.sim.engine",
            "repro.types",
        ],
    )
    def test_module_doctests_pass(self, module_name):
        module = importlib.import_module(module_name)
        failures, __ = doctest.testmod(module, verbose=False)
        assert failures == 0
