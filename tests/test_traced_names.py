"""Every function the benchmark's traced run wraps still exists.

perfbench/spans.py looks each TRACED name up with getattr and no fallback,
so retiring one of them would break a traced benchmark run; spans.py
imports only the standard library and is loaded here by its path."""
import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("name", _traced())
def test_traced_name_resolves_to_a_callable(name):
    module_name, attribute = name.split(".", 1)
    module = importlib.import_module(f"choifactor.{module_name}")
    assert callable(getattr(module, attribute, None)), name
