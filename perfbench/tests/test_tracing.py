"""Self-time arithmetic and span recording of the traced run."""
import types

import pytest

from tracing import Tracer, layer_totals, self_times


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: the union 1..6 is covered once
        ("leaf", 2.0, 3.0, 1),
        ("c", 8.0, 12.0, 0),  # runs past its parent: only 8..10 counts
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_self_times_of_a_nested_tree_sum_to_the_root_duration():
    spans = [
        ("cli.main", 0.0, 9.0, -1),
        ("x", 0.5, 2.0, 0),
        ("y", 0.75, 1.5, 1),
        ("x", 3.0, 8.5, 0),
        ("y", 3.25, 4.0, 3),
        ("y", 5.0, 7.0, 3),
    ]
    assert sum(self_times(spans)) == pytest.approx(9.0)


def test_layer_totals_count_a_reentered_name_once_in_inclusive_time():
    spans = [
        ("f", 0.0, 10.0, -1),
        ("g", 1.0, 9.0, 0),
        ("f", 2.0, 5.0, 1),
        ("f", 6.0, 7.0, -1),
    ]
    totals = layer_totals(spans)
    assert totals["f"]["calls"] == 3
    assert totals["f"]["s"] == pytest.approx(11.0)
    assert totals["f"]["self_s"] == pytest.approx(2.0 + 3.0 + 1.0)
    assert totals["g"] == pytest.approx({"calls": 1, "s": 8.0, "self_s": 5.0})


def _modules():
    low = types.ModuleType("pkg.low")
    exec(
        "def leaf(x):\n    return x + 1\n"
        "def _private(x):\n    return leaf(x)\n"
        "class Box:\n    def get(self):\n        return leaf(1)\n",
        low.__dict__,
    )
    high = types.ModuleType("pkg.high")
    high.leaf = low.leaf  # as `from .low import leaf` binds it
    high._private = low._private
    exec("def top(x):\n    return leaf(x) + _private(x)\n", high.__dict__)
    return low, high


def test_tracer_wraps_aliases_and_records_parents():
    low, high = _modules()
    original = low.leaf
    tracer = Tracer()
    tracer.install([low, high])
    assert high.top(1) == 4
    assert low.Box().get() == 2
    tracer.uninstall()

    names = [span[0] for span in tracer.spans]
    # leaf reached through the alias and through the private helper alike
    assert names == ["high.top", "low.leaf", "low.leaf", "low.get", "low.leaf"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0, -1, 3]
    assert low.leaf is original and high.leaf is original
    assert "get" in low.Box.__dict__ and low.Box.get.__name__ == "get"
    assert not hasattr(low._private, "__wrapped__")


def test_a_raising_call_still_closes_its_span():
    low, high = _modules()
    tracer = Tracer()
    tracer.install([low, high])
    with pytest.raises(TypeError):
        high.top(None)
    tracer.uninstall()
    assert all(span is not None for span in tracer.spans)
    assert tracer.spans[0][0] == "high.top"
