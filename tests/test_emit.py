import dataclasses

import numpy as np
import pytest

from panelmetrics.emit import write_json


@dataclasses.dataclass(frozen=True)
class Holder:
    array: np.ndarray
    count: np.int64
    value: np.float64
    pair: tuple
    table: dict
    nothing: None


def test_write_json_text(tmp_path):
    path = tmp_path / "holder.json"
    write_json(
        path,
        Holder(
            array=np.array([[0.1, 2.0]]),
            count=np.int64(3),
            value=np.float64(1 / 3),
            pair=(1, "a"),
            table={"k": np.arange(2), "inner": [Holder(np.array([]), 0, 0.0, (), {}, None)]},
            nothing=None,
        ),
    )
    assert path.read_text() == """\
{
  "array": [
    [
      0.1,
      2.0
    ]
  ],
  "count": 3,
  "value": 0.3333333333333333,
  "pair": [
    1,
    "a"
  ],
  "table": {
    "k": [
      0,
      1
    ],
    "inner": [
      {
        "array": [],
        "count": 0,
        "value": 0.0,
        "pair": [],
        "table": {},
        "nothing": null
      }
    ]
  },
  "nothing": null
}
"""


def test_write_json_rejects_what_json_cannot_encode(tmp_path):
    with pytest.raises(TypeError, match="set"):
        write_json(tmp_path / "set.json", {"values": {1, 2}})
