"""Golden corpus: every seeded case reproduces its stored line byte for byte.

The corpus and its generator live in tests/data; regenerate with
`PYTHONPATH=src python tests/data/make_golden.py --write` only for a
deliberate behaviour change.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_GENERATOR = Path(__file__).parent / "data" / "make_golden.py"
_spec = importlib.util.spec_from_file_location("make_golden", _GENERATOR)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

STORED = {json.loads(line)["case"]: line
          for line in make_golden.GOLDEN_PATH.read_text().splitlines()}


def test_corpus_covers_every_case():
    assert list(STORED) == list(make_golden.CASES)


@pytest.mark.parametrize("name", list(make_golden.CASES))
def test_golden_case(name):
    assert make_golden.compute(name) == STORED[name]
