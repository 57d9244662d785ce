"""The output corpus: every recorded case still produces the bytes it hashed to.

`tests/golden/record_corpus.py` defines the cases, writes
`tests/golden/corpus.json` and the golden reports beside it; a deliberate
output change re-records them.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

_spec = importlib.util.spec_from_file_location("record_corpus", GOLDEN / "record_corpus.py")
record_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_corpus)


@pytest.fixture(scope="module")
def outputs() -> dict[str, bytes]:
    return record_corpus.outputs()


def _recorded() -> dict[str, str]:
    return json.loads(record_corpus.CORPUS.read_text(encoding="utf-8"))


def test_every_case_matches_the_corpus(outputs):
    recorded, current = _recorded(), record_corpus.hashes(outputs)
    assert sorted(current) == sorted(recorded)
    moved = [name for name in sorted(current) if current[name] != recorded[name]]
    assert moved == []


def test_corpus_holds_every_golden_report():
    # Each seeded report pinned as text in tests/golden/ is named in GOLDENS, by one of the corpus's cases.
    names = sorted(path.stem for path in GOLDEN.glob("*.json") if path != record_corpus.CORPUS)
    assert names == sorted(record_corpus.GOLDENS)
    assert set(record_corpus.GOLDENS.values()) <= _recorded().keys()


@pytest.mark.parametrize("name", sorted(record_corpus.GOLDENS))
def test_seeded_report_matches_golden_text(outputs, name):
    assert record_corpus.golden_path(name).read_bytes() == outputs[record_corpus.GOLDENS[name]]
