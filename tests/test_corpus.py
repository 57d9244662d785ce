"""The output corpus: every recorded case still produces the bytes it hashed to.

`tests/golden/record_corpus.py` defines the cases and writes
`tests/golden/corpus.json`; a deliberate output change re-records it.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"

_spec = importlib.util.spec_from_file_location("record_corpus", GOLDEN / "record_corpus.py")
record_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_corpus)


def _recorded() -> dict[str, str]:
    return json.loads(record_corpus.CORPUS.read_text(encoding="utf-8"))


def test_every_case_matches_the_corpus():
    recorded, current = _recorded(), record_corpus.hashes()
    assert sorted(current) == sorted(recorded)
    moved = [name for name in sorted(current) if current[name] != recorded[name]]
    assert moved == []


def test_corpus_holds_every_golden_report():
    # Each seeded report pinned as text in tests/golden/ is one of the corpus's cases.
    hashes = set(_recorded().values())
    for path in sorted(GOLDEN.glob("*.json")):
        if path != record_corpus.CORPUS:
            assert hashlib.sha256(path.read_bytes()).hexdigest() in hashes, path.name
