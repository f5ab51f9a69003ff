"""The canonical program form is pinned byte for byte.

``canonical_digests.json`` holds the SHA-256 of
``canonical_json(canonical_program_dict(p))`` for the 18 paper apps and
the 20 programs of the seed corpus.  Every compile digest, artifact
fingerprint and recipe digest hashes this form, so a change to how a
program is canonicalized must leave these bytes alone (or bump
``PIPELINE_VERSION`` and regenerate the file on purpose)::

    PYTHONPATH=src python -m tests.ir.test_canonical_digests
"""

import hashlib
import json
import os

import pytest

from repro.apps import ALL_APPS
from repro.difftest import load_corpus
from repro.difftest.generator import build_program
from repro.ir.serialize import canonical_json, canonical_program_dict

HERE = os.path.dirname(__file__)
PINNED = os.path.join(HERE, "canonical_digests.json")
CORPUS = os.path.join(
    HERE, os.pardir, "integration", "corpus", "seed_corpus.json"
)


def _programs():
    """``(key, program)`` for the apps and the corpus, in a fixed order."""
    apps = [(f"app:{name}", ALL_APPS[name].build()) for name in sorted(ALL_APPS)]
    corpus = [
        (f"corpus:{index}", build_program(spec))
        for index, spec in enumerate(load_corpus(CORPUS))
    ]
    return apps + corpus


def _digest(program):
    text = canonical_json(canonical_program_dict(program))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pinned():
    with open(PINNED) as handle:
        return json.load(handle)


PROGRAMS = _programs()


def test_pinned_set_covers_the_apps_and_the_corpus():
    assert sorted(_pinned()) == sorted(key for key, _ in PROGRAMS)
    assert len(_pinned()) == 38


@pytest.mark.parametrize(
    "key, program", PROGRAMS, ids=[key for key, _ in PROGRAMS]
)
def test_canonical_form_is_pinned(key, program):
    assert _digest(program) == _pinned()[key]


if __name__ == "__main__":
    with open(PINNED, "w") as handle:
        json.dump(
            {key: _digest(program) for key, program in PROGRAMS},
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
