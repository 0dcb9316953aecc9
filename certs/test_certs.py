"""Every certificate of the pinned corpus against expected.json.

    python3 -m pytest certs
"""

import json

import pytest

import corpus

EXPECTED = json.loads(corpus.EXPECTED.read_text())
CERTIFICATES = corpus.certificates()


def test_the_corpus_is_the_recorded_one():
    assert list(CERTIFICATES) == list(EXPECTED)


@pytest.mark.parametrize("name", list(CERTIFICATES))
def test_certificate_is_byte_identical(name):
    problem = corpus.first_difference(EXPECTED[name], corpus.record(CERTIFICATES[name]()))
    assert problem is None, f"certificate {name}: {problem}"
