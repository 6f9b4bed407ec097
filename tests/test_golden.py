"""Every CLI output and SER term against the golden corpus (tests/golden.py).

A digest that moves means an output byte moved. If that is on purpose,
regenerate the table with `python tests/golden.py --write` and say in
CHANGES.md which digests moved and why.
"""

import pytest

import golden

TABLE = golden.load()


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_digest(name):
    got = golden.digest(name)
    want = TABLE["digests"].get(name)
    here = golden.toolchain()
    assert got == want, (
        f"{name}: digest {got[:12]} against {str(want)[:12]} in golden.json, "
        f"taken on {TABLE['toolchain']}; this host is {here}"
        + ("" if here == TABLE["toolchain"] else
           " (another toolchain: its libm or numpy may round differently)"))


def test_table_covers_every_case():
    assert sorted(TABLE["digests"]) == sorted(golden.CASES)
