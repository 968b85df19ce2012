from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

import families

# the sha256 of each family's ``to_json()`` at every size the tests and CI
# build it; a builder that moves its bytes moves every record made from it
DIGESTS = {
    "wide-laminar 3 1": "65706ee24dce70dc998d08e6130be75fa49d95630a8097627d0ae41df73cc14b",
    "wide-laminar 5 1": "e6761c624889894dfb5dedc391a0bed6f49bddc370be3f286e264fc8efc9a3d0",
    "wide-laminar 30 20": "52177c56295e65fcff967ffe8ddc97e5593dd628ffb4010db93cc53efa540c21",
    "wide-laminar 200 170": "a6eab2bd437a824b6d5648cbdec114e07a6095b53101087a7229b2b23ed2ac81",
    "wide-laminar 1500 1000": "1fe1b0e19ed6c5f739ac1795ec4b26ea3ad7009b4a5dbdc0faf3b6a7ebaae1ff",
    "wide-laminar 1500 1052": "cbc3ab41c9f1765c57a2c408e9636766c0288dba29bcce5498bfd355a32b829d",
    "wide-laminar 1500 1053": "f253d071637a52c22f17e07c19c860d3be2197909b70fd5cfd86817e03b9c76b",
    "wide-laminar 1500 1100": "b2d3eb03fd540b20a0662b710fcf54e3b8ee97533138e7e673a328aa3f319844",
    "phase1-transversal 1500 1100": "85766118a6e8db3a2397e17970b1e14199d1a70be10beb93c12e1a45ee94dd0a",
    "phase1-graphic 2200 400": "56474816c1ea44791ab3632d9b8287b826042dc78e38f7ec3b2717567ee2194c",
    "chain 1200": "dce728104505e81ef86b5c4296830ce17ba8a8998b0330b6b092418e21e71916",
    "caterpillar 1": "7d75238f83cde1fdb325d3cb5b9fbed20e86c342b7dcc1dd4c5162f8d1aa18d9",
    "caterpillar 2": "dbdc33cdd7a22b028c4d6417024a528575e1fd3097ea931c9b4e245a408e39ca",
    "caterpillar 40": "1d19c833f6d53c6191364e365cefc5bcd98566c65048e2dc49e720978ed64680",
    "caterpillar 300": "6f32af44e11800e79ec43bfcbb0657e13701c0a55b54ac881ce555692986674d",
    "caterpillar 2000": "b1b5188a4b30a47cb30a031cec343d46b8a1a62d083d8cf0c86f71b5924f89e4",
    "sparse-transversal 20000": "6bee5093bad5952eff058288890476a9f42b81534b75d22e403ff841b39338d9",
    "sparse-transversal 1000000": "544ab0abc31307956eb54d09cc584a390caa6a1aa886fffad4cd9670bef67427",
}


def test_every_family_is_pinned() -> None:
    assert {key.split()[0] for key in DIGESTS} == set(families.FAMILIES)


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_family_bytes_are_pinned(key) -> None:
    name, *sizes = key.split()
    text = families.FAMILIES[name](*map(int, sizes)).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[key]


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_the_command_line_writes_the_pinned_bytes(key) -> None:
    # run from the repository root, where the tier-1 PYTHONPATH=src resolves
    argv = [sys.executable, families.__file__, *key.split()]
    root = Path(families.__file__).parents[1]
    out = subprocess.run(argv, capture_output=True, check=True, cwd=root).stdout
    assert hashlib.sha256(out).hexdigest() == DIGESTS[key]
