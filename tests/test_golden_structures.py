"""Golden data-structure outputs: SHA-256 of the hop oracle, the hop
labeling and the routing scheme on a few seeded graphs.

``test_golden_reports.py`` pins the CLI reports, which sample a few pairs;
these digests pin every stored label and table and every answer:

- ``build_hop_oracle``: coarse homes and labels, and all-pairs answers;
- ``build_hop_labeling``: every vertex label;
- ``build_routing_scheme``: the per-scale TZ tables and routing labels, and
  the result of ``route`` for every ordered pair;
- the record fields of all three: ``size_words()``, ``hop_budget``,
  ``stretch``, the sorted ``omegas`` and the number of scale structures,
  plus the labeling's coarse homes and labels.

Each output is flattened into nested lists (dicts as key-sorted pairs) and
hashed through ``repr``, so floats are compared bit for bit.
"""
from __future__ import annotations

import dataclasses
import hashlib

import pytest

from hopmetric.cli import gen_graph
from hopmetric.datastructures import (build_hop_labeling, build_hop_oracle,
                                      build_routing_scheme, hop_oracle_query,
                                      route)

GRAPHS = {
    "rw32-h2": ("random-weighted", {"n": 32, "p": 0.15, "wmin": 1.0, "wmax": 10.0}, 4, 2),
    "rw24-sparse-h2": ("random-weighted", {"n": 24, "p": 0.08, "wmin": 1.0, "wmax": 5.0}, 7, 2),
    "grid5x6-h2": ("grid", {"rows": 5, "cols": 6}, 1, 2),
    "gnp28-h4": ("gnp", {"n": 28, "p": 0.15}, 2, 4),
    "rw40-h8": ("random-weighted", {"n": 40, "p": 0.12, "wmin": 1.0, "wmax": 10.0}, 5, 8),
}
K, EPS = 2, 0.5


def _flat(x):
    if isinstance(x, dict):
        return [[_flat(k), _flat(v)] for k, v in sorted(x.items())]
    if dataclasses.is_dataclass(x):
        return [_flat(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, (frozenset, set)):
        return sorted(x)
    if isinstance(x, (list, tuple)):
        return [_flat(y) for y in x]
    return x


def _digest(obj) -> str:
    return hashlib.sha256(repr(_flat(obj)).encode()).hexdigest()


def _record(R):
    return [R.size_words(), R.hop_budget, R.stretch, sorted(R.omegas.items()), len(R.inner)]


def outputs(name: str):
    family, params, seed, h = GRAPHS[name]
    G = gen_graph(family, params, seed)
    pairs = [(u, v) for u in range(G.n) for v in range(G.n)]
    O = build_hop_oracle(G, h, K, EPS, seed)
    L = build_hop_labeling(G, h, K, EPS)
    S = build_routing_scheme(G, h, K, EPS, seed)
    return {
        "oracle-coarse": _digest((O.coarse.home, O.coarse.labels)),
        "oracle-answers": _digest([hop_oracle_query(O, u, v) for u, v in pairs]),
        "labeling": _digest(L.labels),
        "routing-tables": _digest({i: (R.tables, R.rlabels) for i, R in S.inner.items()}),
        "routing-paths": _digest([route(S, u, v) for u, v in pairs]),
        "records": _digest([_record(O), _record(L), _record(S),
                            L.coarse.home, L.coarse.labels]),
    }


GOLDEN = {
    "rw32-h2": {
        "oracle-coarse": "48472e75680d20a8125763e642eeeb71cb9035ba186e5352c3175a3b321aa138",
        "oracle-answers": "98cb3d2f2eedc9553d6ac13d4a44c2a673afa729a35260dd61cc5db52a85ddac",
        "labeling": "727cf1efbe9631a4bf06c5190628c4b78e228b94afa351697a13a41b5bbbbc1a",
        "routing-tables": "8187b8109c78ae204296101345e5f12d45e01028cad3bdff6e851129882eb8e5",
        "routing-paths": "b719665be10dd191c042a407fd846e16cce68e1242c2cf0c2d0135b74ff7f746",
        "records": "5444e075c92e81688ac03f02973822962754932a9e241799920fe11159a50e83",
    },
    "rw24-sparse-h2": {
        "oracle-coarse": "abe991b73b2fbe945eee07475636fbe398c6df207317a08a9c8ec34b12a66563",
        "oracle-answers": "43f85c01c24e2ddfce83227ff2133b7d40a6c597d538005b7974104aecd7c7d2",
        "labeling": "ceb01dc4790d24907d71a6b54a610604f5a937fd8c8f3be4de2ca070649cee8b",
        "routing-tables": "ba10883413afab4ba7e1310f7a56a49a90c6d8d394a7b201556ecb43e111cad4",
        "routing-paths": "55c73abdaa8ea98d1143634b6328e9788ccfb5a28c849b6ca7b8d3af5eb60db0",
        "records": "32f186e94b2c5490a7077e4adf95b47bfd0739c19382ae86aa5b04fd28c62ff8",
    },
    "grid5x6-h2": {
        "oracle-coarse": "ba823fface0f1570dadef995d332e21039772d5c7e23fa13caa50a506749ae03",
        "oracle-answers": "849a68564631c12a5063fdfb27a4e61e445e62e2594bf807c16fb6fa04b241ec",
        "labeling": "17081f6e49182e000c618b26b3e9d4e18a7396cfeb3e7d34958fd3874484ad0d",
        "routing-tables": "3a12ef7758f841b8df69f6cd3639ca41c9bad8ac65dbb986586570685f3127d9",
        "routing-paths": "9c9c57ceb5e2b0339419d3c31b8344ceb42afdbe34175bcd92705df707fd3355",
        "records": "7b68319c2e3f5b995eb1462b30135267b6a01396cd0cc4cf2ecc8a59a2c8966f",
    },
    "gnp28-h4": {
        "oracle-coarse": "62c8e750c1eec58559a2f41e509e807f2a090bbc2865b0958ff3d3e032fefee2",
        "oracle-answers": "072e13101ae173d4d200a9211669ea31a7d137ad29e0355d2c6d528eaa68f6b7",
        "labeling": "efd31af2c813e87f7bf0243bbf048f834a52a5ce435b14dd64d1041f25cca791",
        "routing-tables": "19f73c0e5a3ea18853b6f642a84d86bc301de1e3702c78af7bf2cf7f722673f9",
        "routing-paths": "1a6c078fdcc4bd50c2102f5b5b68387fece0d7f769dda89206433a57f31f70a4",
        "records": "06de41f1c6344a85e6ba95ca164a6cde208a29cb5c7d3c900c29175e1e361e21",
    },
    "rw40-h8": {
        "oracle-coarse": "2ffeb6ee1bfacdb80eeb54dbd35534f7597f2e297d7f746a43f12a02eeacabd7",
        "oracle-answers": "6f96da03fd6150881028950212178c6bc0b3295b8335aa5338d210f34702c846",
        "labeling": "e847c7f5e1591822d4db10a5c4da5803aec99b3127e2030b3735a9dbafe1d2d4",
        "routing-tables": "d24406cf12b603df2674efbacd7cc71bd454db7244b1f71bd41be4e9b5afec57",
        "routing-paths": "912a3fc11f2d4a0d6b091621497f64d5269a7575848048a8765c2aa743430f89",
        "records": "5ca5d2ce8cf653aa147ee8b9207181cf30706092a6e47e21ab71e45bd680b41d",
    },
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_structure_digests(name):
    assert outputs(name) == GOLDEN[name]
