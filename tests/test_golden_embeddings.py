"""Golden embedding outputs: SHA-256 of the Ramsey and clan embeddings on a
few fixed graphs.

``test_golden_reports.py`` pins the CLI reports, which carry only the
constants; these digests pin the whole tree and its vertex maps:

- ``ramsey_embed``: ``U.to_json()``, the surviving marked set M, t, beta,
  phi, omega and the largest cluster index ``max_j``;
- ``clan_embed``: ``U.to_json()``, the clans f, the chiefs chi, t, beta,
  phi, omega and ``path_t``;
- ``ramsey_distribution`` and ``clan_distribution``: the same for every
  round, with its probability.

Each record is flattened into nested lists (dicts as key-sorted pairs) and
hashed through ``repr``, so floats are compared bit for bit.
"""
from __future__ import annotations

import hashlib
import random

import pytest

from hopmetric.clan import clan_distribution, clan_embed
from hopmetric.cli import gen_graph
from hopmetric.graph_core import WeightedGraph
from hopmetric.ramsey import ramsey_distribution, ramsey_embed
from oracles import random_graph


def _flat(x):
    if isinstance(x, dict):
        return [[_flat(k), _flat(v)] for k, v in sorted(x.items())]
    if isinstance(x, (frozenset, set)):
        return sorted(x)
    if isinstance(x, (list, tuple)):
        return [_flat(y) for y in x]
    return x


def _digest(obj) -> str:
    return hashlib.sha256(repr(_flat(obj)).encode()).hexdigest()


def _ramsey_record(emb):
    return (emb.U.to_json(), emb.M, emb.t, emb.beta, emb.phi, emb.omega, emb.max_j,
            emb.variant)


def _clan_record(emb):
    return (emb.U.to_json(), emb.f, emb.chi, emb.t, emb.beta, emb.phi, emb.omega,
            emb.path_t, emb.variant)


def _graph(name: str) -> WeightedGraph:
    if name == "grid10":
        return gen_graph("grid", {"rows": 10, "cols": 10})
    if name == "rw24":
        return gen_graph("random-weighted",
                         {"n": 24, "p": 0.15, "wmin": 1.0, "wmax": 10.0}, 3)
    if name == "disc16":
        return random_graph(random.Random(7), 16, 0.1, 1.0, 4.0)  # 2 components
    if name == "rw12":
        return gen_graph("random-weighted",
                         {"n": 12, "p": 0.3, "wmin": 1.0, "wmax": 5.0}, 2)
    assert name == "one"
    return WeightedGraph(1, [])


def _measure(G: WeightedGraph):
    return [1.0 + (v % 3) * 0.5 for v in range(G.n)]


# (graph, h, k); the Ramsey marked set is every other vertex
EMBEDS = {
    "grid10-h2": ("grid10", 2, 2),
    "grid10-h4": ("grid10", 4, 3),
    "rw24-h1": ("rw24", 1, 2),
    "rw24-h2": ("rw24", 2, 2),
    "rw24-h4": ("rw24", 4, 1),
    "disc16-h2": ("disc16", 2, 2),
    "one-h1": ("one", 1, 2),
}
# (graph, h, mode, rounds, k, epsilon)
DISTRIBUTIONS = {
    "ramsey-fixed_k": ("rw24", 2, "fixed_k", 3, 2, 0.25),
    "ramsey-inclusion": ("rw12", 2, "inclusion", 2, 2, 0.5),
    "clan-fixed_k": ("rw24", 2, "fixed_k", 3, 2, 0.5),
    "clan-expected": ("rw12", 2, "expected", 2, 2, 0.5),
}


def embed_digest(name: str, kind: str, variant: str) -> str:
    gname, h, k = EMBEDS[name]
    G = _graph(gname)
    mu = _measure(G)
    if kind == "ramsey":
        M0 = set(range(0, G.n, 2))
        return _digest(_ramsey_record(ramsey_embed(G, mu, M0, h, k, variant)))
    return _digest(_clan_record(clan_embed(G, mu, h, k, variant)))


def distribution_digest(name: str, variant: str) -> str:
    gname, h, mode, rounds, k, eps = DISTRIBUTIONS[name]
    G = _graph(gname)
    if name.startswith("ramsey"):
        dist = ramsey_distribution(G, h, mode, rounds, k, eps, variant)
        return _digest([(_ramsey_record(e), p) for e, p in dist])
    dist = clan_distribution(G, h, mode, rounds, k, eps, variant)
    return _digest([(_clan_record(e), p) for e, p in dist])


GOLDEN_EMBEDS = {
    ('disc16-h2', 'ramsey', 'standard'):
        'e298281a9b2b1b1a3b6f722781287e545f1d80d4677ad19d1c85416dd68a2208',
    ('disc16-h2', 'ramsey', 'alt'):
        'b307acf9988d5f4d1494702d30b53bab3d04fb7d5ca06b35c435c0741a94358f',
    ('disc16-h2', 'clan', 'standard'):
        'a072e6a6cd8a6c06752180685561ca78e1359ee568a69d2f2ed7cb39d781a764',
    ('disc16-h2', 'clan', 'alt'):
        'df2070b269fba83d92d0d8df87ac6c69ec9a9379fbf6250774a83c0a1ac6a5f5',
    ('grid10-h2', 'ramsey', 'standard'):
        '97f8730fe8e8c207d84e892be71ac466702f2cf73b014409bfce97689f401eb4',
    ('grid10-h2', 'ramsey', 'alt'):
        '092be9db2e2e12a05129e6cb5db152c8eabf1ec48a98eee2958c6be059789b50',
    ('grid10-h2', 'clan', 'standard'):
        'c0c0d5fe151068f29484503d5f0dfa7a7b0517e43b6906d4afa6eb9440b4bf96',
    ('grid10-h2', 'clan', 'alt'):
        '5f7b2ab55787aea87146efaf5355b7dcde3b7fb37df6eb9d35b73b9d7ab583d9',
    ('grid10-h4', 'ramsey', 'standard'):
        '782a56231db9222b2afddb8f7dcff4b15af8f1c6b05ac598ee9e1675b30df606',
    ('grid10-h4', 'ramsey', 'alt'):
        '3ba2b299b21c252ea613a6a7092150bdf986c520bb465a1de3adf189665d4100',
    ('grid10-h4', 'clan', 'standard'):
        '1cdb06f054c6cc142c123522f21c4b64171b2a05d554ac0c0bab0ad60af45571',
    ('grid10-h4', 'clan', 'alt'):
        '1f3f78e04f4d08f80f70337f58092c0644cc1847ed4644abfbcda065bcf3055d',
    ('one-h1', 'ramsey', 'standard'):
        'b924547e3aeceb424d00769abb7db4b2d36aa5d2fbb4e799ba69670ffa0b1c48',
    ('one-h1', 'ramsey', 'alt'):
        '03bac37c8da5b9c8e9bc5cffcee0bc06f75e1af4979025a807e0bf6fca48929d',
    ('one-h1', 'clan', 'standard'):
        'd2f6652801b19908a16f9fbe7751b64c888488d21b4b71fc70bdb15b96039c6b',
    ('one-h1', 'clan', 'alt'):
        '8f9629ca64780b99e81d1cfd3a0393b97ef4ba89391f56f47d2c1ea1a82a1e53',
    ('rw24-h1', 'ramsey', 'standard'):
        '414ae7d3256f03fdbb536df80ada74d28d6bb5bfded90b7d60b372badb92c932',
    ('rw24-h1', 'ramsey', 'alt'):
        'a85a3efcf2afe96985a10ffd08e8b6aba103729dfaafe591b703736b2e4000b0',
    ('rw24-h1', 'clan', 'standard'):
        'b71498daceacfb84d79902780f50397a469a7ea525b50f77b8ae327f18865a37',
    ('rw24-h1', 'clan', 'alt'):
        '0a0c6e0184b381233df26f8835013f795ba44064a0a61da8e9bce56a30771a03',
    ('rw24-h2', 'ramsey', 'standard'):
        '1b375596755512bfcf9d770d76c634cccca37e574555da2b3fa9041a0c89013b',
    ('rw24-h2', 'ramsey', 'alt'):
        '691458fc5013c6d34decb44ebd36d6aa7267d002aea1480bcbd42f99e27359f5',
    ('rw24-h2', 'clan', 'standard'):
        '947b3afbcb7b837aeb7f1bdd1ec8911c0d13cece95442f13c61408dd356e1df3',
    ('rw24-h2', 'clan', 'alt'):
        '675f03b020404d07f2f3edec9bceb8b943fcc977610f494e4e0864793f319e2c',
    ('rw24-h4', 'ramsey', 'standard'):
        'a925948894da6ce0df3d5609ce9b7d3630a4fc515ff0d12bb5291cbdcbdc52fe',
    ('rw24-h4', 'ramsey', 'alt'):
        '8a49c0d1575054cda38c981a590a8bbb1d41834579df81aec5af2436f7920b00',
    ('rw24-h4', 'clan', 'standard'):
        'd8a674c1f32fca2d047e1b02fd541c242695cc37e26b2bee8f458ac8f5f2b21b',
    ('rw24-h4', 'clan', 'alt'):
        '7b1ea8c53d8dcce7bc0afb46473de7a146b6a3a7455722d2dd07813e6d641d3a',
}

GOLDEN_DISTRIBUTIONS = {
    ('clan-expected', 'standard'):
        '33f52c3a602d01f4236384fae62ef98a04052e4c07bb19b6b3c3b693eaa5946f',
    ('clan-expected', 'alt'):
        '60704d475bc97604e7055ca97c51a05c7b7d34872164e6069988185c04d2a8e9',
    ('clan-fixed_k', 'standard'):
        '82b6a04557d2d1dfc42b23d937e4ca055615d1a153f1ba86d4b8aa22b3691bee',
    ('clan-fixed_k', 'alt'):
        '969c28e7d6e93e2e720d5b8dac5d316c40011125e35b53b50b6f18692689b8ea',
    ('ramsey-fixed_k', 'standard'):
        '10f89b10ec129783a029111f6389bec6cb7d1bd4bb51090a6d3a29a80638043a',
    ('ramsey-fixed_k', 'alt'):
        'ccb4de65fe8c49d95700d1326cd163f19527ac5f7d08cd6c109d73d6acdac733',
    ('ramsey-inclusion', 'standard'):
        '9264ebe6a2aeeaf6dff011c654d77cf79d84308bbc3b724b04b7c7a3acc9067a',
    ('ramsey-inclusion', 'alt'):
        'ba7843491d00fb39d9ee570f2837f88ef9920bf26128f603aa79dd24575dc2d3',
}


@pytest.mark.parametrize("variant", ["standard", "alt"])
@pytest.mark.parametrize("kind", ["ramsey", "clan"])
@pytest.mark.parametrize("name", sorted(EMBEDS))
def test_embedding_digests(name, kind, variant):
    assert embed_digest(name, kind, variant) == GOLDEN_EMBEDS[(name, kind, variant)]


@pytest.mark.parametrize("variant", ["standard", "alt"])
@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
def test_distribution_digests(name, variant):
    assert distribution_digest(name, variant) == GOLDEN_DISTRIBUTIONS[(name, variant)]
