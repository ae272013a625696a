"""Golden CLI reports: SHA-256 of run_experiment(cfg).to_json() on a fixed
matrix of generated graphs.

The digests pin every report byte for byte, so a refactor that changes any
constant, invariant verdict or count in a report fails here.  Only
generator-family configs are used, so no file path enters a report.  The
10x10 grid with h = 2 and k = 2 makes the alt Ramsey rule fall back to the
standard rule.
"""
from __future__ import annotations

import hashlib

import pytest

from hopmetric.cli import ExperimentConfig, run_experiment

FAMILIES = {
    "path": {"n": 9},
    "cycle": {"n": 10},
    "grid": {"rows": 4, "cols": 4},
    "gnp": {"n": 14, "p": 0.3},
    "random-weighted": {"n": 16, "p": 0.3, "wmin": 1.0, "wmax": 10.0},
}
RUNS = [("check", "standard"), ("ramsey", "standard"), ("ramsey", "alt"),
        ("clan", "standard"), ("clan", "alt"), ("cover", "standard"),
        ("preserve", "standard"), ("preserve", "alt"), ("oracle", "standard"),
        ("labels", "standard"), ("route", "standard")]
GRID10 = {"rows": 10, "cols": 10}


def configs():
    for h in (2, 4):
        for fam, params in FAMILIES.items():
            for sub, var in RUNS:
                yield (f"{fam}-{sub}-{var}-h{h}",
                       ExperimentConfig(sub, family=fam, params=params, h=h, k=2,
                                        seed=3, variant=var, delta=float(h)))
    for sub, var in RUNS[:7]:
        yield (f"grid10-{sub}-{var}",
               ExperimentConfig(sub, family="grid", params=GRID10, h=2, k=2,
                                seed=3, variant=var, delta=2.0))


GOLDEN = {
    "path-check-standard-h2": "171b44cc90c096b8cfa0958e95cfc1c54a0439de1ce16e69aa1051ddc0affe8a",
    "path-ramsey-standard-h2": "ee06b2cde814e87a892c1f05285a44a2d89634e9df78504c48039a1ed49c7714",
    "path-ramsey-alt-h2": "8d75e14838742c01af17339d8d7cb3ed8b6d13db5f5f567bb74e316a1fc7b069",
    "path-clan-standard-h2": "ef9232c669d2501438bf6e4fb0cee4306f05241270a25aa1d485abc840bee7f3",
    "path-clan-alt-h2": "3a4b4afe380a82472928f6f528eaee3bbd7580e348a23c9f1e127b38c21fbf9d",
    "path-cover-standard-h2": "df63a70a94e29ebcd5e974730d177a9942ec402dc670408364271a4efb48d071",
    "path-preserve-standard-h2": "8da7744c5bc75e5e4ba7d4a851e2a2d2bc6bb757e57b791da1585a0a606031ff",
    "path-preserve-alt-h2": "77979bd0b3f9ec0160b636f4c70272743c0f7b23540093261906e515dc8509e9",
    "path-oracle-standard-h2": "55fbc3411799c0d4dc100a921277b38b93ea9f9279dc55e15e8d931ecba14695",
    "path-labels-standard-h2": "884c9bacfcc1aadda6b2f0a75d4228467ad580b9c68bc720a28844888e83bc3c",
    "path-route-standard-h2": "26600256e5bff4d682f7819d074b69a183063c5cb94c487db73281ced3d6adc2",
    "cycle-check-standard-h2": "e44ad9af296177f72b7e8d6c742f5850e474da6cb4f71e1f626df7964ce062a9",
    "cycle-ramsey-standard-h2": "5650f0bb674bb3d80893a2a59491fd23f596b902b04faf9255fc1d9d898822b1",
    "cycle-ramsey-alt-h2": "686702c3fb9580f3bfeb38aa836ff4ed240a16540f5308621006121a93b9ef4b",
    "cycle-clan-standard-h2": "c548969d4a41f10e66e98bb8af3b441113d7473bc25fa68a91d284326ec896f3",
    "cycle-clan-alt-h2": "4eb59c72068b20c085dc4200ca6c5b14077358b5cb8b7e78a19c0332447b1c1a",
    "cycle-cover-standard-h2": "dc9e16711f6b53bfbef07c62f6d94602743af6a45c791208f60250f4b182f91e",
    "cycle-preserve-standard-h2": "752239cfb18ba87e034294352a9b65fbf0fc311bfb235f503dd0cc77b2e9dbb6",
    "cycle-preserve-alt-h2": "76475423dac2fef6e1917ea646af3fd2221695bbb791fec21bce56c4cff3e1ac",
    "cycle-oracle-standard-h2": "a6c6edf65fd78c23d37aa21795a186389b58284a19ea369663bc7cc31a4f53c9",
    "cycle-labels-standard-h2": "ed9e3ce1afe4d06abbc6d7265844f335d4578974445c700d090d400068890014",
    "cycle-route-standard-h2": "9e471ebf3c8bf1e598022e514c163c8246625545f693d6d37575f0e23a44ea95",
    "grid-check-standard-h2": "8afee2b802805c79dd4006095c0e9075b5ae0b629cab373af8bdf5c1481fab02",
    "grid-ramsey-standard-h2": "65e22ba4c7e57b1d88f9f0b23e9612369a96bb65e96358d60f43d3cba237d556",
    "grid-ramsey-alt-h2": "ddea447b52e8cd6ab53b1fd0ca68d59a53e67cdfc2ef3297c7951fd79b15de7d",
    "grid-clan-standard-h2": "182849c2d845bce1d0cac14e45ae92123828a41c92a78fd35d659b0ad0a1fdbe",
    "grid-clan-alt-h2": "772ef141311f4e1e15e6b5ff3029fc237e21d0adeda05c3c090d2ae88c2ca2e2",
    "grid-cover-standard-h2": "b2ab2aad7f2b2c802c0028df83f649ebc229914cc27d60fd9d9dad6651e71d82",
    "grid-preserve-standard-h2": "844dcb6feec30b692776534a99be48c4e8d06e1da52a4bc4621e20f665421abd",
    "grid-preserve-alt-h2": "3d86f55e07c2189d08c0ae2907a22ad821526e44d9749477e695ba3586b6849e",
    "grid-oracle-standard-h2": "201c31ca02e110cc2b919e6d104c0d53aabad218fca2a1adf1b704fbc2449d7b",
    "grid-labels-standard-h2": "180b750a04a646832463444ceb788dc53b9d4b588a69b3f1ef855c0191a10d7c",
    "grid-route-standard-h2": "6ae1896cded6b9d1202982462ee408e640c9c51c4c6f9c819dd8ccb9101c763f",
    "gnp-check-standard-h2": "b497e2de9fb201062b6dc93bad0467b6c032ae1d054546109e8a6d372ac995db",
    "gnp-ramsey-standard-h2": "b2a28f5e6cb7979cb67a09263ce962bbcc5185a46b0225ad061a79242d20376c",
    "gnp-ramsey-alt-h2": "bb32a5dc7893d8c07755d0ea2b19904f144e09e1051448ff2ed7fa74f713a4f5",
    "gnp-clan-standard-h2": "485643590b589527f8d297554bf7abe8dc3d7598ba06cf930ff1c37929f10a50",
    "gnp-clan-alt-h2": "f8be74369a972e6c54d1deeded5b5909f6fb3ca21415accdf63af8a243a4e0ad",
    "gnp-cover-standard-h2": "521b5783266c511de045e832f994609fc815ded5bc273084dda3b318b8bf5c8d",
    "gnp-preserve-standard-h2": "d991eae42d7d49eadf55f4290bed33492148a7baad94293dcbd8a472383799b0",
    "gnp-preserve-alt-h2": "5eec144fe09598b0464fb508d0423ce600ecda23286df5a9170f66b6c8164293",
    "gnp-oracle-standard-h2": "b3ebb4c677ccdfb531f0d30c7e03bb126c914408d1e516994b07a4f43b5d5902",
    "gnp-labels-standard-h2": "7915d2e88de48b617ce96046a5013de2269b7d13f7c8e388972dbf83a445ea59",
    "gnp-route-standard-h2": "49c21c087055506a52a451af1ef7a062aa90c359655ebd2973975383294627ae",
    "random-weighted-check-standard-h2": "e923310592d855828234029f7bb6747d7d60bc1ca167f18acf87f40a82d77321",
    "random-weighted-ramsey-standard-h2": "1b82bf1d2ece79a3d2eb6d738c6fe0e2417968855f986d3683b695cab7afb9b7",
    "random-weighted-ramsey-alt-h2": "f2ef57c1196f18ed4a51b1631b7b116f109309119caeb18f44abac9bce744c5c",
    "random-weighted-clan-standard-h2": "b39028291d91e1653c5ebd216a74bb7193ec5f9d140409d00c521411c4857121",
    "random-weighted-clan-alt-h2": "92e082bc3807e68e256ba8910bc26662f5d01543ab3bc11c4ddea1d457a2c65d",
    "random-weighted-cover-standard-h2": "200881f297b2a1655edceeb0b95d037b5d4e01ebcb122f3e5660967232be1ac9",
    "random-weighted-preserve-standard-h2": "8579f7fbf3a581fa743b72c33ede258a0ce2fba19487d08a1911f7f2e77dc0f8",
    "random-weighted-preserve-alt-h2": "3b06d776d567c2cd1c509b5e329552d8445725b65df38ddf56e03cda76bab4ea",
    "random-weighted-oracle-standard-h2": "3038185f2ec215705598975209b3b0fbb99470d480e2938e573ffe422ec4441e",
    "random-weighted-labels-standard-h2": "b82455dba721444c0f8571ceafbc5b0b1b3ca7f685b30f6942243e11ce2d7738",
    "random-weighted-route-standard-h2": "e9ca08c8f3b2550dad7cfc24188fbd61ee2918cbc5278f365c24a4664ab8c879",
    "path-check-standard-h4": "936dbf30f00aa48106afa75edace58370fdf83bfde86b10959a28973ecf44170",
    "path-ramsey-standard-h4": "99cc8b4b980f2eca10861fb3f0e61c380de407d4c0067de2e93216edb40b264c",
    "path-ramsey-alt-h4": "d94a5c68d4c24ad8691cf7b12e96a5112f1f6eeb364cdac33d7dbd6d7339bcd4",
    "path-clan-standard-h4": "77f722db037ab38124f88e0cb5c1273ddd03cd9968c29ebf756ded86fbdd33b3",
    "path-clan-alt-h4": "68883b2b92c0a04883758902d354ccc013091143dbb96ba61a345ed53c3519b6",
    "path-cover-standard-h4": "d90f2d5ce053e09798fb18dab36f5fc12298a67bb26a64e15e7af369ac1ee4a8",
    "path-preserve-standard-h4": "a677feacecf52d71d954f40030ac0ecd028e379322ac1a0fcbf1e0f6f8096bef",
    "path-preserve-alt-h4": "98c534c52c736d77700eba537ee115b1934645ccdc3dcc931187d2540736b1fb",
    "path-oracle-standard-h4": "1649595a6272c6988ba003be6549cd1de3c8c24dcf4800d71f9ecadf84b27249",
    "path-labels-standard-h4": "898a58c837572ac570852ebac5f48fc6874cfcbec974e3b8881547ed73edbfd0",
    "path-route-standard-h4": "e0ae954a0afde47e31f2482f3c151ee02b8756aca106850b49e41c48e7f3cda7",
    "cycle-check-standard-h4": "d8d566c525845df8a0749d9c0373354c93988de9a7b38eb69e1cc02f4510c2ad",
    "cycle-ramsey-standard-h4": "566353b24c565caf375a1cf95b11e2352beceba8bceca8fea8c0bafc02e4f96b",
    "cycle-ramsey-alt-h4": "436a7766cd5cd956e116cff2acd38d81f9a4e4102947e18fadde72309ad68dd1",
    "cycle-clan-standard-h4": "853051ed6925bd2101c1876b47da061bf048ea3cef43bdd60d289cb2c499e919",
    "cycle-clan-alt-h4": "14506991f5990e6c1cfd7b719b477f618c334c2e6ca6d2156e481cc1d47374ba",
    "cycle-cover-standard-h4": "12f7cdae11034279be50baee176f52b83f4c3d8f5ab9587f1415a56455f15697",
    "cycle-preserve-standard-h4": "4734baf5381b15f6f7b96168e5f4a72b70c006a1a9adb2d89e8a8cef7f35d8ff",
    "cycle-preserve-alt-h4": "63ffdf07583b14b2b033148648680de35007bc1152d2031d997121e0e7c0674d",
    "cycle-oracle-standard-h4": "493ab4f510ee4a825e1c63fedb2c8cc280111faf4be5800e9ceefe546ee1b9e8",
    "cycle-labels-standard-h4": "0236c94e6f824e80b49f69acf276ee7e89296355328e99f7bf6045df49f02917",
    "cycle-route-standard-h4": "11b712fe2dc9c477595ed7dac9cd96ebc541103a58579e9549b5aa0890f1f3cc",
    "grid-check-standard-h4": "3edb3a9c714e0b0391b05b718e47ec3cd9be8121f9f8bcd5006939223834e2b3",
    "grid-ramsey-standard-h4": "c9ad294ea9c79f3c7d0924b743ccd5c3417279c0e172a45b1afc66d7eab585c9",
    "grid-ramsey-alt-h4": "ad2d313c2361a963570f12b85f9e00aa9acb187a13a5b180788ef3689d22548b",
    "grid-clan-standard-h4": "383fbaf78dda254fd28bee8ef4b68a806f69d2884dd1fedfa855c170d96f961e",
    "grid-clan-alt-h4": "2a7e3fb65af15aec67e23a7b01e6b978d4a57b3d6bd84699a7ee246e498ad51a",
    "grid-cover-standard-h4": "6e25392bb2d5996bc9b7d74cb7ec6c3fe119da57f346f1ee3a00e7e012273142",
    "grid-preserve-standard-h4": "e3772741465360277e363b57b29fbaf53c80575f8db963f0503e18aa1fa5cbda",
    "grid-preserve-alt-h4": "823e6fdfcff115ed4d24fd1483ced4086a3c243fef8ced90215d1b14c58d881d",
    "grid-oracle-standard-h4": "48e91e21546d3b8e91e53d8a1977f81bc0bc720c0288ca1d0da359628888f179",
    "grid-labels-standard-h4": "cb57aa027f7b6abf223820b171c1296baee6a1c58767fe03bf502e8f5c888ebd",
    "grid-route-standard-h4": "2dc71361189e6de72888471086d15a35f85f4d5bc5b19b14969637fddb135bb9",
    "gnp-check-standard-h4": "16d3f7cbf75167963120ac9b06ffb522c9e5e7fa6d30553f623672eb9efcdcb8",
    "gnp-ramsey-standard-h4": "3065983f3c815606ee54fc88f826072a39c4ae60ecc8baf540039e33e2669933",
    "gnp-ramsey-alt-h4": "ea616ae601f20ae0b5690d5f4e4aeb9cc278ccb3d8af1a2e630c6229c6aaee4c",
    "gnp-clan-standard-h4": "43eac7205ba9e0b0a2f7508de39dc13450bf95de5210f801f4bbec26d6aa72b9",
    "gnp-clan-alt-h4": "8a31846a043208f5462221a8bbcef37c6e1ef22460c4b40f60dcc04f6578c1a7",
    "gnp-cover-standard-h4": "91485a3c19454b1e2026e12a78a861e525bca11c1cf1abc0cc4e7d7ec41f0344",
    "gnp-preserve-standard-h4": "bd555d6969d8649a896d1d682b05bd68546bdec2e1d8503ad70b25ec03fc1822",
    "gnp-preserve-alt-h4": "9292bb678938d2be26819d72071a5f4c2b3daf812a2d6364172fa7f2445de53e",
    "gnp-oracle-standard-h4": "650d55f25ec115e557b4c7516443610de72aef61e951119f3d881d1016bedfc7",
    "gnp-labels-standard-h4": "b8875f34877f1bb9ecc0a77bca95dbca52e635153865dcd9b03c70d77c071f0a",
    "gnp-route-standard-h4": "da9ac176063c46a6a33db590988f872db4d318d2459d676decbc0452cd0787ea",
    "random-weighted-check-standard-h4": "91f87356b711913a786b71d1f43e09c011a5e0750112177fb3d22048455a6069",
    "random-weighted-ramsey-standard-h4": "1b5b13bfaa1110df871380ad3b2d986ff0dfdd53998a4ac20ca4aa6c51f640a2",
    "random-weighted-ramsey-alt-h4": "fc9171920011f164c6f1629b91d47a693dcf7cda450bede62919a2c0089bce82",
    "random-weighted-clan-standard-h4": "cd50f36b6ab3d2cb3d34edcf981073579b519ada875a502784cba4a06093dfd9",
    "random-weighted-clan-alt-h4": "4668fb301d91b9d070b970ab67753131874fb7e535d3c4b4a96dde96de77a537",
    "random-weighted-cover-standard-h4": "c942a817c8fec3d1178f1715fb6ef07792df982651a2be4810e953042e2fa49d",
    "random-weighted-preserve-standard-h4": "4327e95cdd1fa2f26be253dfb4926be8efab56b334286b2dee231a4efe469e73",
    "random-weighted-preserve-alt-h4": "66b5382585015843da70f14d19e3eb92bc6cc190e725e4b8f4a9da0c4ddcf9fa",
    "random-weighted-oracle-standard-h4": "a606dcfcc59f0f3848018ea90e33be68b0622d31c452b7aaa58398d4a51742a1",
    "random-weighted-labels-standard-h4": "21e478a671ff35949da433db0b22d83c144dcc37b4fd7f05ab6e5d18ab18f484",
    "random-weighted-route-standard-h4": "d1cb80ede87ef90fdfdd56e0d98eb11e8aa3feac5f46a3b0fae7ce268d6914b7",
    "grid10-check-standard": "3917352968d53d1aee3098919da3c4b9b69aa6b0c28cb0b0154f907eefc03cb7",
    "grid10-ramsey-standard": "c1a5f86d2556f086b1541ea42a7f725d8697840ada55a41622575acd4a0c4b69",
    "grid10-ramsey-alt": "40ff447709b4fb056d3fda9ed746ecb09a820271227727243944b83ab1aa359e",
    "grid10-clan-standard": "0e162ca416f9f444cc233ed4e13f78fd9c32c7080cc77298ba186b22440257fc",
    "grid10-clan-alt": "2e7a2ba6e73b2575debaa8c62f5622caa22152899af02df34b0fb1df18c625df",
    "grid10-cover-standard": "e76e30151e044680e14fd64b52f1848adf07feb87cc1a452644abde5ac92a7e2",
    "grid10-preserve-standard": "a6e70c9dd8dbff7ec6e9a04cdb5d1d5053288e62dd76675c11d746a18fab193e",
}

CONFIGS = dict(configs())


def test_matrix_is_pinned():
    assert set(CONFIGS) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest(name):
    text = run_experiment(CONFIGS[name]).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
