"""Golden digests of verification outputs.

The sha256 of the printed residual and of the JSON-lines trace, for the
shipped models and four generated specs in both modes. MESI is the model whose residuals drop many
rules as subsumed, so its cases exercise the rule-subsumption matcher. A
change that alters either output on purpose updates the digest here and says
why in CHANGES.md; a change that only makes verification faster leaves every
digest as it is.
"""

import hashlib

import pytest

import models
from scpv.corpus import generate_model, parse_protocol_spec
from scpv.engine import Limits, verify_protocol
from scpv.lang import print_program

# (model or spec, mode, passes) -> (residual digest, trace digest)
GOLDEN = {
    ("synapse.l", "direct", 1): (
        "1467cf98833264f0076f327fd2e71048ed8ba6ba17c9d7f56265b64476b08f37",
        "a251ee996d984814cff358d92cc791a273c6c04ea5fe02a00326bead9233a40b",
    ),
    ("synapse.l", "indirect", 1): (
        "d0c0c73645977ed1696a509fa61139b8944ab5e48724c49f459566bac307740b",
        "20b7bf686bebf3bc372f887b201b85a87ef21ff9d159feffc1cdcfe24d1e83a2",
    ),
    ("msi.spec", "direct", 1): (
        "7e5538a234f71e0147db35169ac49947a25efa54949829dc2327ea28fbc2be76",
        "de6961c095e8335c0804b27286535d7691a91a60dea263118adc89d67508e183",
    ),
    ("msi.spec", "indirect", 1): (
        "e6ff0bcfb0db220316af323d3e277c3d5d35f97b7463216f86b8cec76a8503dd",
        "756e57d4c3d8579195187fa3ccf4c6ee082eb7bcae16eb2ed97ea1170e02dd5e",
    ),
    ("synapse.l", "indirect", 2): (
        "7d0d0ef31d949cebfafcfeca04ef369dc9ce22961e9377f67672d7a885320739",
        "5f3fa138cf068dd3e42b6abe1cf21a0f96c74a0298096b5286d4f25342083f61",
    ),
    ("mesi.spec", "direct", 1): (
        "bf7f29b514554e245e86b063608dffcdb7d575e419f541156e7f0bd213cb2f3b",
        "eb11a115bd5ce47abd650dbb068a03c626030719b861a53952ffd0c29e7775e2",
    ),
    ("mesi.spec", "indirect", 2): (
        "eb59ba768014edaf1f68002a5f00209ac750d95ff68ab3c48105c9230e83cbb7",
        "21aa8af89abc657b3a71f7faa27920492bd9bb551dbf6caa48a79bfc4e33197b",
    ),
    ("synapse_unsafe_mutant.l", "direct", 2): (
        "d6d50bc3f6f91026e21df78198da3c77a88dd9de4cb1a0307230e06c409a3ec3",
        "9739c6b53c448fb794b45ca1e4f6df8c40cffe78622779ea848e2ff1e6634fcc",
    ),
    ('gen20', 'direct', 2): (
        "cf9617b326aea748ec2265de637d1e27da50d2c20d3343156d3a528260ba395d",
        "e16d60f4eefe0adfd1206084d8884cef94e44e0f48cdf46b02905f88890d7e9f",
    ),
    ('gen20', 'indirect', 2): (
        "d2fec958befbb161b02ad0458302ccd52928b502c7348c0e2bf746bc6f961646",
        "3c244753d5b2b46393a9bdda3d3fa7b092d9c474234b2e69f8fc2c7ff6add918",
    ),
    ('gen22', 'direct', 2): (
        "a9160f1462a762ec41096102852cacb5e180d1f29f3770dc22278d95b3b40e55",
        "d818d1b234e80c5f426c57845a6a62df215c92966757ea9bf0c74da5c1fd7d53",
    ),
    ('gen22', 'indirect', 2): (
        "14de8ef11570c40a63c698fa8cc64eba74d016a053bb7300d45807746058f402",
        "6ebc6571dfef910558f43e10e0ffb52aa7b63e50a337cc9ce5a0a0b3647df740",
    ),
    ('gen27', 'direct', 1): (
        "e04d38a50bc5fd77d08d8b723e24ae63c1e15e32fe2d7178ef2e079c352336ea",
        "6ee84c5783ca4e99459d4663780097a72ff5447cbbe6f0f0fe0922aed5f2cc14",
    ),
    ('gen27', 'indirect', 1): (
        "2608fdfb962bbea20eb8b8a2c21feede3149de975be8c51385d93399622829db",
        "e5c69cd67237124b24b9c74d11527c725694b4c4aff453bcf707498398ee8a1a",
    ),
    ('gen36', 'direct', 1): (
        "0db5c03fba89b71d16996f564148920f2e3ac8b9705014658ae54c1ed872a60b",
        "fa146e4d05a5490fd9078d13b92533c065c6b16cc3c4e015ae4082fa6f18bbb4",
    ),
    ('gen36', 'indirect', 1): (
        "d147d31aa1b0430ee302c692f894c6e87567048a5046d2e9e05587659dc2dcd5",
        "00d71767b88e0d57f0ec75e77420d2e35b8c48a5ae9aae10b55674cdca44e5a4",
    ),
}

# a confirmed counterexample ends the run after its pass
WITNESS_PASS = {
    ("synapse_unsafe_mutant.l", "direct", 2): 1,
    ("gen20", "direct", 2): 1,
}

# specs 20, 22, 27 and 36 of perfbench/specgen.py's
# ``generate_specs(3, 40, names_seed=1)``, run under a 1,000-node cap; together
# they fold into path ancestors, completed drive nodes and task roots
SPECS = {
    "gen20": """\
protocol gen3x20
counter dirty init param
counter pending init zero
counter shared init zero
event rh
  guard shared >= 1
  update dirty := dirty + shared
  update pending := pending + 1
  update shared := 0
event ack
  guard shared >= 1
  update pending := pending + 1
  update shared := shared
event fetch
  guard pending >= 1
  update pending := pending
  update shared := shared + 1
event evict
  guard pending >= 1
  update pending := pending
  update shared := shared + 1
event wm
  guard dirty >= 1
  update dirty := dirty
  update pending := pending + 1
event put
  guard dirty >= 1
  update dirty := dirty
  update pending := pending + 1
unsafe pending >= 2
unsafe shared >= 1, pending >= 1
unsafe pending >= 1, shared >= 1
""",
    "gen22": """\
protocol gen3x22
counter dirty init param
counter invalid init zero
counter owned init zero
counter exclusive init zero
counter shared init zero
event grant
  guard exclusive >= 1
  update owned := owned + 1
  update exclusive := exclusive
event upgrade
  guard owned >= 1
  update dirty := dirty + invalid
  update invalid := 0
  update owned := owned
  update shared := shared + 1
event put
  guard dirty >= 1
  alt
  guard invalid >= 1
  update dirty := dirty
  update exclusive := exclusive + 1
unsafe exclusive >= 2
""",
    "gen27": """\
protocol gen3x27
counter exclusive init param
counter modified init zero
counter owned init zero
event grant
  guard modified >= 1
  update modified := modified
  update owned := owned + 1
event evict
  guard owned >= 1
  update exclusive := exclusive + 1
  update owned := owned
event ack
  guard modified >= 1
  update exclusive := exclusive + 1
  update modified := modified
event wh
  guard exclusive >= 1
  update exclusive := exclusive + modified
  update modified := 0
  update owned := owned + 1
event upgrade
  guard owned >= 2
  alt
  guard modified >= 1
  update exclusive := exclusive + 1 + owned
  update modified := modified + 1
  update owned := 0
event fetch
  guard modified >= 1
  update modified := modified
  update owned := owned + 1
unsafe modified >= 2
unsafe owned >= 1, modified >= 1
""",
    "gen36": """\
protocol gen3x36
counter owned init param
counter pending init zero
counter forward init zero
counter invalid init zero
counter dirty init zero
event evict
  guard dirty >= 1
  update owned := owned + invalid
  update forward := forward + 1
  update invalid := 0
  update dirty := dirty
event wh
  guard invalid >= 1
  update forward := forward + 1
  update invalid := invalid
event wm
  guard invalid >= 1
  update forward := forward + 1
  update invalid := invalid
event rh
  guard owned >= 1
  update owned := owned + invalid
  update forward := forward + 1
  update invalid := 0
event flush
  guard forward >= 1
  update owned := owned + forward
  update forward := 0
  update dirty := dirty + 1
event ack
  guard pending >= 1
  update owned := owned + dirty
  update pending := pending
  update invalid := invalid + 1
  update dirty := 0
unsafe invalid >= 1, pending >= 1
unsafe invalid >= 1, forward >= 1
""",
}
SPEC_LIMITS = Limits(max_nodes=1_000)


def load(name: str):
    if name in SPECS:
        return generate_model(parse_protocol_spec(SPECS[name]))
    return models.load(name)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_outputs_match_golden_digests(case):
    name, mode, passes = case
    want_residual, want_trace = GOLDEN[case]
    # need_residual: a pass that confirms a witness still completes, so the
    # mutant's recorded residual is built
    limits = SPEC_LIMITS if name in SPECS else None
    report = verify_protocol(
        load(name), mode=mode, passes=passes, limits=limits, need_residual=True
    )
    assert report["passes_used"] == WITNESS_PASS.get(case, passes)
    assert sha256(print_program(report["residual"])) == want_residual
    assert sha256(report["trace"].to_jsonl()) == want_trace
