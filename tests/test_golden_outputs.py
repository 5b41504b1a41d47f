"""Golden digests of verification outputs.

The sha256 of the printed residual and of the JSON-lines trace, for the
shipped models in both modes. MESI is the model whose residuals drop many
rules as subsumed, so its cases exercise the rule-subsumption matcher. A
change that alters either output on purpose updates the digest here and says
why in CHANGES.md; a change that only makes verification faster leaves every
digest as it is.
"""

import hashlib

import pytest

import models
from scpv.engine import verify_protocol
from scpv.lang import print_program

# (model, mode, passes) -> (residual digest, trace digest)
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
}

# a confirmed counterexample ends the run after its pass
WITNESS_PASS = {("synapse_unsafe_mutant.l", "direct", 2): 1}

def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_outputs_match_golden_digests(case):
    name, mode, passes = case
    want_residual, want_trace = GOLDEN[case]
    # need_residual: a pass that confirms a witness still completes, so the
    # mutant's recorded residual is built
    report = verify_protocol(models.load(name), mode=mode, passes=passes, need_residual=True)
    assert report["passes_used"] == WITNESS_PASS.get(case, passes)
    assert sha256(print_program(report["residual"])) == want_residual
    assert sha256(report["trace"].to_jsonl()) == want_trace
