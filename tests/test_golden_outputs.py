"""Golden digests of verification outputs.

The sha256 of the printed residual and of the JSON-lines trace, for two
shipped models in both modes. A change that alters either output on purpose
updates the digest here and says why in CHANGES.md; a change that only makes
verification faster leaves every digest as it is.
"""

import hashlib

import pytest

from scpv.corpus import MSI_SPEC_SRC, generate_model, parse_protocol_spec, synapse_model
from scpv.engine import verify_protocol
from scpv.lang import print_program

# (model, mode, passes) -> (residual digest, trace digest or None)
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
        None,
    ),
}

MODELS = {
    "synapse.l": synapse_model,
    "msi.spec": lambda: generate_model(parse_protocol_spec(MSI_SPEC_SRC)),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_outputs_match_golden_digests(case):
    name, mode, passes = case
    want_residual, want_trace = GOLDEN[case]
    report = verify_protocol(MODELS[name](), mode=mode, passes=passes)
    assert report["passes_used"] == passes
    assert sha256(print_program(report["residual"])) == want_residual
    if want_trace is not None:
        assert sha256(report["trace"].to_jsonl()) == want_trace
