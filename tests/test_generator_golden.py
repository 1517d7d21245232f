"""Golden sha256 hashes of generated dataset files.

`generate_dataset` must write the same bytes for a given seed whatever the
walk's internals: the derivation walk and the per-category reservoirs draw
from one `rng`, so any change to the order or number of draws shows here.
The run-to-run determinism tests elsewhere cannot see such a change.
"""

import hashlib

import pytest

from formaltrip import storage
from formaltrip.grammar import (
    BUILTIN_GRAMMARS,
    ENGLISH,
    SYNTHETIC,
    GenerationConfig,
    VocabularyConfig,
    generate_dataset,
)

GOLDEN = {
    ("ksat3", "operator_total"): {
        "ksat3_operator_total_batch0.jsonl": "7522bf27c1cdf2cab576a4b9c510fe102f8b0ed192da8ff76d7caa5d8d6b5a00",
        "ksat3_operator_total_batch1.jsonl": "2b199b715a7c6e38f411d9c186c04f62da61aeeb48813dc0548ce613e57e4aee",
        "ksat3_operator_total_manifest.json": "487b5257e559a4a436e445be830fe4f9dbd24957dbd147be794d57e71ed2fad3",
    },
    ("prop", "operator_total"): {
        "prop_operator_total_batch0.jsonl": "427a3388b8e7dd86a0e247f46eee00f71598e82f7d1e5933e9ce7f8deb9222e7",
        "prop_operator_total_batch1.jsonl": "cc64242b97f6f46c338776dbcd89ef18344ce18661bb30ac63c88b749d58c6c9",
        "prop_operator_total_manifest.json": "c2948ca0ad771c67d74018383ed3fd6cbcfed7dcbe851bccf946fb5b202b9d0d",
    },
    ("fol", "operator_total"): {
        "fol_operator_total_batch0.jsonl": "360f940cbd109b30f70a33a15a3309ce64b588ad9132d0583717a44ada99dd19",
        "fol_operator_total_batch1.jsonl": "8838cb42b8c273ecafda6bf0e9f77d4a5762c209ed9f4112e538dc0bccd78936",
        "fol_operator_total_manifest.json": "0394b9c8b877c3b7bf80d1d13b3dfde4fcf5c00a8fafb1c09fa44ec954e43ab9",
    },
    ("fol_english", "operator_total"): {
        "fol_operator_total_batch0.jsonl": "16b44cecf08f4aecd0cb63b5af27a01331ef9a645c13abdce2d4d58dc7340092",
        "fol_operator_total_batch1.jsonl": "b9e2c32f73fefca88f54bd748f092e9db23cabdb1dc0b0a89708c53f70259fa5",
        "fol_operator_total_manifest.json": "dfa29644a377e1fd7315bbbc4f3fb9769b27a748e80c34a3248475584ac2193e",
    },
    ("regex", "cfg_depth"): {
        "regex_cfg_depth_batch0.jsonl": "fa67e5dd6d02db81624eacad553f990db0d1af378ee0a891a5142ac88b73b48e",
        "regex_cfg_depth_batch1.jsonl": "f69d8d605bbfcece94cc1b758c16bf467a5bfc805cc5980f3da0f15b5b7fe6bf",
        "regex_cfg_depth_manifest.json": "4cf3685bfa46c7da70d715a1db7a44b65cdd284ff41879543878b7f3e1c93429",
    },
    ("regex", "dfa_nodes"): {
        "regex_dfa_nodes_batch0.jsonl": "6f08bdcdacfedc285d758b62afc0e661ee04d088edbc7faf967e621f3e5bbf53",
        "regex_dfa_nodes_batch1.jsonl": "d34c110259b66d65be76ddef5a85f852d72c7a5fdac379ebda24a03931bcd957",
        "regex_dfa_nodes_manifest.json": "6fc02e7faa43239dac75fc29ecec72aa921ba19046f01d3446276980ca9ba84e",
    },
}


@pytest.mark.parametrize("name,metric", sorted(GOLDEN))
def test_generated_files_match_golden_hashes(name, metric, tmp_path):
    # fol_english is the fol grammar with English names, as `formaltrip generate` builds it
    grammar = BUILTIN_GRAMMARS["fol" if name == "fol_english" else name]
    vocab = VocabularyConfig(naming_mode=ENGLISH if name == "fol_english" else SYNTHETIC)
    config = GenerationConfig(
        depth=12, branching=30, sample_count=5, metric=metric, batches=2, seed=7
    )
    records, manifest = generate_dataset(grammar, vocab, config)
    paths = storage.write_dataset(records, manifest, tmp_path)
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert hashes == GOLDEN[name, metric]
