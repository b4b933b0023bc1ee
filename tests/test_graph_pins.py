"""`graph` stdout, pinned byte for byte.

Each digest is the SHA-256 of the DOT or `--json` output of one graph, so
state names, order, multiplicities and edge labels cannot move unnoticed.
What the graphs count is checked independently, against the published
generating functions (`test_acceptance.py`) and the oracle.
"""
import hashlib

import pytest

from crossnest import cli

DIGESTS = {
    ("setpartition", 2, 2, 1, "dot"): "48998d05467ccbdae0cbf259d5078b4116653995c3a0ffc2e2fa44217e077efe",
    ("setpartition", 2, 2, 1, "json"): "8144f1540931616116e82248fdbed40574b2fccbb291bcc249b7f125eec39781",
    ("setpartition", 2, 2, 2, "dot"): "242e4d69a6eb80606aa98dbafbd17c7c928eac2c629dd54aa75f7e51ffc27458",
    ("setpartition", 2, 2, 2, "json"): "72e29dfc5eabddb3eae1d3e85f35efa9dc9cff70e7dc954f9c70a1b723972f76",
    ("setpartition", 2, 2, 3, "dot"): "dfb62817162a726eb895eb7649e8acd175d30d95729bd25ebc91b0ed6b931da7",
    ("setpartition", 2, 2, 3, "json"): "b9369abcc1c1aa408b7ae23e3c4b3b076c4ff62284eaa48e7043eb36f182280f",
    ("setpartition", 2, 2, 4, "dot"): "7859d11d1e3b585e8127ad0b074f511e7ce009d2c042f922de3f24443f5e5f55",
    ("setpartition", 2, 2, 4, "json"): "86e338d7f3d9bf5bcbba4c422d78a78016b6f4f05690eb3d79a8b3f9e44dc476",
    ("setpartition", 2, 2, 5, "dot"): "cbbb55b3fac06b7da0afc0558d8022560265c830696f60c939c49eb3d37b2e0a",
    ("setpartition", 2, 2, 5, "json"): "82d1da5ef28ead7b95aafcd99c238d0643734190662ab9b6b06e40613483746a",
    ("permutation", 2, 2, 1, "dot"): "9af21fb07d3dd491f6704641255f2d72d0309fa02a2c935fead24f8303f546e6",
    ("permutation", 2, 2, 1, "json"): "6458e5a88aeef24672d3af2fac7e312fe51bae166ecbf02bfa49c567f4afe54c",
    ("permutation", 2, 2, 2, "dot"): "1b7339a8bef8baf6c9018a416308289eba10f93322ee7a9cb27523064cfdf4c9",
    ("permutation", 2, 2, 2, "json"): "d76db3f45ebd965ec48b8dbfb74ed189c30e6c1bf78816a8d986005231f8cde1",
    ("permutation", 2, 2, 3, "dot"): "98e96e158227acca0fbacd4d96d9c235de412821bc6aa92399e0ff708f71ea80",
    ("permutation", 2, 2, 3, "json"): "ce19cb912f65525a4f46b6412da90c66508de268108a8eb2561cb276f1be4a50",
    ("permutation", 2, 2, 4, "dot"): "39488e1b282dbd8dfbfa69fe60b8c86b20dad9b0181f1ff27a5e0b6206f48058",
    ("permutation", 2, 2, 4, "json"): "fca2d069997f94231c03e298c1572147bc8a227f3fdc5e1aea90944a51fcab5a",
    ("permutation", 2, 2, 5, "dot"): "b7829a6cd4d45162f927d02712b1bf16309b9e67b198317225943a6e3fcb7cc6",
    ("permutation", 2, 2, 5, "json"): "17f9bb69e83e74e4d665086999efecd09b3af74be62b28907f0e7a1c03f0ae5e",
    ("setpartition", 3, 3, 1, "dot"): "2a70cbbb0a52017b19acd25e00b9d186351cafb01a502ce38bb3a80bb3093f34",
    ("setpartition", 3, 3, 1, "json"): "b897377bd869cd1ab73aa15714af837a424b5a0baec1f3bf5d9be177abb2d88d",
    ("setpartition", 3, 3, 2, "dot"): "8150370e6b1e96a7d3e9a89f5c494008933c35704d5afb1e85a7bd945b077e8c",
    ("setpartition", 3, 3, 2, "json"): "e92d40f7c7ca2e779fdf5644d53f292eeb7cca918ec00b562a6e4b0eb4a749b8",
    ("permutation", 3, 3, 1, "dot"): "23771735849bf1e29035d295be1e7cb84244f29b1ab400ec019fa4bbada24b23",
    ("permutation", 3, 3, 1, "json"): "163a31fd3e85a6eb8a46267be4809ace51d0fd8600dd86dc85d4061a3f217e20",
    ("permutation", 3, 3, 2, "dot"): "64959f74123eae8d706aa17dc2806a1083b2a9d864d640900c446ab167b97c36",
    ("permutation", 3, 3, 2, "json"): "53fd453f0941115d939525cfe0c0b4db7ee38560a865e85708db18f17e0ba2d5",
}


@pytest.mark.parametrize("family,j,k,r,fmt", sorted(DIGESTS))
def test_graph_output_is_pinned(capsys, family, j, k, r, fmt):
    argv = ["graph", "--family", family, "--j", str(j), "--k", str(k), "--colours", str(r)]
    if fmt == "json":
        argv.append("--json")
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[(family, j, k, r, fmt)]
