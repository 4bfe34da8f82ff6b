"""Byte-for-byte goldens of the CLI output.

Each sha256 was captured from the output of the CLI before its output
path and the closed forms behind it were restructured. A change to any
single byte of a table, a sweep, a single-point record or a ``verify``
report fails here.
The ``pure_fidelity_limit`` golden was captured after its digits at
small epsilon were corrected on purpose (see ``test_distill_pure``'s
mpmath reference).
"""

import hashlib
import os
import sys

import numpy as np
import pytest

from entdistill import cli, distill_mixed, distill_pure, noise

TABLES_SHA256 = {
    "lower_bound_gate_noise.csv": "31115d148800321c5d33cd94cbc5fd2fcd02ad3fb8bb81b9a916ddf5902ecc51",
    "lower_bound_p01.csv": "39fd54f85cac8192c40ddb0fd8b5a44bf0c5d444ee6008d174b3ca0673e3758a",
    "lower_bound_p02.csv": "7951b9632d7ad5bed5a21d73030406d278a1b6a6217a6b2c4ccab176af2adbd1",
    "pure_fidelity_gate_noise.csv": "2ead2a75b2f1cadb0f7b89a24cfe7788d4ae12bc747b258df8e4473c86d66b95",
    "pure_fidelity_noiseless.csv": "f8efb2ca396b46c4cc62a50a6d1c753bb4f2a9e59f3f6fea5250150ecce7ec6a",
    "lower_bound_gate_noise.json": "6fcaa312672c8b59dd08b9b92838612bb5efdb5c0f53ad0136fd4908ba201cd9",
    "lower_bound_p01.json": "65f3e845d12133a306731f2e795752b77319b383e02cd19ce295612684a45fd6",
    "lower_bound_p02.json": "09afb4f24944fab796e4cdaaf53773c57d7a6f9e8afb5c3b285ca369968837c6",
    "pure_fidelity_gate_noise.json": "6d701eeb272f9b3f4858f242ae052ecca9752600dfc415f55e234c04ab6f6686",
    "pure_fidelity_noiseless.json": "c90d30cb2de0b98a6667a4c91c5afdae37c9f8f0f650e7426099919c8802a747",
}

# (argv without --format, sha256 of the CSV stdout, sha256 of the JSON stdout)
COMMANDS = [
    (["sweep", "--quantity", "povm_fidelity", "--p", "0.02:0.3:5", "--epsilon", "0:0.1:3",
      "--n", "1:4"],
     "136a70cb7f900235d88a4939689289618cbdb7e939b122e2cf5cf1c904e1dfd3",
     "002dab6a4e2b8cd60a3798ab0fcd27b54182bbe36b5d8a5c64cc3107c70f5e02"),
    (["sweep", "--quantity", "mixed_fidelity_map", "--p", "0.02:0.3:4", "--epsilon", "0:0.1:3",
      "--n", "1:3", "--m", "1:3", "--F", "0.5:0.99:7"],
     "f85c7cc674c2d046e83bff48f8023372627996507b123c40e0f7d290f37e4035",
     "5cd639d1c37da0a702d77d26d370ab54ab11dba73a6035e3f5ba7688a9825717"),
    (["sweep", "--quantity", "lower_bound", "--p", "0.05:0.3:6", "--epsilon", "0,0.05,0.1",
      "--n", "1:4", "--m", "1:4"],
     "75f23fa3c9071a30d75256d5e426ade9477293c97a3a9f0dfa6177128b835a4e",
     "911ebc511aef055d13d5411d08e98e2d2f5caab595ab87599bca81dfbe64ccd2"),
    (["sweep", "--quantity", "lower_bound_limit", "--p", "0.02:0.3:5", "--epsilon", "0.01:0.2:4"],
     "351f424de33380381efacd68753f507ce19d55e68fa925022557ea51d0fc28c2",
     "4ab104cb79c8b8b0098a2ec847cbb4aed34b769e517f223be9088f8cdc63826c"),
    (["sweep", "--quantity", "pure_fidelity", "--p", "0.05,0.1,0.2", "--epsilon", "0,0.05",
      "--n", "1:4", "--theta-frac-pi", "0.02:0.25:5"],
     "17df5712a932476de4f845178de290f143e3ce50caeedd4c8025746f4cceedeb",
     "5a941475dd0c30f3511ac4010021e3fa9baf0ccd3310116a9db8c78abbe7eddd"),
    (["sweep", "--quantity", "mixed_fidelity_map", "--het-band", "0.02", "0.2",
      "--epsilon", "0,0.05", "--n", "1:3", "--m", "1:2", "--F", "0.6,0.8", "--draws", "3",
      "--seed", "11"],
     "d8041b5082d5c96b102a6a98f82a40663d6e7e301673bca20ba03b097fbb4bab",
     "91c422779ab35f179aad29b002f38f1f549f2c6a5f653f7acd1e7926c6493bf2"),
    (["distill-mixed", "--F", "0.7", "--p", "0.1", "--n", "2", "--m", "3", "--epsilon", "0.05",
      "--rounds", "3"],
     "5588a8b668db251a10adfc306044aa88a1dcc7f5d975a9b9601baea7e95bc4c6",
     "e379eb5c4b520f8926b1845285c1df89e3f9c991e32657ac3e7030d3c7c8ba7e"),
    (["distill-mixed", "--F", "0.8", "--pA", "0.1,0.05", "--pB", "0.2", "--epsilon", "0.02",
      "--rounds", "2"],
     "e4c6149a7e03a36344b4dae7e8f6b02beb092ba75139a9807ffb46391e190d64",
     "e130fe2ffa351ba11df144f7c4bc35bb5d388e596938ac31cd0655fe4ab8d994"),
    (["distill-pure", "--theta-frac-pi", "0.0625", "--p", "0.1", "--epsilon", "0.05", "--n", "3"],
     "140cf9aeed1e8404e4aa0bd9cbce1efe5cb4ea311831b86a3c1a242c6d7a83cc",
     "9cc2609c409013104830fab74e77eb757b5736ee27eef4317f10772702f0652c"),
    (["distill-pure", "--theta", "0.3", "--p", "0.2", "--n", "2"],
     "45fc7cc260d9b439f64824cc7f082d95b13fe9cd7fa55c43cebc1fe1dc7d8900",
     "dcb294f75e5dfb4f55b922675968fe4151a6f74802f92461ca011f68c9bc00d5"),
    (["povm-purify", "--p", "0.12", "--n", "3", "--epsilon", "0.05"],
     "48317f7e715e539f77380caaec5eab912d9c512289b785c64d4b522ead765c21",
     "0ec47ffbc7e28d2272d0316dfbeb186d77d1dc065dab8576dd0a7babece4349d"),
    (["povm-purify", "--pList", "0.1,0.2,0.05", "--epsilon", "0.03"],
     "619cfae6af94dc94c62aabebfa69d7097b89724ebff6ad276bce57c6abe8073c",
     "c3579bf474fcf1d0ddc036dc76d4d3b8a6b852837c20c526443905a7c57af937"),
    # Benchmark-sized: one p slice of the 400k-row grid (8,000 rows) and a
    # heterogeneous sweep of 4,000 rows; captured before the sweeps went columnar.
    (["sweep", "--quantity", "mixed_fidelity_map", "--p", "0.02", "--epsilon", "0:0.1:5",
      "--n", "1:4", "--m", "1:4", "--F", "0.5:0.99:100"],
     "35fc8847c9c4f716baf22f4244436a349881cdd8de59aa7adaabaf7a8f21ff65",
     "324431c0e7f1f4356c0bf24edc3eaa6ae3e7f2a34f465dfc94601ed251ed388d"),
    (["sweep", "--quantity", "mixed_fidelity_map", "--het-band", "0.025", "0.175",
      "--epsilon", "0.05,0.1", "--seed", "3", "--n", "1:4", "--m", "1:4",
      "--F", "0.55:0.95:25", "--draws", "5"],
     "33ab030fb426edbc1aa8b2ea5aeb858ad601b6d3432db5276799c9656f76c3e0",
     "5ed696ac569694598ca5e142bf6cedc9b3724fd2d1944beef1731d3fae41d215"),
    # Long last axes of the formulas that square with `** 2`, whose values a
    # product in place of the power changes in the last bit (seen in JSON);
    # captured before these quantities went through the quantity table.
    (["sweep", "--quantity", "pure_fidelity_limit", "--p", "0.05,0.1,0.2",
      "--epsilon", "0.001:0.1:5", "--theta-frac-pi", "0.005:0.245:300"],
     "eb45debdab9dfc3dd3431dda160cdff4e0d75398ba7bd26a144957dab690fc0c",
     "c94a3833ae104ff7d537be09c4960bde3fd0586cc85b14d9deabf5c3d74dfc44"),
    (["sweep", "--quantity", "lower_bound_limit", "--p", "0.02:0.3:5",
      "--epsilon", "0.001:0.2:1000"],
     "0849b6941b58b2d64a9db3a349ca6f0439a3bcb7ffac75115a9a1ac1456a82ec",
     "6c64276c49a85b1a5df9a8ef4d64dfb298c1cb61f527db534d298ebd0432b240"),
    (["sweep", "--quantity", "pure_fidelity", "--p", "0.1", "--epsilon", "0.05", "--n", "3",
      "--theta-frac-pi", "0.001:0.25:3000"],
     "1a3ce1504e52d4d61193113ae2a458b328f38c790c62393874c60e1b02f5a98c",
     "3eb41fe324f5d63ea95e9e26c5fa8617ce1be730c680826fc18fb7c41a569ce4"),
]


# (argv, sha256 of the stdout) of `verify`: every deviation, to its printed digits, and the
# verdict. Captured while the closed forms still ran point by point, before they ran on the
# oracle's (eps, depth) stacks.
VERIFY = [
    (["--full"], "626fc2dfec83a8547a10b25d6ab24cbc321dad6d9406b9b1aaefe7cf26086276"),
    (["--max-n", "4", "--draws", "5", "--seed", "3"],
     "ec75840d88ce7776700d8388b8bf064c36188280b059c9abda6be28bf7fa3984"),
    (["--max-n", "1", "--draws", "1", "--seed", "0"],
     "8b5c6d44f528110c8df4a45b03584688180d2a70e7583928108236a6ecc95722"),
    (["--max-n", "4", "--draws", "20", "--full", "--seed", "4294967295"],
     "1343daadaba7ee700d5a9f525db76977de4a6f1785d0d32dd6fb21ed52ba7507"),
]


# float.hex of every deviation that `run_verification` returns, at the settings of each
# VERIFY argv in turn: the report prints a deviation to 4 digits, which hides a change of
# one ulp that moves a maximum. Captured before the CLI parsed well-formed argvs from its
# argument table.
VERIFY_HEX = [
    {"direct_register": "0x1.0000000000000p-54",
     "mixed_fidelity": "0x1.0000000000000p-51",
     "mixed_p_succ": "0x1.4000000000000p-51",
     "mixed_state": "0x1.0000000000000p-52",
     "povm_coeffs": "0x1.0000000000000p-52",
     "povm_offdiag": "0x0.0p+0",
     "pure_fidelity": "0x1.0000000000000p-51",
     "pure_p_succ": "0x1.0000000000000p-52",
     "pure_state": "0x1.0000000000000p-52"},
    {"mixed_fidelity": "0x1.0000000000000p-51",
     "mixed_p_succ": "0x1.0000000000000p-51",
     "mixed_state": "0x1.8000000000000p-53",
     "povm_coeffs": "0x1.0000000000000p-52",
     "povm_offdiag": "0x0.0p+0",
     "pure_fidelity": "0x1.8000000000000p-52",
     "pure_p_succ": "0x1.0000000000000p-52",
     "pure_state": "0x1.8000000000000p-53"},
    {"mixed_fidelity": "0x1.0000000000000p-52",
     "mixed_p_succ": "0x1.0000000000000p-53",
     "mixed_state": "0x1.0000000000000p-56",
     "povm_coeffs": "0x0.0p+0",
     "povm_offdiag": "0x0.0p+0",
     "pure_fidelity": "0x1.0000000000000p-51",
     "pure_p_succ": "0x1.0000000000000p-52",
     "pure_state": "0x1.8000000000000p-53"},
    {"direct_register": "0x1.8000000000000p-53",
     "mixed_fidelity": "0x1.0000000000000p-51",
     "mixed_p_succ": "0x1.4000000000000p-51",
     "mixed_state": "0x1.0000000000000p-52",
     "povm_coeffs": "0x1.0000000000000p-52",
     "povm_offdiag": "0x0.0p+0",
     "pure_fidelity": "0x1.0000000000000p-51",
     "pure_p_succ": "0x1.0000000000000p-52",
     "pure_state": "0x1.0000000000000p-52"},
]

# sha256 of every closed-form value that `verify` computes at the settings of each VERIFY
# argv in turn (VERIFY_CLOSED_FORMS' results, in call order): a change of one ulp in a value
# that no maximum shows changes it. Captured with VERIFY_HEX.
VERIFY_CLOSED_SHA256 = [
    "e7e2d09412463f6cda911cd24bf9d26d9d25e114bbfe5616969001e8171a9c6f",
    "ba1cb92f616774d829d3c7ca406fe3fde76d85dcfdcaa48e909642037109fadd",
    "5e8fcd512a145f5f2e063108d076cf1b6003c7ac62f32b252e5b520b7bf92533",
    "bfb96115ff5fea7c7011ad2a4ebbeb9749cded6fbfcc9027bed480dfc79ff5b4",
]


# sha256 of the `-h` output of the top-level parser (None) and of each command, at
# COLUMNS 40 and 80 and with COLUMNS unset and no terminal (None), where argparse falls
# back to 80 columns. Captured with Python 3.11's argparse while every formatter still
# read the width on its own, before the parsers read it once per build.
HELP_SHA256 = {
    "40": {
        None: "54403b1ec12ae0dd7af2cd19c5c9a80570ec6751fbe496c772e3ca9fb0c07ddc",
        "tables": "e6b86ac995fff5dfaa685d593b30c91ae222268282dde674374b8b0d35ba2ae7",
        "sweep": "037a0a415da7aed197a7fde1eef7a6c617da25629c673730db852fe9415c961f",
        "verify": "de4d76afb541b5030985d4f4b129953a53313c7646f0caa96d780b792b961b08",
        "distill-mixed": "3dc67d3c1ebc6be00ce16552fc4d531aeb83c5043ffc3a73364c7e610666a05b",
        "distill-pure": "9c06c07cd83ffd0df0436e94e499437f08fc77ea55cf31587b52e05afab009e8",
        "povm-purify": "a561e57aaa7a02d45c19115c7bd34eeb384f3558028e7254e42a862830a84aed",
    },
    "80": {
        None: "52a24302fa191c74dea33b8e26c41fe8ee43c461d494687c77c9bc15ef1b9669",
        "tables": "3c2ba9a18a6137c415462b99f97ad61d6d8986073a80a5500db7e55864d58e34",
        "sweep": "f0a6f19bbe70e3a50820ef21c6cfa3439fd85ad31ffd113923d832b3b9ce8d50",
        "verify": "4d258ead2a7e7f8b1d0b39543694caa919224eea661be5d9a6687621a9588122",
        "distill-mixed": "9a72e9aa56fb960829806476d769ae869e050d8698a190c423927e02aa0dbd47",
        "distill-pure": "850ffad2c50d49b97d67c196330242dd3d3a77c0d88148577d32d10824fb903d",
        "povm-purify": "02a62b78b3e3a131c886cdfce3d832f39ff9df124020bb1af331c509f8fc3287",
    },
    None: {
        None: "52a24302fa191c74dea33b8e26c41fe8ee43c461d494687c77c9bc15ef1b9669",
        "tables": "3c2ba9a18a6137c415462b99f97ad61d6d8986073a80a5500db7e55864d58e34",
        "sweep": "f0a6f19bbe70e3a50820ef21c6cfa3439fd85ad31ffd113923d832b3b9ce8d50",
        "verify": "4d258ead2a7e7f8b1d0b39543694caa919224eea661be5d9a6687621a9588122",
        "distill-mixed": "9a72e9aa56fb960829806476d769ae869e050d8698a190c423927e02aa0dbd47",
        "distill-pure": "850ffad2c50d49b97d67c196330242dd3d3a77c0d88148577d32d10824fb903d",
        "povm-purify": "02a62b78b3e3a131c886cdfce3d832f39ff9df124020bb1af331c509f8fc3287",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tables_match_goldens(fmt, tmp_path, capsys):
    assert cli.main(["tables", "--out", str(tmp_path), "--format", fmt]) == 0
    got = {p.name: _sha256(p.read_bytes()) for p in tmp_path.iterdir()}
    assert got == {k: v for k, v in TABLES_SHA256.items() if k.endswith("." + fmt)}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv,csv_sha,json_sha", COMMANDS,
                         ids=[f"{k}-{c[0][0]}" for k, c in enumerate(COMMANDS)])
def test_command_output_matches_golden(argv, csv_sha, json_sha, fmt, capsys):
    assert cli.main(argv + ["--format", fmt]) == 0
    captured = capsys.readouterr()
    assert _sha256(captured.out.encode()) == (csv_sha if fmt == "csv" else json_sha), argv


@pytest.mark.parametrize("argv,sha", VERIFY, ids=[" ".join(v[0]) for v in VERIFY])
def test_verify_report_matches_golden(argv, sha, capsys):
    assert cli.main(["verify", *argv]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == sha, argv


#: The closed forms that `verify` evaluates, as (module, name, the result's fields or None).
VERIFY_CLOSED_FORMS = [(noise, "purified_coeffs_general", ("r0", "r1")),
                       (distill_mixed, "distill_map", ("fidelity_out", "p_succ")),
                       (distill_mixed, "post_state_unnormalized", None),
                       (distill_pure, "pure_filter_fidelity", ("fidelity_out", "p_succ")),
                       (distill_pure, "pure_post_state_unnormalized", None)]


@pytest.mark.parametrize("argv,hexes,sha", [(v[0], hexes, sha) for v, hexes, sha in
                                             zip(VERIFY, VERIFY_HEX, VERIFY_CLOSED_SHA256)],
                         ids=[" ".join(v[0]) for v in VERIFY])
def test_verify_values_match_golden(argv, hexes, sha, monkeypatch):
    """Every deviation, bit for bit, and every closed-form value that `verify` computes,
    through a sha256 of their bytes in call order: a change of one ulp in any of them fails."""
    digest = hashlib.sha256()

    def spy(function, fields):
        def spied(*args):
            result = function(*args)
            for value in [result] if fields is None else [getattr(result, f) for f in fields]:
                digest.update(np.asarray(value).tobytes())
            return result
        return spied

    for module, name, fields in VERIFY_CLOSED_FORMS:
        monkeypatch.setattr(module, name, spy(getattr(module, name), fields))
    args = cli.build_parser().parse_args(["verify", *argv])
    dev = cli.run_verification(max_n=args.max_n, seed=args.seed, draws=args.draws, full=args.full)
    assert {name: value.hex() for name, value in dev.items()} == hexes
    assert digest.hexdigest() == sha

def _no_terminal(fd=None):
    raise OSError("not a terminal")


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's help text is pinned as Python 3.11 prints it")
@pytest.mark.parametrize("columns", ["40", "80", None])
@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_matches_golden(command, columns, monkeypatch, capsys):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
        monkeypatch.setattr(os, "get_terminal_size", _no_terminal)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    assert cli.main([command, "-h"] if command else ["-h"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == HELP_SHA256[columns][command]
