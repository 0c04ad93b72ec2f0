"""Stdout corpus: a fixed list of commands, each output pinned by its SHA-256.

Every command runs in process, inside a fresh temporary directory that holds
``object.bin``, and every path it is given is relative, so no output depends
on where the test runs.  A case is one command, or a codec round trip: encode,
then decode from a subset of the fragment files; its digest is taken over the
stdout of each command in turn.

A change that alters output on purpose re-records the digests, printed by

    PYTHONPATH=src python tests/test_corpus.py

and says in CHANGES.md which cases changed.
"""

import hashlib
import random
from pathlib import Path

import pytest
from click.testing import CliRunner

from durakit.cli import main

FORMATS = ("table", "json", "csv")

#: name -> arguments after ``--format``; each runs in every format
ANALYTIC = {
    "plan ec": ["plan", "--mode", "ec", "--epsilon", "1e-9", "--p", "0.01", "--m", "8"],
    "plan replication": ["plan", "--mode", "replication", "--epsilon", "1e-9",
                         "--p", "0.01"],
    "compare": ["compare", "--p", "0.01", "--scheme", "rep:3", "--scheme", "ec:8+3",
                "--epsilon", "1e-9"],
    "compare dcs latencies": [
        "compare", "--p", "0.01", "--scheme", "rep:3", "--scheme", "ec:8+3",
        "--scheme", "ec:6+3", "--dcs", "3", "--q", "0.001", "--p-unavail", "0.02",
        "--latencies", "1,100",
    ],
    "report lrc": ["codec", "report", "--scheme", "lrc-6-2-2"],
    "report rs": ["codec", "report", "--scheme", "rs:8+3", "--max-t", "5"],
}
CURVES = {
    "p": ["--values", "0.001,0.01,0.05", "--scheme", "rep:3", "--scheme", "ec:8+3"],
    "m": ["--values", "4,8,12", "--p", "0.01", "--scheme", "ec:8+3"],
    "n": ["--values", "1,2,3", "--p", "0.01", "--scheme", "ec:8+3", "--scheme", "rep:3"],
    "q": ["--values", "0,0.001,0.01", "--p", "0.01", "--scheme", "ec:8+3",
          "--scheme", "rep:3"],
    "scale": ["--values", "1,2", "--p", "0.01", "--scheme", "ec:4+2", "--epsilon", "1e-6"],
}
WITH_SITES = ["--dcs", "4", "--q", "0.001", "--latencies", "1,50"]
for axis, rest in CURVES.items():
    ANALYTIC[f"curve {axis}"] = ["curve", "--x", axis, *rest]
    ANALYTIC[f"curve {axis} dcs latencies"] = ["curve", "--x", axis, *rest, *WITH_SITES]

#: the eight simulate runs of the CI job, each at one and two threads, of
#: 300,000 trials unless ``SIMULATION_TRIALS`` names the run
SIMULATIONS = {
    "loss": ["--scenario", "loss", "--p", "0.05", "--m", "8", "--n", "3"],
    "availability": ["--scenario", "availability", "--dcs", "3", "--q", "0.01",
                     "--p-unavail", "0.02", "--m", "8", "--n", "3"],
    "availability 305 dcs": ["--scenario", "availability", "--m", "300", "--n", "5",
                             "--dcs", "305", "--q", "0.005", "--p-unavail", "0.005"],
    "availability replicas": ["--scenario", "availability", "--replicas", "3", "--dcs", "3",
                              "--q", "0.01", "--p-unavail", "0.02"],
    "availability 200 dcs": ["--scenario", "availability", "--m", "5", "--n", "300",
                             "--dcs", "200", "--q", "0.001", "--p-unavail", "0.98"],
    "latency-rep": ["--scenario", "latency", "--p", "0.05", "--latencies", "1,20,100"],
    "latency-ec": ["--scenario", "latency", "--p", "0.05", "--latencies", "1,100",
                   "--m", "8", "--n", "3"],
    # a table of 201 counts, past the compare bound, tallied by 2 edges: its
    # stdout must be that of a binary search over all 200
    "latency-ec-wide": ["--scenario", "latency", "--p", "0.05", "--latencies", "1,100",
                        "--m", "200", "--n", "20"],
}
#: 2.6e-5 unavailable, so 300,000 trials would expect under the 10 events the
#: rare-event guard asks for
SIMULATION_TRIALS = {"availability replicas": "1000000"}

#: scheme -> indices of the fragment files decode reads
ROUND_TRIPS = {
    "rs:8+3": range(3, 11),
    "lrc-6-2-2": (1, 2, 4, 5, 6, 8, 9),
    "rep:3": (2,),
}


def cases():
    """name -> list of argument lists, run in order in one directory."""
    found = {}
    for name, args in ANALYTIC.items():
        for fmt in FORMATS:
            found[f"{name} {fmt}"] = [["--format", fmt, *args]]
    for name, args in SIMULATIONS.items():
        for threads in (1, 2):
            found[f"simulate {name} threads {threads}"] = [[
                "--format", "json", "--seed", "11", "--threads", str(threads), "--check",
                "simulate", *args, "--trials", SIMULATION_TRIALS.get(name, "300000"),
            ]]
    for scheme, kept in ROUND_TRIPS.items():
        files = [f"frags/object.bin.f{i:03d}.ecfr" for i in kept]
        for fmt in FORMATS:
            found[f"codec {scheme} {fmt}"] = [
                ["--format", fmt, "codec", "encode", "object.bin", "--scheme", scheme,
                 "--out-dir", "frags"],
                ["--format", fmt, "codec", "decode", *files, "--out", "restored.bin"],
            ]
    return found


CASES = cases()
OBJECT = random.Random(26).randbytes(5000)


def digest(commands, directory) -> str:
    """SHA-256 over the stdout of each command, run in order in ``directory``."""
    runner = CliRunner()
    sha = hashlib.sha256()
    with runner.isolated_filesystem(temp_dir=directory):
        Path("object.bin").write_bytes(OBJECT)
        for args in commands:
            result = runner.invoke(main, args, catch_exceptions=False)
            assert result.exit_code == 0, (args, result.output)
            sha.update(result.stdout_bytes)
        if Path("restored.bin").exists():
            assert Path("restored.bin").read_bytes() == OBJECT
    return sha.hexdigest()


DIGESTS = {
    "plan ec table": "f46cba3e800b2e6c491ab9cee425fd3ee8ae3a7b460004fe60abeec396d35518",
    "plan ec json": "d5bf1f301a9cbfeb66a7f0239feffab14b6ff29dab4fe26f0b3d4c80f2d6e430",
    "plan ec csv": "3f0d6dc9f358e6c333a95355bf26351ceaa5acd481aac5da2596a6dd5d90ef19",
    "plan replication table": "4f986154ffccb4040a4513a455c57d358fd1a15439fefa2af4edbf5190bb17dc",
    "plan replication json": "e00bc2999819599f9aeff5c589161dc3d8b950c086e572eb026838afdb9d9fdf",
    "plan replication csv": "86a9e4a43abd0b7968b111476fc9b85fa8057823c1d9a504c9bcb26c18d7ea59",
    "compare table": "07ee20e7a97c6e53a9db932f195e0a38450aa035c84917daf230821ae41148d5",
    "compare json": "5aa2d4ef34b8da41ad6c8343511bd4811684f32406b2816b72e14b3baa0efd04",
    "compare csv": "bc5d180565d05ea8de286e84e7317c7c2733d239246a2f1d525ba6a4cf15885b",
    "compare dcs latencies table": "4527801793d8f40c43716b589e12020b59facff8663b9fc03cbd8956880d0f56",
    "compare dcs latencies json": "da38ea15d46e1066f43e307eb44394c34fa94837a4a1054c85571fc7e088dd87",
    "compare dcs latencies csv": "2e281e06fef1b71b5daf55bb4a8c156321c710fdc01052dcc0200a3287b49a28",
    "report lrc table": "14a6483d0815b3c388d018677a80ef57b2f68c1da6dfb8aa3dc2e6773e054a35",
    "report lrc json": "18077537ae3ef2df44f3032f797ed7ac094599646cbd2119fbdeb89dda7d5078",
    "report lrc csv": "d8c526373739c83a453747cef11cbc9dfd4dba99e54cf675c3c26e3cb5dc51af",
    "report rs table": "2d91d7c47313504e878eebfe015ff0624ec528ffd52b04ac1b94e5da7524ad4b",
    "report rs json": "424e2ff1c1a8342b3a3b3f11db32239c5c8e23c51d65559729e30fb12986c791",
    "report rs csv": "cc698ab1e7c178f02fbff1c584bc10cb2fa3094b313df308676686988ba7f30d",
    "curve p table": "da7ccb160b1b1b60769d8a62ac7c604d370f9243984851057d31440386106352",
    "curve p json": "cb091a8cf19bae505d3289aae803b0dfd3e4744e2a35a1c0b40287183b422493",
    "curve p csv": "7863a89958b2bd72cfa8439bd4e54f45a3212945f058ae29ff16e21ade6bfebd",
    "curve p dcs latencies table": "cb9796377ebaa8897ec4a04933580d4ca0cf8e4eeb1d329b59fb61fc4707b146",
    "curve p dcs latencies json": "14ca7f44d636e4290faadbe7e9d3b96e76243c697ac11f36bb40fa39e204d092",
    "curve p dcs latencies csv": "dd2129dc50b135e16faa86b64a36f139d07091d8f6f916bf7cd32d9d3abf6fcb",
    "curve m table": "3abd2b7cd34c77abeadf438e04bd47a2b2326ec062aba46a0c33a7250fc1a50d",
    "curve m json": "1fb66ee8a7936900d9941573439bdded89978cb61786e9ff4020ad87b881b76c",
    "curve m csv": "d3443070a0cba24792bfebde80b767d34b1487b4665f0ebbd6fd7c48da03e8a8",
    "curve m dcs latencies table": "a0da81cec80ec0d38d9012dcd9130bdfde87036f77cc88137c30de184b50781d",
    "curve m dcs latencies json": "e7c20a8a1651130f55fd091ee433af1088845ae07d31c884c92d96d3e29cb65c",
    "curve m dcs latencies csv": "9275bfbc539e918f3b661b078c8e171abc0fbc54e23faaa4f536f2404e1582c7",
    "curve n table": "088687955997ccf4417787a6fbf4e66553630e390efb6295c3d2df662f6fd339",
    "curve n json": "b8d9c5d6e5a49b644265053436efc4f533c96d1e0a8b6eb803d2a055ee467e1c",
    "curve n csv": "58194337d93b9dce475a8d12fa8c8f48f4b7b0a6adeaced47e3a35cd109e2ea9",
    "curve n dcs latencies table": "11102be23e086373b10e5745337179d659e2c22171c213a67216147f131df379",
    "curve n dcs latencies json": "cc30dbb9fe8586ce29287f9f5b15e30b42e6d40bcc6855f740e71c417c7c7be5",
    "curve n dcs latencies csv": "f85c29743a84b6c9e08249719bb32634d850e578370a693dfa14ef8337ac0ef1",
    "curve q table": "7467c76006c721afae5ad7f1c20c551ed0a040b70847c205e63b4dcc75aa5842",
    "curve q json": "87164c26b657a5672aae7f513d22f1dc05ace8813c4f51dbaa29cb32947bd564",
    "curve q csv": "f1c0c7bb80e531b608ab9851310a79814499f55e0fe153c854779d9bffa116d1",
    "curve q dcs latencies table": "15a50e01c565b709ad9e5800d11c6167b18175eccd2bc2f036e1c508b244e1cf",
    "curve q dcs latencies json": "0d0158778b8dcfb6076f531ccca40655e3363f53890246781f99c755de63d228",
    "curve q dcs latencies csv": "7e6452e0cc77436c6f1d28db3fb806ad3da78bcb380df81427b8f801362a594a",
    "curve scale table": "62ea13b91ca3c22c7501ac8c26a352050c4119a2e5e84bd0e5c055b60bca1a4b",
    "curve scale json": "94ebdaa445b9800c7571b3a6c19a76b057ae097abac5bbab40052ff9fea466e1",
    "curve scale csv": "ba7435688913671d81476cff32ff2ae1b7485768f7f4ef276b00262dc0be8a05",
    "curve scale dcs latencies table": "d4a65c36ffe00b499a0f4e6053b4427176e06e7fc6566dfdd6dcbb53148b1643",
    "curve scale dcs latencies json": "19863398136dc8b439840ce7ab572dd270355b851ccc70bc633ddeafed64c55a",
    "curve scale dcs latencies csv": "5dfc35d625edcd6d7476bdc9ddd9df37b4b891933021271d14b784bda95acd3e",
    "simulate loss threads 1": "f9241a92e0b7d7fccba6ec6aadd9f23889b638d2b445a6b7388796856e58ed73",
    "simulate loss threads 2": "f9241a92e0b7d7fccba6ec6aadd9f23889b638d2b445a6b7388796856e58ed73",
    "simulate availability threads 1": "3ef6ff38e9326b95e2f8f53cdc1d30a72768aaeb30c6436e1f9be32391cc000c",
    "simulate availability threads 2": "3ef6ff38e9326b95e2f8f53cdc1d30a72768aaeb30c6436e1f9be32391cc000c",
    "simulate availability 305 dcs threads 1": "66cd39431725579512201763fb0ede1b3ad475af2d4a1afd80f375bde24e59af",
    "simulate availability 305 dcs threads 2": "66cd39431725579512201763fb0ede1b3ad475af2d4a1afd80f375bde24e59af",
    "simulate availability replicas threads 1": "7695ccc411f6d8dba9c7b2f13a7f3857c10e9ea452ecdc9764a962e168fa95ad",
    "simulate availability replicas threads 2": "7695ccc411f6d8dba9c7b2f13a7f3857c10e9ea452ecdc9764a962e168fa95ad",
    "simulate availability 200 dcs threads 1": "e762a66b80c53b0bd626c428b7e62141b8c4248083990a282bcf70e92a50c73e",
    "simulate availability 200 dcs threads 2": "e762a66b80c53b0bd626c428b7e62141b8c4248083990a282bcf70e92a50c73e",
    "simulate latency-rep threads 1": "dc3a2ab83d75acc4f3a9bb41338cfe1ae715fe05614fd39c1a68a6d817463c99",
    "simulate latency-rep threads 2": "dc3a2ab83d75acc4f3a9bb41338cfe1ae715fe05614fd39c1a68a6d817463c99",
    "simulate latency-ec threads 1": "e6dcd88de903bec6a43d5617acb7fbded9991e4aa425c1008ff818079867b823",
    "simulate latency-ec threads 2": "e6dcd88de903bec6a43d5617acb7fbded9991e4aa425c1008ff818079867b823",
    "simulate latency-ec-wide threads 1": "fbead62cc939e409be3db2e2d1d3db972714bc88665d869442c0435e79ba2584",
    "simulate latency-ec-wide threads 2": "fbead62cc939e409be3db2e2d1d3db972714bc88665d869442c0435e79ba2584",
    "codec rs:8+3 table": "07eed4a728edcc082b7ee338fda890c536e13ea0691997a2f4a15647afbb80e6",
    "codec rs:8+3 json": "1c87392939eccc4024d084ace2876430ffda86855c40daf164cc243df9fa8eec",
    "codec rs:8+3 csv": "69a730fadeeea8260922e81fa90bbacc43e33cb14e872cf19d12f0257197b815",
    "codec lrc-6-2-2 table": "ca7df8ab435015ebcb6566551693bc5a30febb97245cb13e909d16ed6830dd7a",
    "codec lrc-6-2-2 json": "90fa12c663a90c1bad91f376f9f80613208349a87f2b826ad586c4efdcef241e",
    "codec lrc-6-2-2 csv": "d673d7d3a0d99f335e7f8c8fe018bd38052901bab7541b6703f86d9f3fc4c2e8",
    "codec rep:3 table": "2aa955bb62abbef19822322d36eb0d03035065de623d45e69096874243b78847",
    "codec rep:3 json": "4b8d801ece7dd2feaee4367209be2928dcdce30e79183fc4a67a9139bb336ee3",
    "codec rep:3 csv": "23a61ec3f5acc66534be1b3b6beb53220e2627f600eda65eb6ee7f8ec7b05a37",
}


def test_every_case_has_a_digest():
    assert set(DIGESTS) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_unchanged(name, tmp_path):
    assert digest(CASES[name], tmp_path) == DIGESTS.get(name)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for name in CASES:
            print(f'    "{name}": "{digest(CASES[name], scratch)}",')
