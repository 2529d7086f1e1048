"""Golden outputs: the CLI's `run` CSV for every mechanism, and the stdout of
`trials` and `probe`, on small generated streams, pinned by SHA-256.

The digests were recorded before the stream boundary was changed to carry
its count sequence; a change to the order or the scale of a draw, or to the
arithmetic of a release, shows up as a different digest.  The `.dstream`
files of those streams, of their neighbours and of the two benchmark
workloads are pinned too; their digests were recorded with the per-token
f-string writer that the block writer replaced.
"""

import hashlib

import pytest

from dpdistinct import generators, stream as streammod
from dpdistinct.cli import main

STREAMS = {
    # 200 items swing together at 8 steps: refreshes, aborts, doubling
    "multi": ["multiupdate", "--m", "200", "--I", "2,5,9,14,20,27,35,44", "--Tprime", "48"],
    # one step that inserts 10 items: the Gaussian fallback of unknown-k-all
    "short": ["multiupdate", "--m", "10", "--I", "1", "--Tprime", "1"],
    # d = 1: the all-zero fallback of unknown-k-all
    "one": ["blocks", "--m", "1", "--J", "1,3", "--Tprime", "8"],
    "general": ["random", "--d", "64", "--T", "64", "--model", "general", "--K", "400",
                "--seed", "2"],
    "likes": ["random", "--d", "8", "--T", "40", "--model", "likes", "--K", "30",
              "--seed", "3"],
    # 20000 steps: more than two blocks of the CSV writer (cli.CSV_BLOCK rows)
    "long": ["random", "--d", "64", "--T", "20000", "--model", "likes", "--K", "3000",
             "--seed", "4"],
}

# name -> SHA-256 of the STREAMS file, and of its neighbour without item 1
STREAM_DIGESTS = {
    "multi": ("e978b019eb5536ef749ebb43ddd383ff7389ae82b3b85e7c9b17e0307b938928",
              "d77d4626bfe8bbc93140e9024dbc7975acefb6a03105d9562d24876a87ebe2ee"),
    "short": ("9013890e2c4ec2f97e6c86db720b386a322cbbe14021a711e85917abc796c155",
              "1574f404cc0f22da83edb495d25f5ccb255d71cb721f81124a49c784a8212682"),
    "one": ("583a8c2dbaa566cd44f539b4899c6856f6d65f23fb0ee39e34733f3d5acc3b25",
            "2f38e24f7d18913fa37d6acab4bf4fb2514a3bd9115bc1dad8db915bdb1fbb0e"),
    "general": ("84324fe46189353110671144c9afd3450afed192ec6c96b8b1174ef7b4228eec",
                "010e47245c679831df9c12cc48e6d9d7e7fccf55d5efc8b77d856e198a197343"),
    "likes": ("c74b0d48840ad0f3d8bbb856855837941b93d535e9a0b78177c36de6fe6c7297",
              "7eced8ed8e78c7e81053c1abf827056bc568d5dd7bdd8267b9e8112bad76a077"),
    "long": ("d323d8eca9384bbbb842de35e41793fbdf54d4c7f064c8128f5c8dc92cf6c37d",
             "274236559c580e1854cd83bd51e83feae318a7137a722f0e83f38241cad63f8e"),
    "churn-multi": ("00b2a546eefca1cbe585342447a8e2e3162441d5c5b80cea38d4b16a05e6e877",
                    "cb08f3e982204d58e5cb672689e36f949fcbcf7518cd399025ad0bc46bd62f7c"),
}

# the benchmark workloads' streams at seed 1 (perfbench/run.py), and SHA-256 of
# each and of its neighbour without item 5188 (perfbench/neighbor.py)
BENCH_STREAMS = {
    "quiet-singleton": (
        ["random", "--d", "10000", "--T", "100000", "--model", "likes", "--K", "100000",
         "--seed", "1", "--singleton"],
        "3e0512b95c59b736bf071ffb0c7197738591c3dea8cf2d7a0bc1c51c8bddbb8d",
        "baf6b24a1247872f5411059c7ebeb6edbdd251e19ab96393ae0cad06fa744bc7",
    ),
    "churn-multi": (
        ["multiupdate", "--m", "10000", "--I",
         "276,348,857,1439,2489,2568,2729,3114,4089,4228,4721,5107,5381,5493,6434,7533,7536,"
         "8176,8215,8268,8378,8653,8679,9471,9485", "--Tprime", "10000"],
        "00b2a546eefca1cbe585342447a8e2e3162441d5c5b80cea38d4b16a05e6e877",
        "d6b76a8c68681caf038bf24d03c6cfa9615b356b8d1b17aa94ad1120e6405790",
    ),
}
# 10^4 steps in which all 10^4 items swing 25 times: long chains of doubling instances
STREAMS["churn-multi"] = BENCH_STREAMS["churn-multi"][0]

# label -> (command, input, flags after --mechanism, SHA-256 of the output)
CASES = {
    "known-k refreshes": (
        "run", "multi", ["known-k", "--K", "1600", "--eps", "50"],
        "b287c83b994dc60c5df127abc54684dfafcd3a916eae272c3f993af771415c03",
    ),
    "known-k abort": (
        "run", "multi", ["known-k", "--K", "4", "--eps", "50"],
        "3470e5ea52d004b3014965db1cd467250d729d10b22ddd8f623c69f1c3850147",
    ),
    "known-k zero noise": (
        "run", "multi", ["known-k", "--K", "1600", "--eps", "50", "--noise", "zero"],
        "571512689f8bee98332db40d17052c009f73e18ed270eb092884e456ff3e40e9",
    ),
    "unknown-k": (
        "run", "multi", ["unknown-k", "--eps", "50"],
        "b55e8b31491fdf15c34715279c78a45f2dc795319da0a4fd2856ec68d02e8342",
    ),
    "unknown-k-all instances": (
        "run", "multi", ["unknown-k-all", "--eps", "8"],
        "c94fe7e4624488764ea2caf19d5b631cf2778e0bd58c2472af023ee7c5a5a6b4",
    ),
    "unknown-k-all laplace fallback": (
        "run", "multi", ["unknown-k-all", "--eps", "50"],
        "cbd3d9e2219cf773e09b04ae4d6ab754c9f96cbb6c7cdf5cd4dc85489f4896d8",
    ),
    # this and gaussian-T were re-recorded when Gaussian draws moved to their
    # own generator
    "unknown-k-all gaussian fallback": (
        "run", "short",
        ["unknown-k-all", "--eps", "0.95", "--delta", "0.01", "--beta", "0.5"],
        "afeb380923f091a19c5d9e322ec30ecd4d820ff2057cb9ab42d620259dd925b1",
    ),
    # 14 and 15 instances at seed 5; recorded before the two unknown-K runners
    # shared one doubling loop
    "unknown-k long chain": (
        "run", "churn-multi", ["unknown-k", "--eps", "50"],
        "bd578ef763c19409d845e5b205245db2742b7e77780a586405f33d42c5461f5e",
    ),
    "unknown-k-all long chain": (
        "run", "churn-multi", ["unknown-k-all", "--eps", "50"],
        "13e8eb0ae08f5e530f17b5b2d201d6b51e8e662f7ac00261aa0ec9fd67b0f51f",
    ),
    "unknown-k-all zero fallback": (
        "run", "one", ["unknown-k-all", "--eps", "1"],
        "79149559f2b14d209503e9c070321e4a6d401c2f739e2fc4df4956346ce06234",
    ),
    "zero": (
        "run", "general", ["zero"],
        "f970e177073d0380ce19755bff0d2c3f94665f1ac39b04b997e17c16ae1fd28c",
    ),
    "laplace-T": (
        "run", "general", ["laplace-T", "--eps", "1"],
        "f27c4687a23b80bbc2b597aaa491c218416e1d78269aa6fb64033c4e48c64ff3",
    ),
    "gaussian-T": (
        "run", "general", ["gaussian-T", "--eps", "0.5", "--delta", "0.01"],
        "8a2558ea81b2abb10a64656b63e9fd07ba3306ed240809085ab61fa59ab97cf3",
    ),
    "continual-likes": (
        "run", "likes", ["continual-likes", "--eps", "1"],
        "1b661468e2b56ebd3bf7d09e6b549ea31def70214f79b6e5b8938a90a01c450e",
    ),
    # recorded with the per-row CSV writer: refreshes in three blocks, and a
    # release per step
    "known-k across blocks": (
        "run", "long", ["known-k", "--K", "300", "--eps", "1000"],
        "a824e44b10e8c14b8efca64293d9d98691e3d334a33245dee3882c915ff6ca89",
    ),
    "laplace-T across blocks": (
        "run", "long", ["laplace-T", "--eps", "1"],
        "f4ef5ca98ecdf5dd7f7057cacaffac08831d9335be6fe143b50f728eaa1f97a8",
    ),
    "trials known-k": (
        "trials", "multi",
        ["known-k", "--K", "1600", "--eps", "50", "--trials", "20", "--bound", "30"],
        "348cf49c5150e9605e144e7e8ea7dd73de00a21be2fc926fa8e17a685d20da5f",
    ),
    "trials unknown-k": (
        "trials", "general", ["unknown-k", "--eps", "8", "--trials", "20"],
        "b4113e3e2e4583c3f37fd11a3b8a7efd0da94cebe6b08b65c78b445a6177a1de",
    ),
    "probe laplace-T": (
        "probe", "likes", ["laplace-T", "--eps", "1", "--samples", "300"],
        "81bed1d3b4263c8c6bbb1c8bbb7e1adc61d14d734c9126d04df9c58549438370",
    ),
    "probe known-k": (
        "probe", "multi", ["known-k", "--K", "1600", "--eps", "50", "--samples", "50"],
        "0ffa7cc324a283e15f72d98bf99e52df60cdf8562a35277dbefa4ce9e573c04e",
    ),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Each stream of STREAMS, and an item-level neighbour of it for probe."""
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, args in STREAMS.items():
        x, y = root / f"{name}.dstream", root / f"{name}-y.dstream"
        assert main(["generate", *args, "-o", str(x)]) == 0
        s = streammod.read_file(x)
        streammod.write_file(generators.neighbor_item(s, 1, [0] * s.length), y)
        paths[name] = (str(x), str(y))
    return paths


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", STREAMS)
def test_stream_file_digest(name, inputs):
    assert tuple(map(sha256, inputs[name])) == STREAM_DIGESTS[name]


@pytest.mark.parametrize("name", BENCH_STREAMS)
def test_benchmark_stream_digest(name, tmp_path):
    args, digest, neighbor_digest = BENCH_STREAMS[name]
    x, y = tmp_path / "x.dstream", tmp_path / "y.dstream"
    assert main(["generate", *args, "-o", str(x)]) == 0
    s = streammod.read_file(x)
    streammod.write_file(generators.neighbor_item(s, 5188, [0] * s.length), y)
    assert (sha256(x), sha256(y)) == (digest, neighbor_digest)


def output(command, files, flags, out_csv, capsys):
    """Run one CLI command with seed 5; returns the bytes it produced."""
    x, y = files
    argv = [command, "--input", x, "--seed", "5", "--mechanism", *flags]
    if command == "probe":
        argv += ["--neighbor", y]
    if command == "run":
        argv += ["-o", str(out_csv)]
    capsys.readouterr()
    assert main(argv) == 0
    return out_csv.read_bytes() if command == "run" else capsys.readouterr().out.encode()


@pytest.mark.parametrize("label", CASES)
def test_output_digest(label, inputs, tmp_path, capsys):
    command, name, flags, digest = CASES[label]
    data = output(command, inputs[name], flags, tmp_path / "run.csv", capsys)
    assert hashlib.sha256(data).hexdigest() == digest
