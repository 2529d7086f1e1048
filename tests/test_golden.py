"""Golden outputs: the CLI's `run` CSV for every mechanism, and the stdout of
`trials` and `probe`, on small generated streams, pinned by SHA-256.

The digests were recorded before the stream boundary was changed to carry
its count sequence; a change to the order or the scale of a draw, or to the
arithmetic of a release, shows up as a different digest.
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
    "unknown-k-all gaussian fallback": (
        "run", "short",
        ["unknown-k-all", "--eps", "0.95", "--delta", "0.01", "--beta", "0.5"],
        "9894b2e9f12865ae1364b13d2aee8055ec54fb2f7a63d0246fb485b3c6b531ee",
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
        "ee795db7b9cdb7bf4f22bd9de7e212b98e638d19a67a54ef050d49c6eace8317",
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
