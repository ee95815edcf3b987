"""The sha256 of every file of one small run-all, pinned.

The run: two 60 s sessions, C3 dead in the second, both models at 0 and
300 ms, two epochs. A change that moves no byte on purpose must leave every
pin as it is; one that does updates the pins of the group it moves (the
data path or the models) and shows that the other group held.

The text files are exact decimal renderings of float64 and float32 values,
and the checkpoints hold the floats themselves. Those values depend on
which OpenBLAS kernels and numpy SIMD loops run on the CPU, so the float
files' pins hold on the x86-64 machine they were computed on and may not
hold on another CPU. There, check out a commit whose pins were last
computed, regenerate the pins (``_run`` then ``_tree``) and compare your
change with those, not with the ones below.
"""

import json

import pytest

from eegdrive.cli import main
from test_pipeline import _tree

RUN = {
    "models": ["linear", "shallow"],
    "horizons_ms": [0, 300],
    "n_sessions": 2,
    "synth": {"duration_s": 60.0},
    "train": {"epochs": 2},
}
#: what ``simulate`` writes each session from: the second has C3 dead
SESSIONS = [
    dict(RUN, n_sessions=1),
    dict(RUN, n_sessions=1, synth={"duration_s": 60.0, "rng_seed": 1, "corrupt_channel": "C3"}),
]

PINNED = {
    "data path": {
        "sessions/synth-0000/eeg.csv":
            "2a16895b9256bbd5be6077a6e78ed4cb934f8338d554b3b988fd60cb83e32d0c",
        "sessions/synth-0000/joystick.jsonl":
            "38d0b4bfc68aec10b5403e5b19a01536b914ae47a756669a399a7551cdf6fbea",
        "sessions/synth-0000/manifest.json":
            "e44399f44ad5c89f4b075687cadd7588b00d1022ab38ab32ca93a58d9c9972bf",
        "sessions/synth-0000/truth_labels.csv":
            "ba9e15ecbbd2f93ee035039733e3e286b991347cc7acd6a4bcb1fdd2070350f0",
        "sessions/synth-0001/eeg.csv":
            "0546c91999d45501bd7bd66bdb8b0af592005ab041256477b524c40c3d18d707",
        "sessions/synth-0001/joystick.jsonl":
            "6af0a71f05bc74fd3aa1667c4d972a21978c756586ea55b47757cc9c4caf94f1",
        "sessions/synth-0001/manifest.json":
            "484f2e100b472e60eadf2209d601794bd81b9c2906a487fbf1295a3c2bf07dd0",
        "sessions/synth-0001/truth_labels.csv":
            "249c58b46713db6cd4e68788f4fadda2d53c47e6b594034b88d10fcf1c625030",
        "work/synth-0000/labels/labels_0.csv":
            "28a79685ca48ea2b5365470315d5eb08992c265cd100c4523b7831f5ec0b54f7",
        "work/synth-0000/labels/labels_300.csv":
            "54222c4670395113450bbc06973dbab5f77f4d0d5064b663ac51789139f974b1",
        "work/synth-0000/preprocess_report.json":
            "443cb200e317957f92bbe4caecb7d53302ecd5d8790a5a601aa7a575c6317323",
        "work/synth-0000/preprocessed/eeg.csv":
            "23c24d7129bb1d720f87b255b8e2cfae6432de844631feee8fb5ae50f4656e01",
        "work/synth-0000/windows/0/split_stats.json":
            "e1743dc9224bb7ed59ea9866cf7acf2cce45eb62d1a7f55c1418f9027d5f1624",
        "work/synth-0000/windows/0/test.f32":
            "961a247ce91a37682a93eafa31366971b9ed08311e3606db57bfdd719b7b3202",
        "work/synth-0000/windows/0/test.json":
            "c7c55dd63c900e5e7da112289ba41eda68f11d71b79002dd89fc69957b0fc365",
        "work/synth-0000/windows/0/train.f32":
            "f54c1d469d1bdec54ed53ee613e02eda13529bc89ac207ee9f71b5b89f6c8269",
        "work/synth-0000/windows/0/train.json":
            "fbee9caa417ea95d9bd67b3716d207c5b5c165dfaf735e19c68d33edf7694ec9",
        "work/synth-0000/windows/300/split_stats.json":
            "f3f3643777c4b9e879120394f5e5d2670dbf8ebe0c94aa6abd6fc33adefa3157",
        "work/synth-0000/windows/300/test.f32":
            "168e472bcca6bf8730c2072ff6ab96abf3ed77b4e2f18fa255134129849c382a",
        "work/synth-0000/windows/300/test.json":
            "a0a29bb46f76eb40ca1daaf5da3774c4b9b39a1e32d04ba72c7d632d1be34464",
        "work/synth-0000/windows/300/train.f32":
            "03d541f361d725b697673fa838aa7ea0d68c3844670854191edc8d53a1219d1d",
        "work/synth-0000/windows/300/train.json":
            "184c0bbc162a3d0a7a49477e51324bf602875843403a368746f706760eb09dba",
        "work/synth-0001/labels/labels_0.csv":
            "ac9bc61adaf6eab7799e1b79077adffd6dbfd07486081e8e0bcbecb9dd884b34",
        "work/synth-0001/labels/labels_300.csv":
            "85753f6686ffc27d65b7138f597df151f5dd8ba3bce7d78b4c6dcae05f78f81f",
        "work/synth-0001/preprocess_report.json":
            "ff7865cc4f2b3bf743ff4cc7e33de8aecd99460bdb699dffd55354ba125a8410",
        "work/synth-0001/preprocessed/eeg.csv":
            "b16c0cd5b061784e1fa363bd9389d6c0184edb3789349e182a316238d2623b3f",
        "work/synth-0001/windows/0/split_stats.json":
            "feee4236259d9f1a5bdadec4f3a5f310844a6df229b50bbc22ba00d1462809f0",
        "work/synth-0001/windows/0/test.f32":
            "e3a6aa10f036ada59e28eed57ef15c19f1ed03f7ba37299f74f88f1bd18b2b67",
        "work/synth-0001/windows/0/test.json":
            "3624f18422598b535908bfef62e63651a04496a2d3a277c286320ff0dd16c0c3",
        "work/synth-0001/windows/0/train.f32":
            "38ec69dfa09c40614d0df03026f2646dbb81bced62f1d74ef4ed28e7729d3c4c",
        "work/synth-0001/windows/0/train.json":
            "6e0d57f1578a4d4f41d063e490e7c36f573754ee9a63512cd76800e9fa62ad39",
        "work/synth-0001/windows/300/split_stats.json":
            "425c1091ce175a3c814260075735936298894271383577f16d1fbda3b57440e2",
        "work/synth-0001/windows/300/test.f32":
            "b0d6b39605e44d34e3f81d4ba9ba51ec211ea6d2cd378592bd45c81df241f3fd",
        "work/synth-0001/windows/300/test.json":
            "62b40e618c8de739f4689a6f8b90f94a36969823b58fbd6172569131834b2182",
        "work/synth-0001/windows/300/train.f32":
            "5e548643aaa3439915e21edcc83c6949d38b15097bfe44b392eee23160276cdb",
        "work/synth-0001/windows/300/train.json":
            "5f2fada8fcc0563df7ab669e869cb23dd2c33cd1524c76f321cafdb35a325823",
    },
    "models": {
        "report/confusion_linear_0.csv":
            "b90fe8adffc3c73a9a35570a34ffe4feffc53074fd4fc3dc67a6f8a54b57569d",
        "report/confusion_linear_300.csv":
            "733ddc6f43a508a68c4cce7cec6cb279d7510147052ec75cac5c3e3d4ba39a7f",
        "report/confusion_shallow_0.csv":
            "52c951c9d2d14979ed03a22efd963fe791a3b963f910a53c78c87616881dcbd1",
        "report/confusion_shallow_300.csv":
            "4c92a942694153c69c4638c3367cfb5b9878161772ade79171461abe30654743",
        "report/f1_vs_horizon.svg":
            "5a6cbe8d6dd476ac0eb5905ddc0b94614ab7eb589c0bdce0765890ea5d8fbd3d",
        "report/metrics.csv":
            "8b84375b25402a0935911edead5878ca69348775e8e99b1a3afa19b1afdb7ae8",
        "report/summary.csv":
            "4e5580d0dfe4ab3ab2dfb5921ed7ab2e968deda3807f87669476c770793bedd0",
        "work/synth-0000/runs/linear_0/checkpoint.bin":
            "a2af709580fa2730d2f914383a3bead2d2bcd97d79aac5dddc9fd959648444ee",
        "work/synth-0000/runs/linear_0/loss.csv":
            "b00f7ea071c0dd87be139eb571a0c91ac181b2ea10ea35f93ae79dec7786a0d4",
        "work/synth-0000/runs/linear_0/score.json":
            "227ae1401eb30abb5ff228d996e205b1005481f1faddb99f3ab9c389f076ade8",
        "work/synth-0000/runs/linear_300/checkpoint.bin":
            "fdc65748098c6330635efeae170d5bbd5e5954fe24614cda750a7e14b95f9822",
        "work/synth-0000/runs/linear_300/loss.csv":
            "038f20ae246cd6d13a93312a1c0cf808371f2ada75294b232f2265bcb197561b",
        "work/synth-0000/runs/linear_300/score.json":
            "983d8739a80cee82bd486916544bc53531cae275b58eb514328be00733584a33",
        "work/synth-0000/runs/shallow_0/checkpoint.bin":
            "dbd502ac30473e2ce599a4d4defcab7f6a642c481b62b629cc748815e53485ce",
        "work/synth-0000/runs/shallow_0/loss.csv":
            "3c582834320a15c1ea7064eaa3ee7168a2c10be83af4d33965e6425b3a143e0c",
        "work/synth-0000/runs/shallow_0/score.json":
            "d9b7609b10698f8d879f30afd704381097880ca9fd0860ea6023f2ae61602dfa",
        "work/synth-0000/runs/shallow_300/checkpoint.bin":
            "6ab9c7888a08bc24e72bb0c1c6cf1655ba5ce8608e61a1c06aa519af4d9ab2ec",
        "work/synth-0000/runs/shallow_300/loss.csv":
            "18d9b4bc8cc6ce2fab06c7db0554e6de3de9682e18b84926299b9ced24949fe5",
        "work/synth-0000/runs/shallow_300/score.json":
            "b86ecadc8101385fbb9cd07f4d048562f8487000f07d8fa77c32e39374a813fa",
        "work/synth-0001/runs/linear_0/checkpoint.bin":
            "7550fa96b02b5cf8a740840be8b55eeeb2c7b1b34a7f15fc48413be890286db1",
        "work/synth-0001/runs/linear_0/loss.csv":
            "90bd2fffeab325539ccba474067d440a7d266dcee813872d94017a01378cf1ad",
        "work/synth-0001/runs/linear_0/score.json":
            "0c4e0adf5e65d92a48003432fe1eb14de532cc00a3203ebd03975f52282d2a2e",
        "work/synth-0001/runs/linear_300/checkpoint.bin":
            "93dbd9b3cd482642d7887a2c316450317b58b0e641b80721db450a36ec8148f0",
        "work/synth-0001/runs/linear_300/loss.csv":
            "246771703803efd461b93ee980a28415195c42d11d6e835704749b2b9087dc3b",
        "work/synth-0001/runs/linear_300/score.json":
            "5f9f0202022946933f513936e6a5578340dc3f595ad3527ca6ec0c82ff22cf7e",
        "work/synth-0001/runs/shallow_0/checkpoint.bin":
            "e4ccc3075e55b1226825584afff5f6c96c38c473023fa432e76e7c21e974e29b",
        "work/synth-0001/runs/shallow_0/loss.csv":
            "0c5fe489992edd2d48e84ec87071f8a8235463a8f28db22bf1b5b03b17a9f8fe",
        "work/synth-0001/runs/shallow_0/score.json":
            "5f341fcce9fd6ba6b18427252b2ced5ffdf446cccf541f4940e9507d98e339b2",
        "work/synth-0001/runs/shallow_300/checkpoint.bin":
            "ec593c688647488145ec631b9e7a84519c8c381ff70cbe76112b5f04d1c99a0d",
        "work/synth-0001/runs/shallow_300/loss.csv":
            "2a42c76321a31be5aac9c63d5c67dd53c6b0d5558944437a6f504a81e85ed0b1",
        "work/synth-0001/runs/shallow_300/score.json":
            "2746d2228c19b265251c47779ddb52b9afef3b54840a356d62dd2516584caace",
    },
}


def _run(tmp_path):
    """Simulate both sessions, then run-all over them; returns the workspace."""
    ws = tmp_path / "ws"
    for i, doc in enumerate([*SESSIONS, RUN]):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps(doc))
        command = "run-all" if doc is RUN else "simulate"
        extra = ["--jobs", "1"] if doc is RUN else []
        assert main([command, "--config", str(cfg), "--out", str(ws), *extra]) == 0
    return ws


@pytest.fixture(scope="module")
def pinned_run(tmp_path_factory):
    return _tree(_run(tmp_path_factory.mktemp("pins")))


def test_every_file_matches_its_pin(pinned_run):
    pins = {path: (group, digest) for group, files in PINNED.items()
            for path, digest in files.items()}
    differ = {group: [] for group in [*PINNED, "unpinned"]}
    for path in sorted(set(pinned_run) | set(pins)):
        group, want = pins.get(path, ("unpinned", None))
        got = pinned_run.get(path)
        if got != want:
            differ[group].append(f"  {path}: {'not written' if got is None else 'got ' + got}")
    report = [f"{group}:\n" + "\n".join(lines) for group, lines in differ.items() if lines]
    assert not report, "files that differ from their pins, by group:\n" + "\n".join(report)
