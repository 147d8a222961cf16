"""Golden outputs: exact result bits, op counts and set-up of every default
cell.

The digests and workload pins were recorded from the per-element scalar
implementation; the set-up pins (modelled table bytes and generated
entries) and the +-1e10 edge values were added later, in a re-recording
that left every earlier pin as it was.  Any change that alters a result
bit, an op count or a table's size, for any supported (function,
method, format) cell or workload variant, fails here.  Edge evaluations
that raised when the values were recorded are not pinned, so a later
fix may turn them into values.

To re-record after a change that alters results on purpose, run
``PYTHONPATH=src python tests/test_golden.py`` and replace the tables.
"""

import hashlib
import textwrap

import numpy as np
import pytest

from pimfuncs import (EvaluatorConfig, FunctionId, MethodId, NumberFormat,
                      OpCounts, build_evaluator, supported)
from pimfuncs.harness import DEFAULT_DOMAINS, WORKLOADS

N_INPUTS = 512
WORKLOAD_N = 2000
WORKLOAD_SEED = 3

CELLS = {f"{f.value}/{m.value}/{fmt.value}":
         (f, EvaluatorConfig(method=m, number_format=fmt))
         for m in MethodId for f in FunctionId for fmt in NumberFormat
         if supported(f, m, fmt)}

# +-0, subnormals, and magnitudes that stress the range reductions.
EDGE_VALUES = tuple(np.float32(s * v) for v in (
    0.0, 1e-45, 1e-40, 1e-39, 1.1754942e-38, 89.0, 1e4, 1e10, 3e38)
    for s in (1.0, -1.0))


def _inputs(key: str) -> np.ndarray:
    seed = int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "little")
    lo, hi = DEFAULT_DOMAINS[CELLS[key][0]]
    return np.random.default_rng(seed).uniform(lo, hi, N_INPUTS).astype(np.float32)


def _counts_repr(counts) -> str:
    return repr(sorted(counts.as_dict().items()))


def batch_digest(key: str) -> str:
    function, cfg = CELLS[key]
    out, counts = build_evaluator(function, cfg).evaluate_batch(_inputs(key))
    h = hashlib.sha256(np.ascontiguousarray(out, dtype=np.float32).tobytes())
    h.update(_counts_repr(counts).encode())
    return h.hexdigest()


def edge_bits(key: str) -> list:
    """Result bits of each edge value as 8 hex digits, '-' where it raised."""
    function, cfg = CELLS[key]
    ev = build_evaluator(function, cfg)
    tokens = []
    with np.errstate(all="ignore"):
        for x in EDGE_VALUES:
            try:
                y = np.float32(ev.evaluate(x))
            except Exception:  # outcome recorded as "raised"
                tokens.append("-")
            else:
                tokens.append(f"{int(np.asarray(y).view(np.uint32)):08x}")
    return tokens


def setup_pin(key: str) -> tuple:
    """Modelled table bytes and generated table entries of a cell."""
    function, cfg = CELLS[key]
    setup = build_evaluator(function, cfg).setup
    return setup.bytes, setup.table_entries


def workload_pin(name: str, variant: str) -> tuple:
    run, _ = WORKLOADS[name]
    res = run(WORKLOAD_N, variant, seed=WORKLOAD_SEED)
    return repr(res.rmse), repr(res.max_sum_dev), res.op_counts


@pytest.mark.parametrize("key", sorted(CELLS))
def test_batch_outputs_and_counts(key):
    assert batch_digest(key) == BATCH_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(CELLS))
def test_edge_values(key):
    got = edge_bits(key)
    for x, want, have in zip(EDGE_VALUES, EDGE_BITS[key].split(), got):
        if want != "-":
            assert have == want, f"{key} at {float(x)!r}"


@pytest.mark.parametrize("key", sorted(CELLS))
def test_setup(key):
    assert setup_pin(key) == SETUP_PINS[key]


@pytest.mark.parametrize("name,variant",
                         [(n, v) for n, (_, vs) in WORKLOADS.items() for v in vs])
def test_workload_results(name, variant):
    assert workload_pin(name, variant) == WORKLOAD_PINS[f"{name}/{variant}"]


def _record() -> None:
    """Print the four tables below from the implementation at hand."""
    print("BATCH_DIGESTS = {")
    for key in sorted(CELLS):
        print(f'    "{key}":\n        "{batch_digest(key)}",')
    print("}\n\nEDGE_BITS = {")
    for key in sorted(CELLS):
        lines = textwrap.wrap(" ".join(edge_bits(key)), 54)
        body = "\n".join(f'        "{line} "' for line in lines)
        print(f'    "{key}": (\n{body}),')
    print("}\n\nSETUP_PINS = {")
    for key in sorted(CELLS):
        print(f'    "{key}": {setup_pin(key)!r},')
    print("}\n\nWORKLOAD_PINS = {")
    for name, (_, variants) in WORKLOADS.items():
        for v in variants:
            rmse, dev, counts = workload_pin(name, v)
            ops = ", ".join(f"{k}={n}" for k, n in counts.as_dict().items() if n)
            ops = textwrap.fill(f"OpCounts({ops})", 70, initial_indent=" " * 8,
                                subsequent_indent=" " * 17)
            print(f'    "{name}/{v}": (\n        {rmse!r}, {dev!r},\n{ops}),')
    print("}")



BATCH_DIGESTS = {
    "cos/cordic-lut/float":
        "f2498226d12ad78c69c5fed32fdbfb395c156c600ad8d3427d4e84a5df0650e9",
    "cos/cordic/float":
        "916b323a99b2de58945f514c648e26a22cd78a44be2e691205ce9dea3e9af07b",
    "cos/llut-interp/fixed":
        "c32c19d1328538ae845d3d831b46c2c61f493eb6b6ef5495eada81820d2203e9",
    "cos/llut-interp/float":
        "de007e56e014fd2bd01b633941b002487f4a757e27b5dd045bedcf5413dbe7f5",
    "cos/llut/fixed":
        "0b9ad64e60492ef6fce25f6e2f512ebf0b36cde648ad1d93c148bb407d0a09eb",
    "cos/llut/float":
        "f7c7eb952dcd25ef606a24fa6432f65dace8ca8124a0fb4b69e07bb7d7145f17",
    "cos/mlut-interp/float":
        "10e93d0f61bc19e7d36022452765f57b17d3e89ed5d8ab18f331d254a92d7e7b",
    "cos/mlut/float":
        "a23b3468e35d0930c0eb1f8c06c55f42d7bb3253c0d89bd1914b08e748f2866e",
    "cosh/cordic-lut/float":
        "6654dbd2b3e968bc860afab64d3190341d1c73b212896183b4c7b8ce8ade5aa2",
    "cosh/cordic/float":
        "39a6948b42ee049f895db881129124b110001b94d0224a5aa1fb1642308da5ce",
    "exp/cordic-lut/float":
        "3f3a0f9488f90af4526ae32cdcb1fd018bfe2a162552df61cc55dcf2a53129c2",
    "exp/cordic/float":
        "9792c407fdd30003231e7146a4ec6e11b83627941debde69817b32e0212adeba",
    "exp/llut-interp/fixed":
        "908e6fc67445c84e16ed27d8ed922e54b0d9d018d4644ca68fe0b556fa52c688",
    "exp/llut-interp/float":
        "0b6aab7f81b5091f8f51f2f9aa21ddac5ce4ecd2001288fe173b2af008c075e8",
    "exp/llut/fixed":
        "d084ce73548c2304067a4c02bb01002df2501ab862f9fd59ec71f8f2f228e016",
    "exp/llut/float":
        "e67d514372ff2ce567f2847d3f2798f5fb22e3f586ff5895e89d8b5b063b66c7",
    "exp/mlut-interp/float":
        "77c88f73534e40efa236c1da84642f0cbaa0bd812e9dee6a83e0fc4f8c95c480",
    "exp/mlut/float":
        "d19a2a79a170b3610f7976b0586b88b2159d056da9d59d3246128ea7f6a99cdc",
    "gelu/dllut-interp/float":
        "cd764ac17f31262657739ef02cd13748e89a44c7fc99b3ee4ba38afa0279e85e",
    "gelu/dlut-interp/float":
        "20cbe404311d904563e32ba61c8cfef1f461e9f803377c4fea7eb188f7d3af3f",
    "log/cordic/float":
        "75211d3654980b256b66648040755c54ade73d191ce7e32ec72c0ab985ebdd30",
    "log/llut-interp/fixed":
        "9ea849014c3fe79c84dd886a212f366f1b6822ba4b9a39120abfc6b519c0a2c5",
    "log/llut-interp/float":
        "9d08f7f9fb8db6b5e218f7aff1ceca26088c5311f2b2bfb1924b0fc93f27c538",
    "log/llut/fixed":
        "29ddc4ce23764af5b6aade33f1057b246c7c5e5426ae49ecbbd3ae8ae7a5aa28",
    "log/llut/float":
        "9c043aa936e841ef43dab8391c78a1c3fac31ede7c7e3eefd7ba216a79df2f77",
    "log/mlut-interp/float":
        "5407d309d24cc3d7f83fbce8c1e3e46159dba91b0ebf24d91895ba43c2804c25",
    "log/mlut/float":
        "3f4daf50e6da71b8dc11b3fa7ad61b07e111572b977cb6ba6c0bf4ae98d5b3c0",
    "sin/cordic-lut/float":
        "cf4508a62c2ecce95dd6dcf6adf58690066206ea75dcaaea2ddc7df5a6eb5283",
    "sin/cordic/float":
        "ae8215ee48f77e0031b95f716a6e5f20a2181004afa8c2dc70723162c584f3e9",
    "sin/dllut-interp/float":
        "b9dc7e2c2667630ee61176dc897cf35a552105040a5dadbc19ca368b0eec0944",
    "sin/dlut-interp/float":
        "5d4fccf66d72714f0259f374c4e3d76a43bb35209d550d217155880fa1f42282",
    "sin/llut-interp/fixed":
        "a6105bcaf94fa5904385096ed1733b0221a90e92174cee87cd5991625b64699f",
    "sin/llut-interp/float":
        "ef1c38913c61a7c60b98817680c2c34cc62c065053d8574e94c2a82446f53fba",
    "sin/llut/fixed":
        "7f005da74763c4fe4d5824e734c1ada1a04bbb2b3359f06f13399f2addd5e343",
    "sin/llut/float":
        "a5c6540deea55624fed4888a6c1cb0b1a87c1da79d3756e8d8bb2ed063b5a214",
    "sin/mlut-interp/float":
        "5b167c5d691a456b71aaaf3f14cefc97bda6f27c5308d582696a2811f6cd515a",
    "sin/mlut/float":
        "1ec857932bf25aca3b5e7e01640b891e31cc946252402507d55729edc45a2660",
    "sinh/cordic-lut/float":
        "df4a5a1a0ea447bd6012ab15cc79aa828b5b35816d8320fe88ee8eefa9393ee5",
    "sinh/cordic/float":
        "533eba00107a7a504705417d34cf75ffd1d62217034a0b14ce0628aabbc3dfd8",
    "sqrt/cordic/float":
        "862ff95f5f2e907bfef23aa5219dae80b35e4cbf40ff4c54c4721d5d2e224c67",
    "sqrt/llut-interp/fixed":
        "f8c655ab6a72fc98e39634e73e6fbc439c3c0ae8507790c931f656528357cbbb",
    "sqrt/llut-interp/float":
        "62a7926153373c128a92da3f621c7f862eaf56e303a884ad00b39ac443f439b5",
    "sqrt/llut/fixed":
        "608caac723f97284bf15712600fc7a36923ca0b1629c7a19248052a532669761",
    "sqrt/llut/float":
        "4025a8f599366e84d1267d5b19f9ea6888f49761d01a6fa33f603b58e97d5870",
    "sqrt/mlut-interp/float":
        "586d8a9bed2d7cc0289b8dafe247ce4d748c3709aeb907de3f6f4f9524ac10c7",
    "sqrt/mlut/float":
        "b1251a04b0a0348cb19f5884ecb3a2a2054711d0db209c2cea7b42f6f0101da4",
    "tan/cordic-lut/float":
        "d2e9321a6c9496e3a510acfbc5d248bc57896f6037139c7474e28a60cf178a88",
    "tan/cordic/float":
        "5130051c721b2cff373272d5c4eb7f02199810d8b1d0abd1fd27c0fd600f9a04",
    "tan/llut-interp/fixed":
        "fb660b9ec52e3f9e5ee3a5a55551c3383a5708457ad7ef481ee86b6a305a8b4f",
    "tan/llut-interp/float":
        "965c90298b90f7f2f9639778e1334363dae0eec698546a963551dc02f6a4ab75",
    "tan/llut/fixed":
        "0d1466eea81f37de3a4eedde6ab3cad858bd0b2354caa0def266d275089feeb1",
    "tan/llut/float":
        "3988b3793808e77e39675f4b51103a1544b68bf012fa71a8bc178e1a67273f32",
    "tan/mlut-interp/float":
        "050a6aeb0b407458aec24013fa589ebf5e1e5c3d16f035c2850bcabd78c5f264",
    "tan/mlut/float":
        "662ee0074db9680b763c8b27493734a8f90058aa5dcc98cc70f0f5fa1c4a1614",
    "tanh/cordic-lut/float":
        "d3bc675b6b764fb433e1d52a249e991225bec47f2bab1d038b4e16c80227f85a",
    "tanh/cordic/float":
        "ea2790956bfddbf469aeb1073304583d68b052009a167a9129c576973c0610a8",
    "tanh/dllut-interp/float":
        "8479f33ebcdf138a77d3e718312ed1de00c88ee8599f5973ce31cba7a8e55545",
    "tanh/dlut-interp/float":
        "897d903e3b86e00656c92a356af032f297794dcf64deba20e569439fc0f06ff7",
}

EDGE_BITS = {
    "cos/cordic-lut/float": (
        "3f800000 3f800000 3f800000 3f800000 3f800000 3f800000 "
        "3f800000 3f800000 3f800000 3f800000 3f029af6 3f029af6 "
        "bf73c074 bf73c074 3f5f84c8 3f5f84c8 bf520bd6 bf520bd6 "),
    "cos/cordic/float": (
        "3f800000 3f800000 3f800000 3f800000 3f800000 3f800000 "
        "3f800000 3f800000 3f800000 3f800000 3f029af6 3f029af6 "
        "bf73c074 bf73c074 3f5f84c8 3f5f84c8 bf520bd6 bf520bd6 "),
    "cos/llut-interp/fixed": (
        "3f800000 3f800000 3f800000 3f800000 3f800000 3f800000 "
        "3f800000 3f800000 3f800000 3f800000 3f029af5 3f029af5 "
        "bf73c06d bf73c06d 3f5f84c2 3f5f84c2 bf520bd4 bf520bd5 "),
    "cos/llut-interp/float": (
        "3f800000 3f800000 3f800000 3f800000 3f800000 3f800000 "
        "3f800000 3f800000 3f800000 3f800000 3f029af4 3f029af1 "
        "bf73c06c bf73c06c 3f5f84c0 3f5f84c2 bf520bd4 bf520bd5 "),
    "cos/llut/fixed": (
        "3f7ffff8 3f7ffff8 3f7ffff8 3f7ffff8 3f7ffff8 3f7ffff8 "
        "3f7ffff8 3f7ffff8 3f7ffff8 3f7ffff8 3f0271f8 3f0272fa "
        "bf73c103 bf73c15e 3f5f9374 3f5f92e2 bf51ec3e bf51eb93 "),
    "cos/llut/float": (
        "3f7ffff8 3f7ffff8 3f7ffff8 3f7ffff8 3f7ffff8 3f7ffff8 "
        "3f7ffff8 3f7ffff8 3f7ffff8 3f7ffff8 3f0271f8 3f0272fa "
        "bf73c103 bf73c15e 3f5f9374 3f5f92e2 bf51ec3e bf51eb93 "),
    "cos/mlut-interp/float": (
        "3f800000 3f800000 3f800000 3f800000 3f800000 3f800000 "
        "3f800000 3f800000 3f800000 3f800000 3f029af6 3f029aed "
        "bf73c070 bf73c06e 3f5f84c4 3f5f84c7 bf520bd1 bf520bd5 "),
    "cos/mlut/float": (
        "3f7ffffb 3f7ffffb 3f7ffffb 3f7ffffb 3f7ffffb 3f7ffffb "
        "3f7ffffb 3f7ffffb 3f7ffffb 3f7ffffb 3f02c46b 3f02c46b "
        "bf73bf81 bf73bf81 3f5f9ba5 3f5f9ba5 bf521711 bf521711 "),
    "cosh/cordic-lut/float": (
        "3f800000 3f800000 3f800000 3f800000 3f800000 3f800000 "
        "3f800000 3f800000 3f800000 3f800000 7f28e166 7f28e166 "
        "7f800000 7f800000 7f800000 7f800000 7f800000 7f800000 "),
    "cosh/cordic/float": (
        "3f800000 3f800000 3f800000 3f800000 3f800000 3f800000 "
        "3f800000 3f800000 3f800000 3f800000 7f28e166 7f28e166 "
        "7f800000 7f800000 7f800000 7f800000 7f800000 7f800000 "),
    "exp/cordic-lut/float": (
        "3f7fffff 3f7fffff 3f7fffff 3f800000 3f7fffff 3f800000 "
        "3f7fffff 3f800000 3f7fffff 3f800000 7f800000 001840fc "
        "7f800000 00000000 7f800000 00000000 7f800000 00000000 "),
    "exp/cordic/float": (
        "3f800000 3f800000 3f800000 3f800000 3f800000 3f800000 "
        "3f800000 3f800000 3f800000 3f800000 7f800000 001840fc "
        "7f800000 00000000 7f800000 00000000 7f800000 00000000 "),
    "exp/llut-interp/fixed": (
        "3f800000 3f800000 3f800000 3f800000 3f800000 3f800000 "
        "3f800000 3f800000 3f800000 3f800000 7f800000 001840fc "
        "7f800000 00000000 7f800000 00000000 7f800000 00000000 "),
    "exp/llut-interp/float": (
        "3f800000 3f800000 3f800000 3f800000 3f800000 3f800000 "
        "3f800000 3f800000 3f800000 3f800000 7f800000 001840fc "
        "7f800000 00000000 7f800000 00000000 7f800000 00000000 "),
    "exp/llut/fixed": (
        "3f8002c6 3f8002c6 3f8002c6 3f7ffa74 3f8002c6 3f7ffa74 "
        "3f8002c6 3f7ffa74 3f8002c6 3f7ffa74 7f800000 00184152 "
        "7f800000 00000000 7f800000 00000000 7f800000 00000000 "),
    "exp/llut/float": (
        "3f8002c6 3f8002c6 3f8002c6 3f7ffa74 3f8002c6 3f7ffa74 "
        "3f8002c6 3f7ffa74 3f8002c6 3f7ffa74 7f800000 00184152 "
        "7f800000 00000000 7f800000 00000000 7f800000 00000000 "),
    "exp/mlut-interp/float": (
        "3f800000 3f800000 3f800000 3f800000 3f800000 3f800000 "
        "3f800000 3f800000 3f800000 3f800000 7f800000 001840fc "
        "7f800000 00000000 7f800000 00000000 7f800000 00000000 "),
    "exp/mlut/float": (
        "3f8002c6 3f8002c6 3f8002c6 3f7ffa74 3f8002c6 3f7ffa74 "
        "3f8002c6 3f7ffa74 3f8002c6 3f7ffa74 7f800000 00184152 "
        "7f800000 00000000 7f800000 00000000 7f800000 00000000 "),
    "gelu/dllut-interp/float": (
        "00000000 00000000 00000001 00000000 00008bd0 80008af2 "
        "00057624 80056d74 00403310 803fccef 42b20000 00000000 "
        "461c4000 00000000 - - - - "),
    "gelu/dlut-interp/float": (
        "00000000 80000000 00000000 80000001 00008b61 80008b61 "
        "000571cc 800571cc 00400000 803fffff 42b20000 00000000 "
        "461c4000 00000000 - - - - "),
    "log/cordic/float": (
        "- - c2ce8ed0 - c2b834f2 - c2b39a05 - c2aeac50 - "
        "408fa2e9 - 41135d8e - 41b834f1 - 42b13196 - "),
    "log/llut-interp/fixed": (
        "- - c2ce8ed0 - c2b834f2 - c2b39a05 - c2aeac50 - "
        "408fa2e9 - 41135d8e - 41b834f1 - 42b13196 - "),
    "log/llut-interp/float": (
        "- - c2ce8ed0 - c2b834f2 - c2b39a05 - c2aeac50 - "
        "408fa2e9 - 41135d8e - 41b834f1 - 42b13196 - "),
    "log/llut/fixed": (
        "- - c2ce8ec0 - c2b834e7 - c2b399fe - c2aeac58 - "
        "408fa3a1 - 41135df7 - 41b834ff - 42b1319b - "),
    "log/llut/float": (
        "- - c2ce8ec0 - c2b834e7 - c2b399fe - c2aeac58 - "
        "408fa3a1 - 41135df7 - 41b834ff - 42b1319b - "),
    "log/mlut-interp/float": (
        "- - c2ce8ed0 - c2b834f2 - c2b39a05 - c2aeac50 - "
        "408fa2e9 - 41135d8e - 41b834f1 - 42b13196 - "),
    "log/mlut/float": (
        "- - c2ce8ec0 - c2b834e7 - c2b399fe - c2aeac58 - "
        "408fa3a1 - 41135df7 - 41b834ff - 42b1319b - "),
    "sin/cordic-lut/float": (
        "33600000 33600000 33600000 b3600000 33600000 b3600000 "
        "33600000 b3600000 33600000 b3600000 3f5c2d82 bf5c2d82 "
        "be9c797e 3e9c797e bef99a58 3ef99a58 3f125813 bf125813 "),
    "sin/cordic/float": (
        "00000000 00000000 00000000 80000000 00000000 80000000 "
        "00000000 80000000 00000000 80000000 3f5c2d82 bf5c2d82 "
        "be9c797d 3e9c797d bef99a59 3ef99a59 3f125813 bf125813 "),
    "sin/dllut-interp/float": (
        "00000000 00000000 00000001 80000001 000116c2 800116c2 "
        "000ae396 800ae396 007fffea 807fffea 3f5c2d7c bf5c2d7c "
        "be9c795d 3e9c795d bef9986e 3ef9986e 3f1257e0 bf1257e0 "),
    "sin/dlut-interp/float": (
        "00000000 00000000 00000001 80000001 000116c2 800116c2 "
        "000ae398 800ae398 007fffff 807fffff 3f5c2d7c bf5c2d7c "
        "be9c795d 3e9c795d bef9986e 3ef9986e 3f1257e0 bf1257e0 "),
    "sin/llut-interp/fixed": (
        "00000000 00000000 00000000 00000000 00000000 00000000 "
        "00000000 00000000 00000000 00000000 3f5c2d7f bf5c2d7f "
        "be9c7978 3e9c7978 bef99a52 3ef99a52 3f125812 bf125812 "),
    "sin/llut-interp/float": (
        "00000000 00000000 00000001 00000000 000116c2 00000000 "
        "000ae398 00000000 007ffffa 00000000 3f5c2d80 bf5c2d81 "
        "be9c797a 3e9c797c bef99a59 3ef99a52 3f125812 bf125812 "),
    "sin/llut/fixed": (
        "3a800000 3a800000 3a800000 3a800000 3a800000 3a800000 "
        "3a800000 3a800000 3a800000 3a800000 3f5c45ce bf5c4536 "
        "be9c7604 3e9c73ca bef965c2 3ef967cd 3f128562 bf128657 "),
    "sin/llut/float": (
        "3a7ffffd 3a7ffffd 3a7ffffd 3a7ffffd 3a7ffffd 3a7ffffd "
        "3a7ffffd 3a7ffffd 3a7ffffd 3a7ffffd 3f5c45ce bf5c4536 "
        "be9c7604 3e9c73cb bef965c2 3ef967cd 3f128562 bf128657 "),
    "sin/mlut-interp/float": (
        "00000000 00000000 00000001 00000000 000116c2 00000000 "
        "000ae398 00000000 007ffffb 00000000 3f5c2d81 bf5c2d87 "
        "be9c7978 3e9c7984 bef99a63 3ef99a57 3f125812 bf12580d "),
    "sin/mlut/float": (
        "3a490fd9 3a490fd9 3a490fd9 3a490fd9 3a490fd9 3a490fd9 "
        "3a490fd9 3a490fd9 3a490fd9 3a490fd9 3f5c14e6 bf5c14e6 "
        "be9c7f6a 3e9c7f6a bef94862 3ef94862 3f1247f3 bf1247f3 "),
    "sinh/cordic-lut/float": (
        "b2400000 b2400000 b2400000 b2400000 b2400000 b2400000 "
        "b2400000 b2400000 b2400000 b2400000 7f28e166 ff28e166 "
        "7f800000 ff800000 7f800000 ff800000 7f800000 ff800000 "),
    "sinh/cordic/float": (
        "32800000 32800000 32800000 32800000 32800000 32800000 "
        "32800000 32800000 32800000 32800000 7f28e166 ff28e166 "
        "7f800000 ff800000 7f800000 ff800000 7f800000 ff800000 "),
    "sqrt/cordic/float": (
        "00000000 00000000 1a3504f3 - 1e3ce4e6 - 1f155598 - "
        "1ffffffe - 4116f196 - 42c80000 - 47c35000 - 5f705ece - "),
    "sqrt/llut-interp/fixed": (
        "00000000 00000000 1a3504f3 - 1e3ce4e7 - 1f155598 - "
        "1fffffff - 4116f196 - 42c80000 - 47c35000 - 5f705ece - "),
    "sqrt/llut-interp/float": (
        "00000000 00000000 1a3504f3 - 1e3ce4e7 - 1f155598 - "
        "1fffffff - 4116f196 - 42c80000 - 47c35000 - 5f705ece - "),
    "sqrt/llut/fixed": (
        "00000000 00000000 1a351043 - 1e3cef11 - 1f1554f4 - "
        "1ffff800 - 4116f4fa - 42c80a3d - 47c35889 - 5f705dcc - "),
    "sqrt/llut/float": (
        "00000000 00000000 1a351043 - 1e3cef11 - 1f1554f4 - "
        "1ffff800 - 4116f4fb - 42c80a3d - 47c35889 - 5f705dcc - "),
    "sqrt/mlut-interp/float": (
        "00000000 00000000 1a3504f3 - 1e3ce4e7 - 1f155598 - "
        "1fffffff - 4116f196 - 42c80000 - 47c35000 - 5f705ecf - "),
    "sqrt/mlut/float": (
        "00000000 00000000 1a350d6f - 1e3ce6ef - 1f1555cf - "
        "20000100 - 4116f421 - 42c8028f - 47c355ea - 5f70642f - "),
    "tan/cordic-lut/float": (
        "33600000 33600000 33600000 b3600000 33600000 b3600000 "
        "33600000 b3600000 33600000 b3600000 3fd7c921 bfd7c921 "
        "3ea45655 bea45655 bf0eeff8 3f0eeff8 bf325c70 3f325c70 "),
    "tan/cordic/float": (
        "00000000 00000000 00000000 80000000 00000000 80000000 "
        "00000000 80000000 00000000 80000000 3fd7c921 bfd7c921 "
        "3ea45654 bea45654 bf0eeff8 3f0eeff8 bf325c70 3f325c70 "),
    "tan/llut-interp/fixed": (
        "00000000 00000000 00000000 00000000 00000000 00000000 "
        "00000000 00000000 00000000 00000000 3fd7c920 bfd7c920 "
        "3ea45654 bea45654 bf0eeff8 3f0eeff8 bf325c71 3f325c70 "),
    "tan/llut-interp/float": (
        "00000000 00000000 00000001 00000000 000116c2 00000000 "
        "000ae398 00000000 007ffffa 00000000 3fd7c922 bfd7c928 "
        "3ea45656 bea45658 bf0eeffd 3f0eeff8 bf325c71 3f325c70 "),
    "tan/llut/fixed": (
        "3a800004 3a800004 3a800004 3a800004 3a800004 3a800004 "
        "3a800004 3a800004 3a800004 3a800004 3fd824c8 bfd82287 "
        "3ea4524e bea44fba bf0ec87b 3f0eca04 bf32ae89 3f32b045 "),
    "tan/llut/float": (
        "3a800003 3a800003 3a800003 3a800003 3a800003 3a800003 "
        "3a800003 3a800003 3a800003 3a800003 3fd824c8 bfd82287 "
        "3ea4524e bea44fbb bf0ec87b 3f0eca04 bf32ae89 3f32b045 "),
    "tan/mlut-interp/float": (
        "00000000 00000000 00000001 00000000 000116c2 00000000 "
        "000ae398 00000000 007ffffb 00000000 3fd7c920 bfd7c935 "
        "3ea45652 bea4565f bf0ef000 3f0eeff8 bf325c73 3f325c6a "),
    "tan/mlut/float": (
        "3a490fdd 3a490fdd 3a490fdd 3a490fdd 3a490fdd 3a490fdd "
        "3a490fdd 3a490fdd 3a490fdd 3a490fdd 3fd76ca1 bfd76ca1 "
        "3ea45d31 bea45d31 bf0eb26f 3f0eb26f bf323f41 3f323f41 "),
    "tanh/cordic-lut/float": (
        "b2400000 b2400000 b2400000 b2400000 b2400000 b2400000 "
        "b2400000 b2400000 b2400000 b2400000 3f800000 bf800000 "
        "3f800000 bf800000 3f800000 bf800000 3f800000 bf800000 "),
    "tanh/cordic/float": (
        "32800000 32800000 32800000 32800000 32800000 32800000 "
        "32800000 32800000 32800000 32800000 3f800000 bf800000 "
        "3f800000 bf800000 3f800000 bf800000 3f800000 bf800000 "),
    "tanh/dllut-interp/float": (
        "00000000 00000000 00000001 80000001 000116c2 800116c2 "
        "000ae394 800ae394 007fffd5 807fffd5 3f800000 bf800000 "
        "3f800000 bf800000 - - - - "),
    "tanh/dlut-interp/float": (
        "00000000 80000000 00000001 80000001 000116c2 800116c2 "
        "000ae398 800ae398 007fffff 807fffff 3f800000 bf800000 "
        "3f800000 bf800000 - - - - "),
}

SETUP_PINS = {
    "cos/cordic-lut/float": (872, 218),
    "cos/cordic/float": (116, 29),
    "cos/llut-interp/fixed": (16436, 4097),
    "cos/llut-interp/float": (16436, 4097),
    "cos/llut/fixed": (16432, 4096),
    "cos/llut/float": (16432, 4096),
    "cos/mlut-interp/float": (16436, 4097),
    "cos/mlut/float": (16432, 4096),
    "cosh/cordic-lut/float": (868, 217),
    "cosh/cordic/float": (108, 27),
    "exp/cordic-lut/float": (868, 217),
    "exp/cordic/float": (108, 27),
    "exp/llut-interp/fixed": (16436, 4097),
    "exp/llut-interp/float": (16436, 4097),
    "exp/llut/fixed": (16432, 4096),
    "exp/llut/float": (16432, 4096),
    "exp/mlut-interp/float": (16436, 4097),
    "exp/mlut/float": (16432, 4096),
    "gelu/dllut-interp/float": (4200, 1026),
    "gelu/dlut-interp/float": (19508, 4865),
    "log/cordic/float": (108, 27),
    "log/llut-interp/fixed": (16436, 4097),
    "log/llut-interp/float": (16436, 4097),
    "log/llut/fixed": (16432, 4096),
    "log/llut/float": (16432, 4096),
    "log/mlut-interp/float": (16436, 4097),
    "log/mlut/float": (16432, 4096),
    "sin/cordic-lut/float": (872, 218),
    "sin/cordic/float": (116, 29),
    "sin/dllut-interp/float": (4200, 1026),
    "sin/dlut-interp/float": (19508, 4865),
    "sin/llut-interp/fixed": (16436, 4097),
    "sin/llut-interp/float": (16436, 4097),
    "sin/llut/fixed": (16432, 4096),
    "sin/llut/float": (16432, 4096),
    "sin/mlut-interp/float": (16436, 4097),
    "sin/mlut/float": (16432, 4096),
    "sinh/cordic-lut/float": (868, 217),
    "sinh/cordic/float": (108, 27),
    "sqrt/cordic/float": (108, 27),
    "sqrt/llut-interp/fixed": (16436, 4097),
    "sqrt/llut-interp/float": (16436, 4097),
    "sqrt/llut/fixed": (16432, 4096),
    "sqrt/llut/float": (16432, 4096),
    "sqrt/mlut-interp/float": (16436, 4097),
    "sqrt/mlut/float": (16432, 4096),
    "tan/cordic-lut/float": (872, 218),
    "tan/cordic/float": (116, 29),
    "tan/llut-interp/fixed": (32872, 8194),
    "tan/llut-interp/float": (32872, 8194),
    "tan/llut/fixed": (32864, 8192),
    "tan/llut/float": (32864, 8192),
    "tan/mlut-interp/float": (32872, 8194),
    "tan/mlut/float": (32864, 8192),
    "tanh/cordic-lut/float": (868, 217),
    "tanh/cordic/float": (108, 27),
    "tanh/dllut-interp/float": (5224, 1282),
    "tanh/dlut-interp/float": (20532, 5121),
}

WORKLOAD_PINS = {
    "blackscholes/PolynomialBaseline": (
        '1.9740782557520686e-07', '0.0',
        OpCounts(int_shift=655, float_add=113939, float_mul=132000,
                 float_div=8000, ldexp_op=8000)),
    "blackscholes/MLutInterp": (
        '6.778064372161615e-08', '0.0',
        OpCounts(int_shift=655, float_add=51407, float_mul=35431,
                 float_div=4000, ldexp_op=7431, lut_lookup=18862)),
    "blackscholes/LLutInterp": (
        '6.879957515231366e-08', '0.0',
        OpCounts(int_shift=655, float_add=51407, float_mul=29431,
                 float_div=4000, ldexp_op=13431, lut_lookup=18862)),
    "blackscholes/FixedLLutInterp": (
        '5.911468647575649e-08', '0.0',
        OpCounts(int_add=28293, int_shift=19517, int_mul=9431,
                 float_add=13683, float_mul=20000, float_div=4000,
                 ldexp_op=4000, lut_lookup=18862)),
    "sigmoid/PolynomialBaseline": (
        '1.3024250856576338e-08', '0.0',
        OpCounts(float_add=16000, float_mul=14000, float_div=2000,
                 ldexp_op=2000)),
    "sigmoid/MLutInterp": (
        '1.3073205562002636e-08', '0.0',
        OpCounts(float_add=12000, float_mul=6000, float_div=2000,
                 ldexp_op=2000, lut_lookup=4000)),
    "sigmoid/LLutInterp": (
        '1.3073205562002636e-08', '0.0',
        OpCounts(float_add=12000, float_mul=4000, float_div=2000,
                 ldexp_op=4000, lut_lookup=4000)),
    "sigmoid/CordicLut": (
        '1.305661448013343e-08', '0.0',
        OpCounts(int_add=138000, int_shift=90000, float_add=4000,
                 float_mul=4000, float_div=2000, ldexp_op=2000,
                 lut_lookup=2000)),
    "softmax/PolynomialBaseline": (
        '1.1080182529776444e-10', '1.02942290247654e-08',
        OpCounts(float_add=9215, float_mul=7168, float_div=1024,
                 ldexp_op=1024)),
    "softmax/MLutInterp": (
        '1.096250999344976e-10', '9.80700853858707e-10',
        OpCounts(float_add=7167, float_mul=3072, float_div=1024,
                 ldexp_op=1024, lut_lookup=2048)),
    "softmax/LLutInterp": (
        '1.096250999344976e-10', '9.80700853858707e-10',
        OpCounts(float_add=7167, float_mul=2048, float_div=1024,
                 ldexp_op=2048, lut_lookup=2048)),
    "softmax/CordicLut": (
        '1.9040923942899944e-10', '6.042499456349049e-08',
        OpCounts(int_add=70656, int_shift=46080, float_add=3071,
                 float_mul=2048, float_div=1024, ldexp_op=1024,
                 lut_lookup=1024)),
}

if __name__ == "__main__":
    _record()
