"""Golden outputs: exact result bits, op counts and set-up of every default
cell.

The batch results and workload pins were recorded from the per-element
scalar implementation; the set-up pins (modelled table bytes and
generated entries) and the +-1e10 edge values were added later, in a
re-recording that left every earlier pin as it was.  Each cell's batch
is pinned twice, by the sha256 of its result bits and by its op counts,
so a change to the counts alone shows that the results held.  Any
change that alters a result bit, an op count or a table's size, for any
supported (function, method, format) cell or workload variant, fails
here.  Edge evaluations that raised when the values were recorded are
not pinned, so a later fix may turn them into values.

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


def batch_pin(key: str) -> tuple:
    """The sha256 of a cell's batch result bits, and its op counts."""
    function, cfg = CELLS[key]
    out, counts = build_evaluator(function, cfg).evaluate_batch(_inputs(key))
    h = hashlib.sha256(np.ascontiguousarray(out, dtype=np.float32).tobytes())
    return h.hexdigest(), counts


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
    bits, counts = batch_pin(key)
    assert bits == BATCH_OUTPUTS[key]
    assert counts == BATCH_COUNTS[key]


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


def _ops_literal(counts) -> str:
    """``counts`` as an OpCounts call of its nonzero fields, indented."""
    ops = ", ".join(f"{k}={n}" for k, n in counts.as_dict().items() if n)
    return textwrap.fill(f"OpCounts({ops})", 70, initial_indent=" " * 8,
                         subsequent_indent=" " * 17)


def _record() -> None:
    """Print the five tables below from the implementation at hand."""
    pins = {key: batch_pin(key) for key in sorted(CELLS)}
    print("BATCH_OUTPUTS = {")
    for key, (bits, _) in pins.items():
        print(f'    "{key}":\n        "{bits}",')
    print("}\n\nBATCH_COUNTS = {")
    for key, (_, counts) in pins.items():
        print(f'    "{key}":\n{_ops_literal(counts)},')
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
            print(f'    "{name}/{v}": (\n        {rmse!r}, {dev!r},\n'
                  f'{_ops_literal(counts)}),')
    print("}")



BATCH_OUTPUTS = {
    "cos/cordic-lut/float":
        "f9a1df89f7a17f383a5f84bcb28ded5b04687c08f99c1d54ca75450fbd370b87",
    "cos/cordic/float":
        "2ab3ba6d9dbd7ed67b3d1ad94e3f1196541c49f50e973dd701bce7a671b45e6b",
    "cos/llut-interp/fixed":
        "9d3718f9644800012765e4de8768ba18590da72894029e45f24c8b07ce094007",
    "cos/llut-interp/float":
        "9ad12ddf05ec9f28065003ab97b0b9193909cba7dd85a26436ada15b13b250ea",
    "cos/llut/fixed":
        "85223475942c237ad65917bd81dbf2158badb1acf2228b5fc126453e3292ba21",
    "cos/llut/float":
        "8b47a58ca5dd25f2007c944cdf6eb069ffa8f57e1a8484967e2820fd57b06574",
    "cos/mlut-interp/float":
        "8aa1bcad8f6cabd03ce75c248aedcee6dcaefc32fdfad42d17138fea6626284a",
    "cos/mlut/float":
        "ad8c58ba68ffa0ea2fe55498789651f6e2d030b6e1bcab3e253293243ab14fab",
    "cosh/cordic-lut/float":
        "11b737983281462f5eb838d31b273e701d2b70c7aa1af0c15a7949b92e1afc98",
    "cosh/cordic/float":
        "05b95f6207be1fb386b2e25fc36e9804332363e57245bdd9f94582c12f14550f",
    "exp/cordic-lut/float":
        "3942231ff6ce77c5e2053e08681a1a79ecedff3fba1a1dd958bfb0aec571eb82",
    "exp/cordic/float":
        "b2dffa0aaf42a6d20af82f81a9496afe117378a55cf81261012995789620b9fa",
    "exp/llut-interp/fixed":
        "48626c3a81529f797fcfea8cb44a3de8c39c8812ae93cb019e004ce1dfc984b5",
    "exp/llut-interp/float":
        "87cf269f512edb1890758d20cd261369cea6c1ea87b39fc00b875a5fa7cbf456",
    "exp/llut/fixed":
        "b930f9f5a352ec9c23c19d12ab24eac849c5d201b627dd883089ab3fd16ad92e",
    "exp/llut/float":
        "28838f691b23c6cdb3d91b7d3a610e8f9bee01dd195d9abab7fb99386d508d69",
    "exp/mlut-interp/float":
        "7053a452797fecc0302bb9bd7abbcba81bba23c08043cfa60715f1e2c3925b03",
    "exp/mlut/float":
        "4008ea93b8f9b9dc786f771c5b8faf1f82251dcef9c4b18ad01f47ae15a48b17",
    "gelu/dllut-interp/float":
        "ecd505e90a1ecd1e75ab16c28374b798b99e3fd59477d9d6c6b30f8bc3c0054c",
    "gelu/dlut-interp/float":
        "e7c876758ed30ca701833ee99bdd5459d2228a227c0fbf9593af4e3467d8c9b3",
    "log/cordic/float":
        "baaf6379a5c13c77674855ed29e317dadcb2ee867789aa3a1fa65eabcce27a91",
    "log/llut-interp/fixed":
        "22dc0ae503605e1177773608b2aa8f435bbb4252877418191bfd5fddea96c44e",
    "log/llut-interp/float":
        "93c5e2917ff377b9f855679c6ef3d5507b2d3d0fdd830ff4b2cb49e83691a42e",
    "log/llut/fixed":
        "31278b6377534057055c95e4e8f818dd9698521a41b68b8adaa2ff12fe9c37f6",
    "log/llut/float":
        "6f2e663dc5cf96bf77f8dfab417f952c10e08e52427732885d83d93f0572e714",
    "log/mlut-interp/float":
        "998deeea978b6d30a3a9471d63d177b698699fe80fb15e925ca7291d149f5737",
    "log/mlut/float":
        "6847f643dc944eea9390a643544ae6a9abd0d3a30ed43128fe5f6d608ba476ec",
    "sin/cordic-lut/float":
        "203eb64fbb28a13fcf00d7c16ff99b85e779098148365b9b2cbaf9214fbe9bd9",
    "sin/cordic/float":
        "d592e5b2aaeb0a4ee35c5f7832025cd6d54fbbf7fec3fd8fa1181ee422e174a3",
    "sin/dllut-interp/float":
        "b42abc21eed74fa932eb0794391d622152b09e5301ba1d0ecbf75e0694eec21a",
    "sin/dlut-interp/float":
        "601946c7140f0cbeea040fe7f172acfdc7e792fc225cbfa0e97b0382e1c71fcc",
    "sin/llut-interp/fixed":
        "dc77b2a315f13c4ab6a61c3d5f193b2bae797b37beb0309c2b7ba80b760c304f",
    "sin/llut-interp/float":
        "122b0d17877720becd150a0e444b651eb89f1e89f4550f12f0dfb593e8d14eac",
    "sin/llut/fixed":
        "c8ac711f87ae8712888beb902f60004adb487d0fe4307bd05fbff44863035c33",
    "sin/llut/float":
        "d4677468a6bd9012dfb56fe465194111eb5893a0144b08fe6d7c7bfe7bf2f0a3",
    "sin/mlut-interp/float":
        "f0ab3709fde31d576e96155f7e96abc17a991fd99f65f8dc515f8ee3e49f9e0e",
    "sin/mlut/float":
        "652f1f79ba16a6ab6b4c09c71876dd0cfede953edd0397c9213522223b08d439",
    "sinh/cordic-lut/float":
        "bdd41d82f6e7bfc30976868fb311dd875c7a5b176e79856e65d90e66099c6bf4",
    "sinh/cordic/float":
        "99aa8a8a82e10b2d095861ede77b9454e563120febfdbe7f5364046a6d1a0d0f",
    "sqrt/cordic/float":
        "2e61ccdf06ced2957be742cf13151e876c83875db9089e7dacfd53cd5dec79e9",
    "sqrt/llut-interp/fixed":
        "a0d220d1cd6761d3f0152a92a26a5054e8a20c1b03d5812d35e5d6f94f88d4c1",
    "sqrt/llut-interp/float":
        "f38cb3fde0e67650e69161d283fcf5c75c8f904bedbc75e9c1b2d6d53b0fe682",
    "sqrt/llut/fixed":
        "7c6ef39711d3d322a64befe1ba0d668bc00ae45a707f8208b1f42f029aa9b4ad",
    "sqrt/llut/float":
        "8463973536ff39f33665599ba6584e40753f275a4647249001259ec829065d04",
    "sqrt/mlut-interp/float":
        "0e43fdacb3e7672994a0ef4c63e9b7eefffed069764018ea835060262a3773c5",
    "sqrt/mlut/float":
        "19207ef95848ac5dcdf4db2d433fea1d9399f59bb6bbb071a88dcc3c9c1591ce",
    "tan/cordic-lut/float":
        "3ea9fbc30689e2e02b50d7e893eab35ba5d112206098345a3a49bb7435c2e48b",
    "tan/cordic/float":
        "e57feaa5ddf15e1474578cf5441c3b0b71791eb675d98e7b17694199010024dd",
    "tan/llut-interp/fixed":
        "42fde8bcd96ff34db65d0ed2ea274e58e9cd2aec97b5186bfe62fbb2a6bcc41b",
    "tan/llut-interp/float":
        "9abdaf3f22db48ae4b207ac3a27583e9e0e09653a2cc0b5a844622dd45477c2b",
    "tan/llut/fixed":
        "0178add5a35bee96a1f1dfb574685462f3b538604bd9838fa89f73c55990a0ce",
    "tan/llut/float":
        "6205367a3681f94464d939bc9dcbd2c656fda15914aed490dfc985aaa148437b",
    "tan/mlut-interp/float":
        "c246c9a030906f1849f4b006cb5a924b37c0697ecdb21186704f70df1842bf8f",
    "tan/mlut/float":
        "e1e8079781f108fc1fef53c7b2ccabca47326ceb0d498ae28f9851e8be0d0574",
    "tanh/cordic-lut/float":
        "3f284d27ddbb397504dbb6d33ec46d2b7558d5191ea4cf13d4dabcd27be1e367",
    "tanh/cordic/float":
        "2a64b684cbccae81adf671e52771aff8da1e70d3fb145f4a1e01cee8c56fc41b",
    "tanh/dllut-interp/float":
        "eba5971497a10b99ab5434eca2c91b64738752e40534e5cd4c887684d1c51d80",
    "tanh/dlut-interp/float":
        "0a3d42e3e7fa56886d040952aa308dd7b4c6df837816306649e2f4a10bb4f4b0",
}

BATCH_COUNTS = {
    "cos/cordic-lut/float":
        OpCounts(int_add=35606, int_shift=23040, lut_lookup=512),
    "cos/cordic/float":
        OpCounts(int_add=43790, int_shift=28672),
    "cos/llut-interp/fixed":
        OpCounts(int_add=1536, int_shift=1024, int_mul=512,
                 lut_lookup=1024),
    "cos/llut-interp/float":
        OpCounts(float_add=2048, float_mul=512, ldexp_op=512,
                 lut_lookup=1024),
    "cos/llut/fixed":
        OpCounts(int_add=1024, int_shift=512, lut_lookup=512),
    "cos/llut/float":
        OpCounts(float_add=512, ldexp_op=512, lut_lookup=512),
    "cos/mlut-interp/float":
        OpCounts(float_add=2048, float_mul=1024, lut_lookup=1024),
    "cos/mlut/float":
        OpCounts(float_add=512, float_mul=512, lut_lookup=512),
    "cosh/cordic-lut/float":
        OpCounts(int_add=35574, int_shift=23040, float_add=1137,
                 float_mul=758, ldexp_op=1516, lut_lookup=512),
    "cosh/cordic/float":
        OpCounts(int_add=43770, int_shift=28672, float_add=1143,
                 float_mul=762, ldexp_op=1524),
    "exp/cordic-lut/float":
        OpCounts(int_add=35328, int_shift=23040, float_add=512,
                 float_mul=1024, ldexp_op=512, lut_lookup=512),
    "exp/cordic/float":
        OpCounts(int_add=43520, int_shift=28672, float_add=512,
                 float_mul=1024, ldexp_op=512),
    "exp/llut-interp/fixed":
        OpCounts(int_add=1536, int_shift=1024, int_mul=512,
                 float_add=512, float_mul=512, ldexp_op=512,
                 lut_lookup=1024),
    "exp/llut-interp/float":
        OpCounts(float_add=2560, float_mul=1024, ldexp_op=1024,
                 lut_lookup=1024),
    "exp/llut/fixed":
        OpCounts(int_add=1024, int_shift=512, float_add=512,
                 float_mul=512, ldexp_op=512, lut_lookup=512),
    "exp/llut/float":
        OpCounts(float_add=1024, float_mul=512, ldexp_op=1024,
                 lut_lookup=512),
    "exp/mlut-interp/float":
        OpCounts(float_add=2560, float_mul=1536, ldexp_op=512,
                 lut_lookup=1024),
    "exp/mlut/float":
        OpCounts(float_add=1024, float_mul=1024, ldexp_op=512,
                 lut_lookup=512),
    "gelu/dllut-interp/float":
        OpCounts(int_add=446, int_shift=892, float_add=1414,
                 float_mul=512, ldexp_op=512, lut_lookup=1024),
    "gelu/dlut-interp/float":
        OpCounts(int_add=512, int_shift=1024, float_add=1279,
                 float_mul=512, ldexp_op=512, lut_lookup=1024),
    "log/cordic/float":
        OpCounts(int_add=43008, int_shift=28672, float_add=512,
                 float_mul=512, ldexp_op=512),
    "log/llut-interp/fixed":
        OpCounts(int_add=1536, int_shift=1024, int_mul=512,
                 float_add=512, float_mul=512, lut_lookup=1024),
    "log/llut-interp/float":
        OpCounts(float_add=2560, float_mul=1024, ldexp_op=512,
                 lut_lookup=1024),
    "log/llut/fixed":
        OpCounts(int_add=1024, int_shift=512, float_add=512,
                 float_mul=512, lut_lookup=512),
    "log/llut/float":
        OpCounts(float_add=1024, float_mul=512, ldexp_op=512,
                 lut_lookup=512),
    "log/mlut-interp/float":
        OpCounts(float_add=2560, float_mul=1536, lut_lookup=1024),
    "log/mlut/float":
        OpCounts(float_add=1024, float_mul=1024, lut_lookup=512),
    "sin/cordic-lut/float":
        OpCounts(int_add=35583, int_shift=23040, lut_lookup=512),
    "sin/cordic/float":
        OpCounts(int_add=43716, int_shift=28672),
    "sin/dllut-interp/float":
        OpCounts(int_add=430, int_shift=860, float_add=1188,
                 float_mul=512, ldexp_op=512, lut_lookup=1024),
    "sin/dlut-interp/float":
        OpCounts(int_add=512, int_shift=1024, float_add=1024,
                 float_mul=512, ldexp_op=512, lut_lookup=1024),
    "sin/llut-interp/fixed":
        OpCounts(int_add=1536, int_shift=1024, int_mul=512,
                 lut_lookup=1024),
    "sin/llut-interp/float":
        OpCounts(float_add=2048, float_mul=512, ldexp_op=512,
                 lut_lookup=1024),
    "sin/llut/fixed":
        OpCounts(int_add=1024, int_shift=512, lut_lookup=512),
    "sin/llut/float":
        OpCounts(float_add=512, ldexp_op=512, lut_lookup=512),
    "sin/mlut-interp/float":
        OpCounts(float_add=2048, float_mul=1024, lut_lookup=1024),
    "sin/mlut/float":
        OpCounts(float_add=512, float_mul=512, lut_lookup=512),
    "sinh/cordic-lut/float":
        OpCounts(int_add=35592, int_shift=23040, float_add=1164,
                 float_mul=776, ldexp_op=1552, lut_lookup=512),
    "sinh/cordic/float":
        OpCounts(int_add=43774, int_shift=28672, float_add=1149,
                 float_mul=766, ldexp_op=1532),
    "sqrt/cordic/float":
        OpCounts(int_add=43008, int_shift=29016, int_mul=512,
                 ldexp_op=512),
    "sqrt/llut-interp/fixed":
        OpCounts(int_add=1536, int_shift=1380, int_mul=512,
                 ldexp_op=512, lut_lookup=1024),
    "sqrt/llut-interp/float":
        OpCounts(int_shift=342, float_add=2048, float_mul=512,
                 ldexp_op=1024, lut_lookup=1024),
    "sqrt/llut/fixed":
        OpCounts(int_add=1024, int_shift=853, ldexp_op=512,
                 lut_lookup=512),
    "sqrt/llut/float":
        OpCounts(int_shift=339, float_add=512, ldexp_op=1024,
                 lut_lookup=512),
    "sqrt/mlut-interp/float":
        OpCounts(int_shift=337, float_add=2048, float_mul=1024,
                 ldexp_op=512, lut_lookup=1024),
    "sqrt/mlut/float":
        OpCounts(int_shift=327, float_add=512, float_mul=512,
                 ldexp_op=512, lut_lookup=512),
    "tan/cordic-lut/float":
        OpCounts(int_add=34816, int_shift=23040, float_div=512,
                 lut_lookup=512),
    "tan/cordic/float":
        OpCounts(int_add=43008, int_shift=28672, float_div=512),
    "tan/llut-interp/fixed":
        OpCounts(int_add=3072, int_shift=2048, int_mul=1024,
                 float_add=239, float_div=512, lut_lookup=2048),
    "tan/llut-interp/float":
        OpCounts(float_add=4364, float_mul=1024, float_div=512,
                 ldexp_op=1024, lut_lookup=2048),
    "tan/llut/fixed":
        OpCounts(int_add=2048, int_shift=1024, float_add=255,
                 float_div=512, lut_lookup=1024),
    "tan/llut/float":
        OpCounts(float_add=1282, float_div=512, ldexp_op=1024,
                 lut_lookup=1024),
    "tan/mlut-interp/float":
        OpCounts(float_add=4347, float_mul=2048, float_div=512,
                 lut_lookup=2048),
    "tan/mlut/float":
        OpCounts(float_add=1286, float_mul=1024, float_div=512,
                 lut_lookup=1024),
    "tanh/cordic-lut/float":
        OpCounts(int_add=35702, int_shift=23040, float_add=1329,
                 float_mul=886, float_div=512, ldexp_op=1772,
                 lut_lookup=512),
    "tanh/cordic/float":
        OpCounts(int_add=43870, int_shift=28672, float_add=1293,
                 float_mul=862, float_div=512, ldexp_op=1724),
    "tanh/dllut-interp/float":
        OpCounts(int_add=463, int_shift=926, float_add=1122,
                 float_mul=512, ldexp_op=512, lut_lookup=1024),
    "tanh/dlut-interp/float":
        OpCounts(int_add=512, int_shift=1024, float_add=1024,
                 float_mul=512, ldexp_op=512, lut_lookup=1024),
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
    "gelu/dllut-interp/float": (4148, 1025),
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
    "sin/dllut-interp/float": (4148, 1025),
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
    "tanh/dllut-interp/float": (5172, 1281),
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
