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


# Nearest-entry trig cells read the node at 0 itself: sin(±0), tan(±0) = +0.
PLUS_ZERO_AT_ZERO = {f"{f}/{cell}" for f in ("sin", "tan")
                     for cell in ("mlut/float", "llut/float", "llut/fixed")}


@pytest.mark.parametrize("key", sorted(CELLS))
def test_edge_values(key):
    got = edge_bits(key)
    for x, want, have in zip(EDGE_VALUES, EDGE_BITS[key].split(), got):
        if want != "-":
            assert have == want, f"{key} at {float(x)!r}"
    if key in PLUS_ZERO_AT_ZERO:  # EDGE_VALUES opens with +0.0, -0.0
        assert got[:2] == ["00000000"] * 2, key


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
        "5c6b605e4b0763dbdb8d2fa3ba555f4b10c41b11a14ddd6f42225921916dc948",
    "cos/llut/float":
        "bfe4773afd4076de11ee1a8c9eb78c09d81c1a5af400dc71cb3f2bf6d602507d",
    "cos/mlut-interp/float":
        "8aa1bcad8f6cabd03ce75c248aedcee6dcaefc32fdfad42d17138fea6626284a",
    "cos/mlut/float":
        "4410093565814adaeebcfa3ea53c825f9c514d4e5318af492ea7e9ead145bfa0",
    "cosh/cordic-lut/float":
        "11b737983281462f5eb838d31b273e701d2b70c7aa1af0c15a7949b92e1afc98",
    "cosh/cordic/float":
        "8de8fd3d8b08d4daa28c49a46f8a722ef1622873cfb0ebdecaed221d78f65a32",
    "exp/cordic-lut/float":
        "3942231ff6ce77c5e2053e08681a1a79ecedff3fba1a1dd958bfb0aec571eb82",
    "exp/cordic/float":
        "b2dffa0aaf42a6d20af82f81a9496afe117378a55cf81261012995789620b9fa",
    "exp/llut-interp/fixed":
        "48626c3a81529f797fcfea8cb44a3de8c39c8812ae93cb019e004ce1dfc984b5",
    "exp/llut-interp/float":
        "87cf269f512edb1890758d20cd261369cea6c1ea87b39fc00b875a5fa7cbf456",
    "exp/llut/fixed":
        "4a2ff0a4322bfcf1d4a9732bab35979be12f80c055171aaf4f4493eb473804b6",
    "exp/llut/float":
        "5541db235f8253c7fbbdcf5282e17677cfb800cdadd6ab485fafe833cd80d897",
    "exp/mlut-interp/float":
        "7053a452797fecc0302bb9bd7abbcba81bba23c08043cfa60715f1e2c3925b03",
    "exp/mlut/float":
        "fdff8640117b28e33be5c53567365a9353229b65832dbe0c8cdd1ff6002d17f6",
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
        "c8da1f80515a7d12a30ec9892aff8b05dddd373d1d295b5672e8ff5b5e552ae8",
    "log/llut/float":
        "4254d20538ab1ab80090e3c29b63c17f376ca1d91b31d012e55a629c3247c597",
    "log/mlut-interp/float":
        "998deeea978b6d30a3a9471d63d177b698699fe80fb15e925ca7291d149f5737",
    "log/mlut/float":
        "6f9e4761d827fec9d20370de92435f5e3db8d86659ccee1475e88e853642fa23",
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
        "0b3d2bf4f83beaa5cead96935052cc2996fdcd48a4c1473753139246355e4a4b",
    "sin/llut/float":
        "8d5eac266687bcec08c73a35580ee51880564a512ad8b1672e98aa7193063e85",
    "sin/mlut-interp/float":
        "f0ab3709fde31d576e96155f7e96abc17a991fd99f65f8dc515f8ee3e49f9e0e",
    "sin/mlut/float":
        "9493a919032b4cd77f79327f1baa10831466e0a34faab71ef1c4e2e054171c67",
    "sinh/cordic-lut/float":
        "bdd41d82f6e7bfc30976868fb311dd875c7a5b176e79856e65d90e66099c6bf4",
    "sinh/cordic/float":
        "5d454d637e96a7e87280f5f2c97026eafe058be946855ccc4aaa12bc7f56b7d0",
    "sqrt/cordic/float":
        "2e61ccdf06ced2957be742cf13151e876c83875db9089e7dacfd53cd5dec79e9",
    "sqrt/llut-interp/fixed":
        "a0d220d1cd6761d3f0152a92a26a5054e8a20c1b03d5812d35e5d6f94f88d4c1",
    "sqrt/llut-interp/float":
        "f38cb3fde0e67650e69161d283fcf5c75c8f904bedbc75e9c1b2d6d53b0fe682",
    "sqrt/llut/fixed":
        "dfe08fdf59d830fd8afcf6e8c82ecf00d4a26f1dc6baa900fe86503fcb313f72",
    "sqrt/llut/float":
        "9abcbee3d7406e3d5be91aa4195825699ebd50d1fd4db132aa45f62991827fbf",
    "sqrt/mlut-interp/float":
        "0e43fdacb3e7672994a0ef4c63e9b7eefffed069764018ea835060262a3773c5",
    "sqrt/mlut/float":
        "badd388385e9c45e633e9c73d428abe76082345fb9e281983787563ef38521c7",
    "tan/cordic-lut/float":
        "3ea9fbc30689e2e02b50d7e893eab35ba5d112206098345a3a49bb7435c2e48b",
    "tan/cordic/float":
        "e57feaa5ddf15e1474578cf5441c3b0b71791eb675d98e7b17694199010024dd",
    "tan/llut-interp/fixed":
        "42fde8bcd96ff34db65d0ed2ea274e58e9cd2aec97b5186bfe62fbb2a6bcc41b",
    "tan/llut-interp/float":
        "9abdaf3f22db48ae4b207ac3a27583e9e0e09653a2cc0b5a844622dd45477c2b",
    "tan/llut/fixed":
        "6ba4a950cddc6649c2e9b5d53ab05dcd2012186def21169dbc21a414cec995bc",
    "tan/llut/float":
        "d0f9512e460c33c2c2204ad6d51dea9ba470bbec2e1470fdc8a2c510c3a37439",
    "tan/mlut-interp/float":
        "c246c9a030906f1849f4b006cb5a924b37c0697ecdb21186704f70df1842bf8f",
    "tan/mlut/float":
        "bbdf6bdb8b5ad2ee61cf86b4c8b65bba1ed6cc14b7ff5244e58a3a97f0391823",
    "tanh/cordic-lut/float":
        "3f284d27ddbb397504dbb6d33ec46d2b7558d5191ea4cf13d4dabcd27be1e367",
    "tanh/cordic/float":
        "cee3cf41faf24c74557fd395c0ea1f40222709a408a4a1b9ee4f9366fff73d82",
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
        "3f800000 3f800000 3f800000 3f800000 3f800000 3f800000 "
        "3f800000 3f800000 3f800000 3f800000 3f02a906 3f02aa07 "
        "bf73ad6d bf73adc8 3f5f7440 3f5f73ae bf5210d8 bf52102e "),
    "cos/llut/float": (
        "3f800000 3f800000 3f800000 3f800000 3f800000 3f800000 "
        "3f800000 3f800000 3f800000 3f800000 3f02a906 3f02aa07 "
        "bf73ad6d bf73adc8 3f5f7440 3f5f73ae bf5210d8 bf52102e "),
    "cos/mlut-interp/float": (
        "3f800000 3f800000 3f800000 3f800000 3f800000 3f800000 "
        "3f800000 3f800000 3f800000 3f800000 3f029af6 3f029aed "
        "bf73c070 bf73c06e 3f5f84c4 3f5f84c7 bf520bd1 bf520bd5 "),
    "cos/mlut/float": (
        "3f800000 3f800000 3f800000 3f800000 3f800000 3f800000 "
        "3f800000 3f800000 3f800000 3f800000 3f029932 3f029932 "
        "bf73ced9 bf73ced9 3f5f8327 3f5f8327 bf51fa54 bf51fa54 "),
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
        "3f800000 3f800000 3f800000 3f800000 3f800000 3f800000 "
        "3f800000 3f800000 3f800000 3f800000 7f800000 001840cc "
        "7f800000 00000000 7f800000 00000000 7f800000 00000000 "),
    "exp/llut/float": (
        "3f800000 3f800000 3f800000 3f800000 3f800000 3f800000 "
        "3f800000 3f800000 3f800000 3f800000 7f800000 001840cc "
        "7f800000 00000000 7f800000 00000000 7f800000 00000000 "),
    "exp/mlut-interp/float": (
        "3f800000 3f800000 3f800000 3f800000 3f800000 3f800000 "
        "3f800000 3f800000 3f800000 3f800000 7f800000 001840fc "
        "7f800000 00000000 7f800000 00000000 7f800000 00000000 "),
    "exp/mlut/float": (
        "3f800000 3f800000 3f800000 3f800000 3f800000 3f800000 "
        "3f800000 3f800000 3f800000 3f800000 7f800000 001840cc "
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
        "- - c2ce8ed0 - c2b834f6 - c2b39a09 - c2aeac50 - "
        "408fa2e9 - 41135d8e - 41b834c8 - 42b13191 - "),
    "log/llut/float": (
        "- - c2ce8ed0 - c2b834f6 - c2b39a09 - c2aeac50 - "
        "408fa2e9 - 41135d8e - 41b834c8 - 42b13191 - "),
    "log/mlut-interp/float": (
        "- - c2ce8ed0 - c2b834f2 - c2b39a05 - c2aeac50 - "
        "408fa2e9 - 41135d8e - 41b834f1 - 42b13196 - "),
    "log/mlut/float": (
        "- - c2ce8ed0 - c2b834f6 - c2b39a09 - c2aeac50 - "
        "408fa2e9 - 41135d8e - 41b834c8 - 42b13191 - "),
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
        "00000000 00000000 00000000 00000000 00000000 00000000 "
        "00000000 00000000 00000000 00000000 3f5c252b bf5c2492 "
        "be9cefdf 3e9ceda6 bef9d584 3ef9d78e 3f1250e2 bf1251d8 "),
    "sin/llut/float": (
        "00000000 00000000 00000000 00000000 00000000 00000000 "
        "00000000 00000000 00000000 00000000 3f5c252b bf5c2492 "
        "be9cefdf 3e9ceda6 bef9d584 3ef9d78e 3f1250e2 bf1251d8 "),
    "sin/mlut-interp/float": (
        "00000000 00000000 00000001 00000000 000116c2 00000000 "
        "000ae398 00000000 007ffffb 00000000 3f5c2d81 bf5c2d87 "
        "be9c7978 3e9c7984 bef99a63 3ef99a57 3f125812 bf12580d "),
    "sin/mlut/float": (
        "00000000 00000000 00000000 00000000 00000000 00000000 "
        "00000000 00000000 00000000 00000000 3f5c2e8e bf5c2e8e "
        "be9c1faf 3e9c1faf bef9a02d 3ef9a02d 3f127130 bf127130 "),
    "sinh/cordic-lut/float": (
        "b2400000 b2400000 b2400000 32400000 b2400000 32400000 "
        "b2400000 32400000 b2400000 32400000 7f28e166 ff28e166 "
        "7f800000 ff800000 7f800000 ff800000 7f800000 ff800000 "),
    "sinh/cordic/float": (
        "32800000 32800000 32800000 b2800000 32800000 b2800000 "
        "32800000 b2800000 32800000 b2800000 7f28e166 ff28e166 "
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
        "00000000 00000000 1a3504f3 - 1e3ce43a - 1f155862 - "
        "20000000 - 4116f196 - 42c80000 - 47c34e0d - 5f706651 - "),
    "sqrt/llut/float": (
        "00000000 00000000 1a3504f3 - 1e3ce43a - 1f155861 - "
        "20000000 - 4116f196 - 42c80000 - 47c34e0d - 5f706651 - "),
    "sqrt/mlut-interp/float": (
        "00000000 00000000 1a3504f3 - 1e3ce4e7 - 1f155598 - "
        "1fffffff - 4116f196 - 42c80000 - 47c35000 - 5f705ecf - "),
    "sqrt/mlut/float": (
        "00000000 00000000 1a3504f3 - 1e3cdece - 1f15533d - "
        "1ffffc00 - 4116f196 - 42c7fae1 - 47c34e0d - 5f705dcc - "),
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
        "00000000 00000000 00000000 00000000 00000000 00000000 "
        "00000000 00000000 00000000 00000000 3fd7a9bc bfd7a77e "
        "3ea4df88 bea4dcf4 bf0f1c70 3f0f1df8 bf324f6c 3f325128 "),
    "tan/llut/float": (
        "00000000 00000000 00000000 00000000 00000000 00000000 "
        "00000000 00000000 00000000 00000000 3fd7a9bc bfd7a77e "
        "3ea4df88 bea4dcf4 bf0f1c70 3f0f1df8 bf324f6c 3f325128 "),
    "tan/mlut-interp/float": (
        "00000000 00000000 00000001 00000000 000116c2 00000000 "
        "000ae398 00000000 007ffffb 00000000 3fd7c920 bfd7c935 "
        "3ea45652 bea4565f bf0ef000 3f0eeff8 bf325c73 3f325c6a "),
    "tan/mlut/float": (
        "00000000 00000000 00000000 00000000 00000000 00000000 "
        "00000000 00000000 00000000 00000000 3fd7cd12 bfd7cd12 "
        "3ea3ee55 bea3ee55 bf0ef459 3f0ef459 bf3289ed 3f3289ed "),
    "tanh/cordic-lut/float": (
        "b2400000 b2400000 b2400000 32400000 b2400000 32400000 "
        "b2400000 32400000 b2400000 32400000 3f800000 bf800000 "
        "3f800000 bf800000 3f800000 bf800000 3f800000 bf800000 "),
    "tanh/cordic/float": (
        "32800000 32800000 32800000 b2800000 32800000 b2800000 "
        "32800000 b2800000 32800000 b2800000 3f800000 bf800000 "
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
    "cos/llut/fixed": (16436, 4097),
    "cos/llut/float": (16436, 4097),
    "cos/mlut-interp/float": (16436, 4097),
    "cos/mlut/float": (16436, 4097),
    "cosh/cordic-lut/float": (868, 217),
    "cosh/cordic/float": (108, 27),
    "exp/cordic-lut/float": (868, 217),
    "exp/cordic/float": (108, 27),
    "exp/llut-interp/fixed": (16436, 4097),
    "exp/llut-interp/float": (16436, 4097),
    "exp/llut/fixed": (16436, 4097),
    "exp/llut/float": (16436, 4097),
    "exp/mlut-interp/float": (16436, 4097),
    "exp/mlut/float": (16436, 4097),
    "gelu/dllut-interp/float": (4148, 1025),
    "gelu/dlut-interp/float": (19508, 4865),
    "log/cordic/float": (108, 27),
    "log/llut-interp/fixed": (16436, 4097),
    "log/llut-interp/float": (16436, 4097),
    "log/llut/fixed": (16436, 4097),
    "log/llut/float": (16436, 4097),
    "log/mlut-interp/float": (16436, 4097),
    "log/mlut/float": (16436, 4097),
    "sin/cordic-lut/float": (872, 218),
    "sin/cordic/float": (116, 29),
    "sin/dllut-interp/float": (4148, 1025),
    "sin/dlut-interp/float": (19508, 4865),
    "sin/llut-interp/fixed": (16436, 4097),
    "sin/llut-interp/float": (16436, 4097),
    "sin/llut/fixed": (16436, 4097),
    "sin/llut/float": (16436, 4097),
    "sin/mlut-interp/float": (16436, 4097),
    "sin/mlut/float": (16436, 4097),
    "sinh/cordic-lut/float": (868, 217),
    "sinh/cordic/float": (108, 27),
    "sqrt/cordic/float": (108, 27),
    "sqrt/llut-interp/fixed": (16436, 4097),
    "sqrt/llut-interp/float": (16436, 4097),
    "sqrt/llut/fixed": (16436, 4097),
    "sqrt/llut/float": (16436, 4097),
    "sqrt/mlut-interp/float": (16436, 4097),
    "sqrt/mlut/float": (16436, 4097),
    "tan/cordic-lut/float": (872, 218),
    "tan/cordic/float": (116, 29),
    "tan/llut-interp/fixed": (32872, 8194),
    "tan/llut-interp/float": (32872, 8194),
    "tan/llut/fixed": (32872, 8194),
    "tan/llut/float": (32872, 8194),
    "tan/mlut-interp/float": (32872, 8194),
    "tan/mlut/float": (32872, 8194),
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
