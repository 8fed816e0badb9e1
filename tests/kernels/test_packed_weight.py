"""The packed stored-weight layout: one copy, laid out for the reader.

A stored layer packs its codes once into C-contiguous ``(in, rows)``
blocks (``kernels.pack_weight`` -> ``kernels.PackedWeight``) and
``quantized_linear`` runs one loop over them.  The layout owes the
caller exactly the values it was packed from, and the kernel over it the
unblocked oracle's function (``quantized_linear_reference`` on the plain
codes), over drawn shapes (``out`` under, at and off a multiple of the
block width; ``in`` in {1, 3, 512, 2048}), int8 codes, both activation
dtypes, leading batch axes and zero rows.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.kernels import quant as QK
from repro.models import ModelConfig, build_dense_decoder

#: Reference tolerance: the tier contract's.
TOLERANCE = 2e-5


@st.composite
def stored_calls(draw):
    """``(codes, scales, bias, x)``: one stored weight and an activation."""
    in_f = draw(st.sampled_from([1, 3, 512, 2048]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rows = QK.block_rows(in_f, np.dtype(dtype).itemsize)
    out_f = draw(st.one_of(
        st.integers(1, 40),                                   # under one block
        st.sampled_from([rows, 2 * rows]).filter(lambda o: o <= 300),
        st.integers(1, 300),                                  # ragged tail
    ))
    lead = draw(st.sampled_from([(), (0,), (1,), (8,), (2, 3), (2, 0, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.integers(-127, 128, size=(out_f, in_f)).astype(np.int8)
    scales = rng.uniform(1e-3, 1e-2, size=out_f).astype(np.float32)
    bias = rng.normal(size=out_f).astype(dtype) if draw(st.booleans()) else None
    x = rng.normal(size=lead + (in_f,)).astype(dtype)
    return codes, scales, bias, x


def linear_paths(module, prefix=""):
    """The dotted path of every ``nn.Linear`` below ``module``."""
    paths = []
    for name, child in module._modules.items():
        if isinstance(child, nn.Linear):
            paths.append(prefix + name)
        else:
            paths += linear_paths(child, f"{prefix}{name}.")
    return paths


def layer_at(model, path):
    for part in path.split("."):
        model = model._modules[part]
    return model


def packed_for(codes, scales, bias, x):
    return QK.pack_weight(codes, scales, bias, itemsize=x.dtype.itemsize)


def unpacked(packed):
    """The ``(out, in)`` codes a packed weight holds, block by block."""
    return np.concatenate(
        [block.T for _, _, block in packed.blocks]
        or [np.empty((0, packed.shape[1]), packed.dtype)])


class TestLayout:
    @settings(max_examples=40, deadline=None)
    @given(call=stored_calls())
    def test_round_trip_and_packed_matches_the_reference(self, call):
        codes, scales, bias, x = call
        packed = packed_for(codes, scales, bias, x)
        # the values, the logical shape and not one byte more
        assert packed.shape == codes.shape and packed.dtype == codes.dtype
        assert packed.nbytes == codes.nbytes
        held = unpacked(packed)
        assert held.dtype == codes.dtype
        np.testing.assert_array_equal(held, codes)
        # the layout: contiguous (in, rows) blocks tiling the channels
        rows = QK.block_rows(codes.shape[1], x.dtype.itemsize)
        edges = [(o0, o1) for o0, o1, _ in packed.blocks]
        assert edges == [
            (o0, min(o0 + rows, codes.shape[0]))
            for o0 in range(0, codes.shape[0], rows)
        ]
        for o0, o1, block in packed.blocks:
            assert block.shape == (codes.shape[1], o1 - o0)
            assert block.flags.c_contiguous
        # the blocked loop computes the unblocked oracle's function
        got = QK.quantized_linear(x, packed, scales, bias)
        assert got.dtype == x.dtype
        assert got.shape == x.shape[:-1] + (codes.shape[0],)
        np.testing.assert_allclose(
            got, QK.quantized_linear_reference(x, codes, scales, bias),
            rtol=TOLERANCE, atol=TOLERANCE * max(1.0, codes.shape[1] ** 0.5))

    def test_pack_copies_and_is_idempotent(self, rng):
        """The packed weight never aliases what it was packed from (not
        even where a block's transpose is already contiguous), and a
        packed weight packs to itself."""
        for shape in ((5, 1), (1, 7), (40, 16)):
            codes = rng.integers(-127, 128, size=shape).astype(np.int8)
            scales = np.ones(shape[0], dtype=np.float32)
            packed = QK.pack_weight(codes, scales)
            assert not any(
                np.shares_memory(block, codes) for _, _, block in packed.blocks)
            assert QK.pack_weight(packed, scales) is packed


class TestValidation:
    """A stored triple that is not one weight is refused by name, once,
    where it is packed."""

    BAD = [
        ("scales", dict(scales=lambda s: s[:1])),
        ("scales", dict(scales=lambda s: s[:, None])),
        ("scales", dict(scales=lambda s: s.astype(np.float64))),
        ("bias", dict(bias=lambda b: b[:1])),
        ("bias", dict(bias=lambda b: b[:, None])),
        ("q_weight", dict(codes=lambda q: q[0])),
        ("q_weight", dict(codes=lambda q: q[None])),
    ]

    @pytest.fixture
    def triple(self, rng):
        codes, scales = QK.quantize_per_channel(rng.normal(size=(6, 6)))
        return codes, scales, np.ones(6)

    @pytest.mark.parametrize("name,change", BAD)
    def test_wrong_shapes_are_refused_by_name(self, rng, triple, name, change):
        codes, scales, bias = triple
        bad = dict(
            codes=change.get("codes", lambda q: q)(codes),
            scales=change.get("scales", lambda s: s)(scales),
            bias=change.get("bias", lambda b: b)(bias),
        )
        x = rng.normal(size=(3, 6))
        for refuse in (
            lambda: QK.pack_weight(bad["codes"], bad["scales"], bad["bias"]),
            lambda: nn.QuantizedLinear(bad["codes"], bad["scales"], bad["bias"]),
        ):
            with pytest.raises(ValueError, match=name):
                refuse()
        # the next valid call is served
        got = QK.quantized_linear(
            x, QK.pack_weight(codes, scales, bias, itemsize=8), scales, bias)
        assert got.shape == (3, 6)
        np.testing.assert_allclose(
            got, QK.quantized_linear_reference(x, codes, scales, bias),
            rtol=1e-9, atol=1e-9)

    def test_a_half_precision_weight_is_refused_naming_int8(self, rng):
        """int8 is the one stored format: float16 codes are refused at
        every entry, with or without scales, and int8 codes need them."""
        half = rng.normal(size=(6, 6)).astype(np.float16)
        scales = np.ones(6, dtype=np.float32)
        for given_scales in (None, scales):
            for refuse in (
                lambda: QK.pack_weight(half, given_scales),
                lambda: nn.QuantizedLinear(half, given_scales),
            ):
                with pytest.raises(TypeError, match="int8"):
                    refuse()
        with pytest.raises(ValueError, match="scales"):
            QK.pack_weight(half.astype(np.int8), None)

    @pytest.mark.parametrize(
        "dtype", [np.float16, np.float32, np.float64, np.uint8, np.int16])
    @pytest.mark.parametrize(
        "entry", ["check_stored", "pack_weight", "QuantizedLinear"])
    def test_codes_of_another_dtype_are_refused_naming_int8(
        self, triple, entry, dtype
    ):
        """Codes are int8 or nothing: a float array, unsigned bytes
        (an asymmetric scheme's codes) or wider integers are refused at
        every entry, however they were scaled."""
        codes, scales, bias = triple
        other = codes.astype(dtype)
        refuse = {
            "check_stored": lambda: QK.check_stored(other, scales, bias),
            "pack_weight": lambda: QK.pack_weight(other, scales, bias),
            "QuantizedLinear": lambda: nn.QuantizedLinear(other, scales, bias),
        }[entry]
        with pytest.raises(TypeError, match="int8 codes") as info:
            refuse()
        assert np.dtype(dtype).name in str(info.value)

    @pytest.mark.parametrize(
        "entry", ["check_stored", "pack_weight", "QuantizedLinear"])
    def test_int8_codes_without_scales_are_refused(self, triple, entry):
        """``scales=None`` no longer names a format of its own: int8 codes
        need their per-channel scales at every entry."""
        codes, _, bias = triple
        refuse = {
            "check_stored": lambda: QK.check_stored(codes, None, bias),
            "pack_weight": lambda: QK.pack_weight(codes, None, bias),
            "QuantizedLinear": lambda: nn.QuantizedLinear(codes, None, bias),
        }[entry]
        with pytest.raises(ValueError, match="scales must be 1-D float32 of length 6"):
            refuse()

    def test_a_packed_weight_is_checked_against_new_scales(self, triple):
        codes, scales, bias = triple
        packed = QK.pack_weight(codes, scales, bias)
        with pytest.raises(ValueError, match="scales"):
            nn.QuantizedLinear(packed, scales[:3], bias)
        assert nn.QuantizedLinear(packed, scales, bias).q_weight is packed


class TestStoredLayerTravels:
    @pytest.mark.parametrize("fmt", nn.QUANT_MODES)
    def test_deepcopy_and_pickle_keep_values_layout_and_bytes(
        self, rng, store_weight, fmt
    ):
        """A ``spawn`` cluster worker receives its replica by pickle."""
        codes, scales = store_weight(fmt, rng.normal(size=(300, 512)))
        bias = rng.normal(size=300).astype(np.float32)
        layer = nn.QuantizedLinear(codes, scales, bias)
        x = rng.normal(size=(8, 512)).astype(np.float32)
        want = layer.apply(x)
        assert [b.shape for _, _, b in layer.q_weight.blocks] == [
            (512, 128), (512, 128), (512, 44)]
        for twin in (copy.deepcopy(layer), pickle.loads(pickle.dumps(layer))):
            assert twin.q_weight is not layer.q_weight
            np.testing.assert_array_equal(unpacked(twin.q_weight), codes)
            assert [
                (o0, o1, b.shape, b.flags.c_contiguous)
                for o0, o1, b in twin.q_weight.blocks
            ] == [
                (o0, o1, b.shape, True) for o0, o1, b in layer.q_weight.blocks
            ]
            assert twin.q_weight.nbytes == layer.q_weight.nbytes == codes.nbytes
            assert twin.weight_nbytes() == layer.weight_nbytes()
            assert twin.apply(x).tobytes() == want.tobytes()


class TestDecodeInt8Decoder:
    """The e2e ``decode_int8`` workload's decoder: the stored values are
    the parent layout's, to the element and to the byte count."""

    #: ``nn.weight_memory_bytes`` of the int8 replica at the commit before
    #: the packed layout (``nn.weight_bytes`` of the e2e workload).
    INT8_WEIGHT_BYTES = 7_239_680

    @pytest.fixture(scope="class")
    def model(self):
        config = ModelConfig(
            vocab_size=256, n_classes=2, max_len=96, d_hidden=512, n_heads=8,
            r_ffn=4, n_total=2, dtype="float32", seed=0,
        )
        return build_dense_decoder(config).eval()

    @pytest.mark.parametrize("fmt", nn.QUANT_MODES)
    def test_every_stored_array_equals_the_unpacked_formats(self, model, fmt):
        replica = nn.quantize_for_inference(model, mode=fmt)
        assert nn.weight_memory_bytes(replica) == self.INT8_WEIGHT_BYTES
        paths = linear_paths(model)
        assert len(paths) == 13 and "blocks.0.ffn.fc1" in paths
        for path in paths:
            source, layer = layer_at(model, path), layer_at(replica, path)
            assert isinstance(layer, nn.QuantizedLinear)
            w = source.weight.data
            codes, scales = QK.quantize_per_channel(w)
            np.testing.assert_array_equal(layer.scales, scales)
            assert layer.scales.dtype == np.float32
            held = unpacked(layer.q_weight)
            assert held.dtype == codes.dtype
            np.testing.assert_array_equal(held, codes)
            assert layer.q_weight.nbytes == codes.nbytes
            np.testing.assert_array_equal(layer.bias, source.bias.data)
            assert layer.q_weight.rows == min(
                QK.block_rows(layer.in_features, 4), layer.out_features)
