"""Model file round trips, integrity checks, and the golden reference hash."""

import hashlib
import json
import struct

import numpy as np
import pytest

from arp.data import toy_images
from arp.errors import FormatError
from arp.fixed import FixedConfig
from arp.model_io import deserialize_model, load_model, save_model, serialize_model
from arp.nn import AvgPool2d, Conv2d, Dense, Flatten, Sequential, build_model
from arp.replace import train_supervised

CFG = FixedConfig(64, 16)


def reference_model():
    """Tiny deterministic trained model used for stability checks."""
    imgs, y = toy_images(64, hw=8, classes=4, seed=9)
    model = build_model("smallcnn", seed=9, num_classes=4, image_hw=8)
    train_supervised(model, imgs, y, epochs=2, lr=1e-3, batch_size=32, seed=9)
    for act in model.hybrid_layers():
        mask = act.indicator.m.reshape(-1)
        mask[::3] = 0.0
        from arp.replace import refresh_coeffs

        refresh_coeffs(act)
    return model


def edit_descriptor(blob: bytes, edit) -> bytes:
    """The model file `blob` with its descriptor replaced by edit(descriptor)
    and its digest recomputed (the digest has no key, so anyone can do this)."""
    (desc_len,) = struct.unpack_from("<I", blob, 50)
    desc = edit(json.loads(blob[54 : 54 + desc_len]))
    desc_json = json.dumps(desc, sort_keys=True, separators=(",", ":")).encode()
    body = struct.pack("<I", len(desc_json)) + desc_json + blob[54 + desc_len :]
    return blob[:18] + hashlib.sha256(body).digest() + body


_DROP = object()


def layer_field(i: int, key: str, value=_DROP):
    """A descriptor edit that sets field `key` of layer `i`, or drops it."""

    def edit(desc):
        if value is _DROP:
            del desc["layers"][i][key]
        else:
            desc["layers"][i][key] = value
        return desc

    return edit


def hybrid_file(degree=2, channel_axis=0) -> bytes:
    """An mlp file whose first hybrid layer declares `degree` and
    `channel_axis`: an integer degree as the width of its coefficients, any
    other value written into the descriptor."""
    model = build_model("mlp", seed=3)
    act = model.hybrid_layers()[0]
    act.channel_axis = channel_axis
    if type(degree) is not int:
        return edit_descriptor(serialize_model(model, CFG), layer_field(1, "degree", degree))
    act.coeffs = np.zeros((act.feat_shape[0], degree + 1))
    return serialize_model(model, CFG)


class TestRoundTrip:
    def test_bytes_idempotent(self):
        model = build_model("mlp", seed=1)
        blob = serialize_model(model, CFG, seed=1)
        model2, cfg2, seed2 = deserialize_model(blob)
        assert cfg2 == CFG and seed2 == 1
        assert serialize_model(model2, CFG, seed=1) == blob

    def test_logits_exact(self):
        model = reference_model()
        blob = serialize_model(model, CFG, seed=9)
        model2, _, _ = deserialize_model(blob)
        x = toy_images(8, hw=8, seed=10)[0]
        from arp.nn import fold_batchnorm
        import copy

        folded = fold_batchnorm(copy.deepcopy(model))
        assert np.array_equal(folded.forward(x), model2.forward(x))

    def test_file_helpers(self, tmp_path):
        model = build_model("mlp", seed=2)
        p = tmp_path / "m.arpm"
        save_model(p, model, CFG, seed=2)
        model2, cfg2, _ = load_model(p)
        assert serialize_model(model2, cfg2, 2) == p.read_bytes()


class TestIntegrity:
    def test_bad_magic_is_version_error(self):
        blob = serialize_model(build_model("mlp", seed=3), CFG)
        with pytest.raises(FormatError):
            deserialize_model(b"XXXX" + blob[4:])

    def test_truncated_file(self):
        blob = serialize_model(build_model("mlp", seed=3), CFG)
        with pytest.raises(FormatError):
            deserialize_model(blob[:-10])

    @pytest.mark.parametrize("keep", [2, 4, 17, 49])
    def test_short_header_is_truncated(self, keep):
        """A file that ends inside the magic, the header or the digest is
        reported as truncated, not as a bad magic."""
        blob = serialize_model(build_model("mlp", seed=3), CFG)
        with pytest.raises(FormatError, match="^model file truncated$"):
            deserialize_model(blob[:keep])

    def test_payload_corruption_caught_by_digest(self):
        blob = bytearray(serialize_model(build_model("mlp", seed=3), CFG))
        blob[-1] ^= 0xFF
        with pytest.raises(FormatError):
            deserialize_model(bytes(blob))

    def test_unsupported_version(self):
        blob = bytearray(serialize_model(build_model("mlp", seed=3), CFG))
        blob[4] = 99
        with pytest.raises(FormatError):
            deserialize_model(bytes(blob))


    @pytest.mark.parametrize("k", [0, -2, 2.0, True, "2"])
    def test_pooling_factor_must_be_a_positive_integer(self, k):
        model = build_model("smallcnn", seed=3)
        pool = next(layer for layer in model.layers if isinstance(layer, AvgPool2d))
        pool.k = k
        with pytest.raises(FormatError, match="avgpool factor"):
            deserialize_model(serialize_model(model, CFG))

    @pytest.mark.parametrize("degree", [0, 3, 2.0, True])
    def test_hybrid_degree_must_be_one_or_two(self, degree):
        """The secure path evaluates degrees 1 and 2 only; a cubic term would be dropped."""
        with pytest.raises(FormatError, match="hybrid degree"):
            deserialize_model(hybrid_file(degree=degree))

    @pytest.mark.parametrize("axis", [1, 5, -1, 0.0])
    def test_hybrid_channel_axis_must_be_an_axis(self, axis):
        with pytest.raises(FormatError, match="hybrid channel axis"):
            deserialize_model(hybrid_file(channel_axis=axis))

    @pytest.mark.parametrize("edit, match", [
        (layer_field(0, "in"), "dense input size None"),
        (layer_field(0, "kind"), "unknown layer kind None"),
        (layer_field(0, "in", "2"), "dense input size '2'"),
        (layer_field(0, "in", -2), "dense input size -2"),
        (lambda d: {"layers": 5}, "no list of layer objects"),
        (lambda d: d["layers"], "no list of layer objects"),
        (layer_field(1, "feat_shape", [64.0]), "hybrid feature shape"),
        (layer_field(1, "feat_shape", []), r"hybrid feature shape \[\] is not a non-empty list"),
    ], ids=["no-in", "no-kind", "string-in", "negative-in", "layers-not-a-list",
            "descriptor-a-list", "float-feat-shape", "empty-feat-shape"])
    def test_malformed_descriptor_fields(self, edit, match):
        """A descriptor the digest vouches for (it has no key) is still checked
        field by field."""
        blob = edit_descriptor(serialize_model(build_model("mlp", seed=3), CFG), edit)
        with pytest.raises(FormatError, match=match):
            deserialize_model(blob)

    @pytest.mark.parametrize("value", [2, 255])
    def test_hybrid_mask_must_be_zero_or_one(self, value):
        """The plaintext oracle would scale the ReLU by a mask of 2, while the
        secure path keeps a plain ReLU for any nonzero entry."""
        model = build_model("mlp", seed=3)
        model.hybrid_layers()[0].indicator.m.reshape(-1)[0] = value
        with pytest.raises(FormatError, match=f"hybrid mask of layer 1 holds {value}: each entry must be 0 or 1"):
            deserialize_model(serialize_model(model, CFG))

    @pytest.mark.parametrize("kind, shape", [("dense", (3,)), ("dense", (1, 64)), ("conv", (3,))])
    def test_bias_shape_must_match_the_descriptor(self, kind, shape):
        """A bias that is not one value per output is refused on load, not at
        the first forward pass."""
        if kind == "dense":
            model = build_model("mlp", seed=3)
        else:
            model = Sequential([Conv2d(1, 4, 3, np.random.default_rng(0), padding=1), Flatten()])
        next(layer for layer in model.layers if isinstance(layer, (Dense, Conv2d))).b.value = np.zeros(shape)
        with pytest.raises(FormatError, match=f"{kind} bias shape"):
            deserialize_model(serialize_model(model, CFG))


class TestGoldenHash:
    def test_seeded_reference_file_is_stable(self):
        """Serialized bytes of a fixed seeded model must never drift."""
        blob = serialize_model(reference_model(), CFG, seed=9)
        digest = hashlib.sha256(blob).hexdigest()
        assert digest == GOLDEN_SHA256, (
            "reference model file changed; if intentional, update the frozen hash"
        )


# re-frozen once, on purpose, when every batch reduction began to sum a
# C-ordered copy: that changed the trained bits of the smallcnn's conv layers
GOLDEN_SHA256 = "c022cc608a294cf85df9139309e16a22735c309ca3964f8f0eeaf989503219ca"
