"""Dataset generators and file formats."""

import re
import struct

import numpy as np
import pytest

from arp.data import load_csv, read_arim, save_csv, toy_images, two_spirals, write_arim
from arp.errors import FormatError


class TestTwoSpirals:
    def test_deterministic(self):
        a = two_spirals(256, seed=5)
        b = two_spirals(256, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_balanced_classes(self):
        _, y = two_spirals(400, seed=1)
        assert int(y.sum()) == 200

    def test_learnable_structure(self):
        # opposite spiral arms: same parameter, opposite sign features
        x, y = two_spirals(1000, noise=0.0, seed=2)
        assert x.shape == (1000, 2)

    @pytest.mark.parametrize("n", [1, 1025, 0, -2])
    def test_rejects_odd_or_non_positive_count(self, n):
        with pytest.raises(ValueError, match="positive even"):
            two_spirals(n)

    def test_even_count_output_is_pinned(self):
        import hashlib

        x, y = two_spirals(256, seed=5)
        assert len(x) == 256
        digest = hashlib.sha256(x.tobytes() + y.tobytes()).hexdigest()
        assert digest == "c9881c75465606f05986110a235e760d5d5b87b05ffc9e64dd3486037a944971"


class TestCsv:
    def test_roundtrip(self, tmp_path):
        x, y = two_spirals(64, seed=3)
        p = tmp_path / "d.csv"
        save_csv(p, x, y)
        x2, y2 = load_csv(p)
        np.testing.assert_allclose(x2, x, atol=1e-9)
        assert np.array_equal(y2, y)

    def test_header_present(self, tmp_path):
        x, y = two_spirals(8, seed=3)
        p = tmp_path / "d.csv"
        save_csv(p, x, y)
        assert p.read_text().splitlines()[0] == "x0,x1,label"


class TestArim:
    def test_roundtrip(self, tmp_path):
        imgs, y = toy_images(32, hw=8, seed=4)
        p = tmp_path / "d.arim"
        write_arim(p, imgs, y)
        imgs2, y2 = read_arim(p)
        assert imgs2.shape == (32, 1, 8, 8)
        assert np.array_equal(y2, y)
        assert np.max(np.abs(imgs2 - imgs)) <= 1 / 255 + 1e-12

    def test_header_layout(self, tmp_path):
        imgs, y = toy_images(3, hw=4, seed=4)
        p = tmp_path / "d.arim"
        write_arim(p, imgs, y)
        raw = p.read_bytes()
        assert raw[:4] == b"ARIM"
        assert int.from_bytes(raw[4:8], "little") == 3
        assert len(raw) == 16 + 3 * 16 + 3

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.arim"
        p.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError):
            read_arim(p)

    @pytest.mark.parametrize("raw, expect", [
        (b"ARIM\x01\x00", "ARIM file truncated"),
        (b"AR", "ARIM file truncated"),
        (b"ARIM" + struct.pack("<III", 0, 4, 4), "ARIM file holds no images"),
        (b"ARIM" + struct.pack("<III", 1, 1, 1) + bytes(3), "trailing bytes after the ARIM labels"),
    ], ids=["short-header", "short-magic", "no-images", "trailing"])
    def test_unreadable_files_name_the_fault(self, tmp_path, raw, expect):
        p = tmp_path / "bad.arim"
        p.write_bytes(raw)
        with pytest.raises(FormatError, match=f"^{re.escape(str(p))}: {expect}$"):
            read_arim(p)

    def test_truncation_detected(self, tmp_path):
        imgs, y = toy_images(4, hw=4, seed=5)
        p = tmp_path / "d.arim"
        write_arim(p, imgs, y)
        (tmp_path / "t.arim").write_bytes(p.read_bytes()[:-2])
        with pytest.raises(FormatError):
            read_arim(tmp_path / "t.arim")
