"""RGB images, the PGM/PPM codec, and the compressed-size metric."""

import zlib

import numpy as np
import pytest

from wavequant.image import NetpbmError, RgbImage, encoded_size, read_image, write_image


def random_image(height, width, seed):
    rng = np.random.default_rng(seed)
    return RgbImage(rng.integers(0, 256, (height, width, 3), dtype=np.uint8))


# --- decoding ---

def test_read_minimal_p6():
    img = read_image(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0]))
    assert (img.width, img.height) == (2, 1)
    assert img.pixels[0, 0, 0] == 255 and img.pixels[0, 0, 1] == 0
    assert img.pixels[0, 1, 1] == 255 and img.pixels[0, 1, 2] == 0
    with pytest.raises(ValueError):
        img.pixels[0, 0, 0] = 1


def test_read_p5_promotes_to_rgb():
    img = read_image(b"P5\n1 1\n255\n" + bytes([7]))
    assert img.pixels.tolist() == [[[7, 7, 7]]]
    with pytest.raises(ValueError):
        img.pixels[0, 0, 0] = 1


def test_read_skips_header_comments():
    data = b"P6 # comment\n# another comment\n2 # width\n1\n255\n" + bytes(6)
    img = read_image(data)
    assert (img.width, img.height) == (2, 1)


def test_read_rejects_wide_maxval():
    with pytest.raises(NetpbmError, match="maxval"):
        read_image(b"P6\n1 1\n65535\n" + bytes([0, 0, 0, 0, 0, 0]))


def test_read_rejects_bad_magic():
    with pytest.raises(NetpbmError, match="magic"):
        read_image(b"P3\n1 1\n255\n0 0 0")


def test_read_rejects_missing_width():
    with pytest.raises(NetpbmError, match="width"):
        read_image(b"P6\n")


def test_read_rejects_nonpositive_dimension():
    with pytest.raises(NetpbmError, match="height"):
        read_image(b"P6\n2 0\n255\n")


def test_read_rejects_truncated_payload():
    with pytest.raises(NetpbmError, match="payload"):
        read_image(b"P6\n2 2\n255\n" + bytes(5))


@pytest.mark.parametrize(
    "tail, count",
    [(b"extra", 5), (b"P6\n1 1\n255\n" + bytes(3), 14)],
    ids=["bytes", "second_image"],
)
def test_read_rejects_bytes_after_raster(tail, count):
    with pytest.raises(NetpbmError, match=f"^{count} bytes after the raster$"):
        read_image(b"P6 2 2 255\n" + bytes(12) + tail)


@pytest.mark.parametrize(
    "header, message",
    [
        (b"P6 +2 1 255\n", "invalid width b'\\+2'"),
        (b"P6 2 -1 255\n", "invalid height b'-1'"),
        (b"P6 2 1 1_0\n", "invalid maxval b'1_0'"),
        (b"P6 2 1 2_5_5\n", "invalid maxval b'2_5_5'"),
        (b"P6 2 1 0x1\n", "invalid maxval b'0x1'"),
        (b"P6 2 00 255\n", "invalid height 0; must be positive"),
        (b"P6 " + b"1" * 5000 + b" 1 255\n", f"invalid width b'{'1' * 5000}'"),
    ],
    ids=["plus_sign", "minus_sign", "underscore", "underscores", "hex", "zero", "5000_digits"],
)
def test_read_numeric_fields_are_ascii_digits(header, message):
    with pytest.raises(NetpbmError, match=f"^{message}$"):
        read_image(header + bytes(6))


WHITESPACE = {"space": b" ", "tab": b"\t", "lf": b"\n", "cr": b"\r", "vt": b"\x0b", "ff": b"\x0c"}


@pytest.mark.parametrize(
    "header",
    [
        *(ws.join([b"P6", b"2", b"1", b"255", b""]) for ws in WHITESPACE.values()),
        b"#a\nP6#b\n#c\n2#d\n1 #e\n255\n",
        b"P6 0002 01 0255\n",
    ],
    ids=[*WHITESPACE, "comment_before_each_field", "leading_zeros"],
)
def test_read_header_separators(header):
    img = read_image(header + bytes(range(6)))
    assert img.pixels.tolist() == [[[0, 1, 2], [3, 4, 5]]]


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P6 2 1 255#c\n" + bytes(6), "missing whitespace before payload"),
        (b"P6 2 1 255", "missing whitespace before payload"),
        (b"P6\n2 1\n# comment at EOF", "missing maxval in header"),
        (b"P6\n2#c", "missing height in header"),
        (b"", "missing magic in header"),
        (b"P3", "unsupported magic b'P3'; expected P5 or P6"),
        (b"P6 2 1 255 " + bytes(5), "truncated payload: expected 6 bytes, got 5"),
    ],
    ids=["comment_after_maxval", "eof_after_maxval", "comment_at_eof", "comment_after_width",
         "empty", "bad_magic_before_missing_width", "truncated"],
)
def test_read_header_error_order(data, message):
    with pytest.raises(NetpbmError, match=f"^{message}$"):
        read_image(data)


# --- encoding ---

def test_write_minimal_black_pixel():
    img = RgbImage(np.zeros((1, 1, 3), dtype=np.uint8))
    assert write_image(img) == b"P6\n1 1\n255\n" + bytes([0, 0, 0])


@pytest.mark.parametrize("seed", range(5))
def test_roundtrip_is_bit_exact(seed):
    img = random_image(2, 2, seed)
    assert read_image(write_image(img)) == img


def test_roundtrip_larger_image():
    img = random_image(13, 31, 99)
    assert read_image(write_image(img)) == img


# --- equality ---

def test_images_are_equal_only_in_shape_and_bytes():
    raw = np.arange(6, dtype=np.uint8)
    wide, tall = RgbImage(raw.reshape(1, 2, 3)), RgbImage(raw.reshape(2, 1, 3))
    assert wide == RgbImage(raw.reshape(1, 2, 3).copy())
    assert wide != tall  # the same bytes in another shape
    assert wide.__eq__(None) is NotImplemented
    assert (wide == None) is False  # noqa: E711


# --- channels ---

def test_split_solid_red():
    red = RgbImage(np.full((3, 3, 3), (255, 0, 0), dtype=np.uint8))
    r, g, b = (red.pixels[:, :, c] for c in range(3))
    assert np.all(r == 255) and np.all(g == 0) and np.all(b == 0)


def test_split_merge_inverse():
    img = random_image(4, 6, 3)
    planes = [img.pixels[:, :, c] for c in range(3)]
    assert RgbImage(np.stack(planes, axis=-1)) == img


def test_grayscale_promotion_gives_identical_planes():
    payload = bytes(range(16))
    img = read_image(b"P5\n4 4\n255\n" + payload)
    r, g, b = (img.pixels[:, :, c] for c in range(3))
    assert np.array_equal(r, g) and np.array_equal(g, b)
    assert r.tolist() == np.arange(16).reshape(4, 4).tolist()


def test_merge_rejects_mismatched_planes():
    for shape in ((2, 2, 2), (2, 2), (2, 2, 3, 1), (0, 2, 3)):
        with pytest.raises(ValueError, match=r"\(H, W, 3\)"):
            RgbImage(np.zeros(shape, dtype=np.uint8))


def test_plane_rejects_out_of_range_values():
    with pytest.raises(ValueError, match="uint8"):
        RgbImage(np.array([[[0, 300, 0]]]))
    with pytest.raises(ValueError, match="uint8"):
        RgbImage(np.zeros((1, 1, 3)))


def test_merge_triple_example():
    img = RgbImage(np.array([[[10, 20, 30]]], dtype=np.uint8))
    assert img.pixels[0, 0].tolist() == [10, 20, 30]
    assert (img.width, img.height) == (1, 1)


# --- size metric ---

def test_encoded_size_constant_image_compresses_strongly():
    img = RgbImage(np.zeros((64, 64, 3), dtype=np.uint8))
    assert encoded_size(img) < 500  # raw stream would be 12288 bytes


def test_encoded_size_deterministic():
    img = random_image(64, 64, 5)
    assert encoded_size(img) == encoded_size(img)


def test_encoded_size_random_image_near_raw_size():
    # uniform random bytes are incompressible; DEFLATE adds a tiny envelope
    img = random_image(64, 64, 12345)
    raw = 64 * 64 * 3
    assert abs(encoded_size(img) - raw) <= 0.02 * raw


def test_encoded_size_is_deflate_of_the_pixel_stream():
    rgb = random_image(16, 24, 3)
    gray = read_image(b"P5\n24 16\n255\n" + bytes(k % 251 for k in range(24 * 16)))
    assert rgb.pixels.flags.c_contiguous and not gray.pixels.flags.c_contiguous
    for img in (rgb, gray):
        assert encoded_size(img) == len(zlib.compress(img.pixels.tobytes()))
