import math
import re
import struct

import numpy as np
import pytest

from neurocpd.tensor_io import (
    MAGIC,
    load_tensor,
    load_tensor_bin,
    load_tensor_txt,
    save_tensor,
    save_tensor_bin,
    save_tensor_txt,
    write_metadata,
)


def test_text_roundtrip(tmp_path):
    t = np.random.default_rng(0).random((3, 4, 2))
    path = tmp_path / "t.txt"
    save_tensor_txt(path, t)
    assert np.array_equal(load_tensor_txt(path), t)


def test_text_layout_is_first_index_fastest(tmp_path):
    t = np.arange(1, 9, dtype=float).reshape((2, 2, 2), order="F")
    path = tmp_path / "t.txt"
    save_tensor_txt(path, t)
    tokens = path.read_text().split()
    assert tokens[0] == "3"
    assert tokens[1:4] == ["2", "2", "2"]
    assert [float(v) for v in tokens[4:]] == list(range(1, 9))


def test_binary_roundtrip(tmp_path):
    t = np.random.default_rng(1).random((4, 3, 5))
    path = tmp_path / "t.bin"
    save_tensor_bin(path, t)
    assert np.array_equal(load_tensor_bin(path), t)


def test_dispatch_by_suffix(tmp_path):
    t = np.random.default_rng(2).random((2, 3))
    save_tensor(tmp_path / "a.bin", t)
    save_tensor(tmp_path / "a.txt", t)
    assert np.array_equal(load_tensor(tmp_path / "a.bin"), t)
    assert np.array_equal(load_tensor(tmp_path / "a.txt"), t)


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 16)
    with pytest.raises(ValueError):
        load_tensor_bin(path)


def test_text_rejects_truncated_payload(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n2 2\n1.0 2.0 3.0\n")
    with pytest.raises(ValueError):
        load_tensor_txt(path)
    (tmp_path / "empty.txt").write_text("")
    with pytest.raises(ValueError):
        load_tensor_txt(tmp_path / "empty.txt")


def test_binary_rejects_truncated_payload(tmp_path):
    t = np.ones((2, 2))
    path = tmp_path / "t.bin"
    save_tensor_bin(path, t)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        load_tensor_bin(path)


@pytest.mark.parametrize("cut", [1, 3, 7])
def test_binary_payload_not_a_multiple_of_8_bytes_names_the_file(tmp_path, cut):
    path = tmp_path / "t.bin"
    save_tensor_bin(path, np.ones((2, 2, 2)))
    path.write_bytes(path.read_bytes()[:-cut])
    message = f"{path}: truncated payload"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_tensor_bin(path)


def huge_header(path, dims, values):
    """A tensor file whose header names ``dims`` and whose payload is ``values``."""
    if path.suffix == ".bin":
        path.write_bytes(MAGIC + struct.pack(f"<{len(dims) + 1}Q", len(dims), *dims)
                         + np.asarray(values, dtype="<f8").tobytes())
    else:
        words = [str(len(dims)), " ".join(map(str, dims))] + [repr(v) for v in values]
        path.write_text("\n".join(words) + "\n")


@pytest.mark.parametrize("suffix", [".bin", ".txt"])
@pytest.mark.parametrize(
    "dims, count",
    [((2**32, 2**32, 1), 0), ((2**62, 2**62, 4), 8)],
    ids=["no-values", "eight-values"],
)
def test_size_check_takes_the_exact_product_of_huge_dimensions(
    tmp_path, suffix, dims, count
):
    # in int64 the product of these dimensions wraps to 0
    assert int(np.prod(np.array(dims, dtype=np.int64))) == 0
    path = tmp_path / f"t{suffix}"
    huge_header(path, dims, [1.0] * count)
    expected = f"{path}: expected {math.prod(dims)} values, found {count}"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        load_tensor(path)


def test_metadata_roundtrip(tmp_path):
    path = tmp_path / "t.txt.meta"
    write_metadata(path, {"kind": "caseI", "seed": 3, "rank": 10})
    assert path.read_text() == "kind = caseI\nseed = 3\nrank = 10\n"


@pytest.mark.parametrize("keep", [8, 12, 20])
def test_binary_rejects_truncated_header(tmp_path, keep):
    path = tmp_path / "t.bin"
    save_tensor_bin(path, np.ones((2, 2, 2)))
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError):
        load_tensor_bin(path)


@pytest.mark.parametrize("suffix", [".bin", ".txt"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_values(tmp_path, suffix, bad):
    t = np.ones((2, 3, 2))
    t[1, 2, 0] = bad
    path = tmp_path / f"t{suffix}"
    save_tensor(path, t)
    with pytest.raises(ValueError, match="non-finite"):
        load_tensor(path)


def corrupted_bin(corrupt):
    def make(tmp_path):
        path = tmp_path / "t.bin"
        save_tensor_bin(path, np.random.default_rng(3).random((2, 2, 2)))
        path.write_bytes(corrupt(path.read_bytes()))
        return path

    return make


def directory(tmp_path):
    path = tmp_path / "t.txt"
    path.mkdir()
    return path


def text_with_a_word(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("3\n2 2 2\n" + "0.5 " * 7 + "x\n")
    return path


def binary_named_as_text(tmp_path):
    path = tmp_path / "t.txt"
    save_tensor_bin(path, np.random.default_rng(3).random((2, 2, 2)))
    return path


@pytest.mark.parametrize(
    "make",
    [
        corrupted_bin(lambda raw: raw[:12]),
        corrupted_bin(lambda raw: raw[:20]),
        corrupted_bin(
            lambda raw: raw[:-8] + np.array([np.nan]).astype("<f8").tobytes()
        ),
        corrupted_bin(lambda raw: raw[:-5]),
        lambda tmp_path: tmp_path / "missing.txt",
        directory,
        text_with_a_word,
        binary_named_as_text,
    ],
    ids=[
        "header-12", "header-20", "nan", "payload-5", "missing", "directory", "word",
        "undecodable",
    ],
)
def test_cli_run_on_malformed_file_exits_1(tmp_path, capsys, make):
    from neurocpd import cli

    path = make(tmp_path)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        f"problem: {{path: {path}}}\nalgorithm: flow\nrank: 2\n"
        f"budget: {{iterations: 3}}\noutput_dir: {tmp_path / 'out'}\n"
    )
    assert cli.main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(path) in err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("suffix", [".bin", ".txt"])
def test_rejects_negative_values(tmp_path, suffix):
    t = np.ones((4, 4, 4))
    t[2, 0, 3] = -5.0
    path = tmp_path / f"t{suffix}"
    save_tensor(path, t)
    with pytest.raises(ValueError, match="negative"):
        load_tensor(path)


@pytest.mark.parametrize("suffix", [".bin", ".txt"])
def test_cli_run_on_negative_entry_exits_1(tmp_path, capsys, suffix):
    from neurocpd import cli

    t = np.random.default_rng(4).random((4, 4, 4))
    t[0, 1, 2] = -5.0
    path = tmp_path / f"t{suffix}"
    save_tensor(path, t)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        f"problem: {{path: {path}}}\nalgorithm: mur\nrank: 2\n"
        f"budget: {{iterations: 5}}\noutput_dir: {tmp_path / 'out'}\n"
    )
    assert cli.main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "negative" in err
