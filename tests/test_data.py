"""Phantom dataset generation, PGM I/O, manifests, checkpoints."""

import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from braidseg.data import (CLASSES, DOMAINS, DataError, Sample, _box3,
                           bilinear_resize, generate_dataset, load_checkpoint,
                           load_manifest, load_sample, make_views,
                           nearest_resize, read_pgm, save_checkpoint,
                           save_manifest, select, write_pgm)
from braidseg.model import ModelConfig, build_model

TINY = ModelConfig(m=2, C=16, C_c=8, C_d=8, heads=2, x_c=8, x_s=32,
                   window=2, rfin_count=2, dkin_count=2)


def _tree_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fn in sorted(filenames):
            rel = os.path.relpath(os.path.join(dirpath, fn), root)
            h.update(rel.encode())
            with open(os.path.join(dirpath, fn), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


class TestPgm:
    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.integers(0, 256, size=(9, 7), dtype=np.uint8)
        p = tmp_path / "x.pgm"
        write_pgm(p, arr)
        back = read_pgm(p)
        assert back.shape == (9, 7)
        assert np.array_equal(back, arr)

    def test_write_rejects_wrong_dtype_and_rank(self, tmp_path):
        with pytest.raises(DataError):
            write_pgm(tmp_path / "a.pgm", np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(DataError):
            write_pgm(tmp_path / "b.pgm", np.zeros((4, 4, 1), dtype=np.uint8))

    def test_read_skips_header_comments(self, tmp_path):
        p = tmp_path / "c.pgm"
        body = bytes(range(6))
        p.write_bytes(b"P5\n# a comment line\n3 2\n255\n" + body)
        assert np.array_equal(read_pgm(p), np.arange(6, dtype=np.uint8).reshape(2, 3))

    def test_read_rejects_bad_magic_and_truncation(self, tmp_path):
        p = tmp_path / "d.pgm"
        p.write_bytes(b"P2\n2 2\n255\n....")
        with pytest.raises(DataError, match="magic"):
            read_pgm(p)
        p.write_bytes(b"P5\n4 4\n255\nxx")
        with pytest.raises(DataError, match="pixel bytes"):
            read_pgm(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_pgm(tmp_path / "nope.pgm")

    @pytest.mark.parametrize("header", [b"P5\nab 3\n255\n", b"P5\n3 x\n255\n",
                                        b"P5\n3 3\nmax\n"])
    def test_read_rejects_non_numeric_header(self, tmp_path, header):
        p = tmp_path / "e.pgm"
        p.write_bytes(header + bytes(9))
        with pytest.raises(DataError, match="non-numeric"):
            read_pgm(p)

    @pytest.mark.parametrize("header,n_bytes", [(b"P5\n-2 -3\n255\n", 6),
                                                (b"P5\n0 5\n255\n", 0),
                                                (b"P5\n5 0\n255\n", 0),
                                                (b"P5\n-1 4\n255\n", 4)])
    def test_read_rejects_non_positive_extent(self, tmp_path, header, n_bytes):
        p = tmp_path / "f.pgm"
        p.write_bytes(header + bytes(n_bytes))
        with pytest.raises(DataError, match="not positive"):
            read_pgm(p)

    def test_read_rejects_a_path_with_a_nul_byte(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_pgm(str(tmp_path / "a\x00b.pgm"))


class TestManifest:
    def _sample(self):
        return Sample(id="cystic_0000_A", image="images/x.pgm",
                      mask="masks/x.pgm", cls="cystic", domain="A",
                      split="train")

    def test_json_uses_class_key(self):
        d = json.loads(self._sample().to_json())
        assert d["class"] == "cystic"
        assert "cls" not in d

    def test_round_trip(self, tmp_path):
        s = self._sample()
        save_manifest([s], tmp_path / "manifest.jsonl")
        back = load_manifest(tmp_path)
        assert back == [s]

    def test_a_line_separator_inside_a_string_stays_in_its_line(self, tmp_path):
        """JSON allows U+2028 in a string; str.splitlines() would cut there."""
        rec = dict(json.loads(self._sample().to_json()), id="a\u2028b")
        (tmp_path / "manifest.jsonl").write_text(
            json.dumps(rec, ensure_ascii=False) + "\n", encoding="utf-8")
        assert [s.id for s in load_manifest(tmp_path)] == ["a\u2028b"]

    def test_an_integer_too_long_to_convert_is_a_data_error(self, tmp_path):
        (tmp_path / "manifest.jsonl").write_text("1" * 5000 + "\n")
        with pytest.raises(DataError, match="invalid JSON"):
            load_manifest(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            load_manifest(tmp_path)

    @pytest.mark.parametrize("field,value", [
        ("class", "weird"), ("domain", "C"), ("split", "holdout")])
    def test_rejects_unknown_enum_values(self, field, value):
        d = json.loads(self._sample().to_json())
        d[field] = value
        with pytest.raises(DataError):
            Sample.from_json(json.dumps(d))

    @pytest.mark.parametrize("line", ["not json", "5", "[1, 2]", '"id"'])
    def test_rejects_lines_that_are_not_json_objects(self, line):
        with pytest.raises(DataError, match="manifest"):
            Sample.from_json(line)

    @pytest.mark.parametrize("field,value", [
        ("image", 5), ("mask", None), ("id", ["x"]), ("image", {"p": "x"})])
    def test_rejects_non_string_names(self, field, value):
        d = json.loads(self._sample().to_json())
        d[field] = value
        with pytest.raises(DataError, match="not a string"):
            Sample.from_json(json.dumps(d))

    def test_rejects_missing_field(self):
        d = json.loads(self._sample().to_json())
        del d["mask"]
        with pytest.raises(DataError, match="missing fields"):
            Sample.from_json(json.dumps(d))

    def test_select_filters(self):
        rows = [Sample(id=f"s{i}", image="i", mask="m", cls="solid",
                       domain="A" if i % 2 == 0 else "B",
                       split="train" if i < 4 else "test")
                for i in range(6)]
        assert len(select(rows, split="train")) == 4
        assert len(select(rows, domain="B")) == 3
        assert len(select(rows, split="test", domain="A")) == 1
        assert select(rows) == rows


class TestResize:
    def test_identity_at_same_size_is_a_copy(self):
        img = np.random.default_rng(0).random((8, 8)).astype(np.float32)
        out = bilinear_resize(img, 8)
        assert np.array_equal(out, img)
        out[0, 0] = 99
        assert img[0, 0] != 99

    def test_constant_image_stays_constant(self):
        img = np.full((16, 16), 0.37, dtype=np.float32)
        assert np.allclose(bilinear_resize(img, 64), 0.37, atol=1e-6)
        assert np.allclose(bilinear_resize(img, 8), 0.37, atol=1e-6)

    def test_downsample_2x_averages_quads(self):
        """With half-pixel centers, 2x downsampling lands every source
        coordinate exactly between two pixels, so each output value is the
        mean of a 2x2 block."""
        rng = np.random.default_rng(3)
        img = rng.random((8, 8)).astype(np.float32)
        out = bilinear_resize(img, 4)
        ref = img.reshape(4, 2, 4, 2).mean(axis=(1, 3))
        assert np.allclose(out, ref, atol=1e-6)

    def test_rejects_non_square(self):
        with pytest.raises(DataError, match="square"):
            bilinear_resize(np.zeros((4, 6), dtype=np.float32), 8)

    def test_nearest_preserves_binary_values(self):
        rng = np.random.default_rng(1)
        msk = (rng.random((16, 16)) > 0.5).astype(np.float32)
        up = nearest_resize(msk, 32)
        assert set(np.unique(up)) <= {0.0, 1.0}
        assert np.array_equal(up[::2, ::2], msk)

    def test_make_views_shapes(self):
        img = np.random.default_rng(2).random((16, 16)).astype(np.float32)
        x_c, x_s = make_views(img, TINY)
        assert x_c.shape == (1, 1, 8, 8)
        assert x_s.shape == (1, 1, 32, 32)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    samples = generate_dataset(root, seed=5, n_train=4, n_val=2,
                               n_test=3, size=24, paired=True)
    return root, samples


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    model = build_model(TINY, seed=4)
    # nudge the weights away from init so equality checks mean something
    rng = np.random.default_rng(9)
    for _, p in model.named_params():
        p.data = p.data + rng.normal(0.0, 0.01, size=p.shape).astype(np.float32)
    root = tmp_path_factory.mktemp("ckpt") / "step"
    save_checkpoint(model, root, epoch=3, seed=4)
    return model, str(root)


def box3_reference(img):
    """Per-pixel 3x3 mean with mirrored indices, rows then columns, in
    float64 rounded to float32 after each pass."""
    def mirror(i, n):
        return -i - 1 if i < 0 else 2 * n - i - 1 if i >= n else i

    def one_pass(a):
        out = np.empty_like(a)
        n = a.shape[0]
        for i in range(n):
            for j in range(a.shape[1]):
                p, q, r = (float(a[mirror(k, n), j]) for k in (i - 1, i, i + 1))
                out[i, j] = np.float32(((p + q) + r) / 3.0)
        return out

    return one_pass(one_pass(img).T).T


class TestBoxFilter:
    @pytest.mark.parametrize("size", [3, 16, 17, 64])
    def test_matches_the_per_pixel_reference(self, size):
        rng = np.random.default_rng(size)
        img = (rng.uniform(0.0, 1.0, (size, size))
               * rng.rayleigh(0.8, (size, size))).astype(np.float32)
        out = _box3(img)
        assert out.dtype == np.float32 and out.flags.c_contiguous
        assert np.array_equal(out, box3_reference(img))

    def test_constant_image_is_a_fixed_point(self):
        img = np.full((5, 5), 0.25, dtype=np.float32)
        assert np.array_equal(_box3(img), img)


class TestGeneration:
    def test_split_counts_are_exact(self, corpus):
        _, samples = corpus
        counts = {sp: len(select(samples, split=sp))
                  for sp in ("train", "val", "test")}
        assert counts == {"train": 8, "val": 4, "test": 6}

    def test_classes_cycle_over_geometries(self, corpus):
        _, samples = corpus
        by_geom = {}
        for s in samples:
            by_geom.setdefault(s.id.rsplit("_", 1)[0], set()).add(s.cls)
        assert len(by_geom) == 9
        assert all(len(v) == 1 for v in by_geom.values())
        per_class = [s.cls for s in samples]
        assert per_class.count("cystic") == 6
        assert per_class.count("solid") == 6
        assert per_class.count("mixed") == 6

    def test_paired_twins_share_masks_not_images(self, corpus):
        root, samples = corpus
        by_geom = {}
        for s in samples:
            by_geom.setdefault(s.id.rsplit("_", 1)[0], []).append(s)
        for twins in by_geom.values():
            assert sorted(t.domain for t in twins) == ["A", "B"]
            a, b = sorted(twins, key=lambda t: t.domain)
            ma = read_pgm(os.path.join(root, a.mask))
            mb = read_pgm(os.path.join(root, b.mask))
            assert np.array_equal(ma, mb)
            ia = read_pgm(os.path.join(root, a.image))
            ib = read_pgm(os.path.join(root, b.image))
            assert not np.array_equal(ia, ib)

    def test_loaded_values_in_range(self, corpus):
        root, samples = corpus
        img, msk = load_sample(root, samples[0])
        assert img.dtype == np.float32 and msk.dtype == np.float32
        assert 0.0 <= img.min() and img.max() <= 1.0
        assert set(np.unique(msk)) <= {0.0, 1.0}
        assert msk.sum() > 0

    def test_lesion_polarity_differs_between_domains(self, corpus):
        """Domain A renders lesions darker than their background, B
        brighter; the contrast gap is what makes transfer hard."""
        root, samples = corpus
        for s in samples:
            img, msk = load_sample(root, s)
            inside = img[msk == 1.0].mean()
            outside = img[msk == 0.0].mean()
            if s.domain == "A":
                assert inside < outside
            else:
                assert inside > outside

    def test_regeneration_is_byte_identical(self, corpus, tmp_path):
        root, _ = corpus
        again = tmp_path / "again"
        generate_dataset(again, seed=5, n_train=4, n_val=2, n_test=3,
                         size=24, paired=True)
        assert _tree_digest(again) == _tree_digest(root)

    def test_unpaired_alternates_domains(self, tmp_path):
        samples = generate_dataset(tmp_path / "solo", seed=1, n_train=4,
                                   n_val=0, n_test=0, size=16)
        assert [s.domain for s in samples] == ["A", "B", "A", "B"]

    def test_rejects_tiny_size_and_bad_domain(self, tmp_path):
        with pytest.raises(DataError, match="too small"):
            generate_dataset(tmp_path / "x", seed=0, n_train=1, n_val=0,
                             n_test=0, size=8)
        with pytest.raises(DataError, match="unknown domain"):
            generate_dataset(tmp_path / "y", seed=0, n_train=1, n_val=0,
                             n_test=0, size=16, domains=("A", "Q"))

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_rejects_a_negative_split_count(self, tmp_path, split):
        counts = {"n_train": 2, "n_val": 2, "n_test": 2, f"n_{split}": -3}
        with pytest.raises(DataError, match=f"{split} sample count must be >= 0, got -3"):
            generate_dataset(tmp_path / "z", seed=0, size=16, **counts)
        assert not (tmp_path / "z").exists()

    def test_mask_survives_a_bad_mask_file(self, corpus):
        root, samples = corpus
        s = samples[0]
        victim = os.path.join(root, "masks", "tampered.pgm")
        write_pgm(victim, np.full((24, 24), 7, dtype=np.uint8))
        bad = Sample(id="t", image=s.image, mask="masks/tampered.pgm",
                     cls="cystic", domain="A", split="train")
        with pytest.raises(DataError, match="0/255"):
            load_sample(root, bad)


def _first(meta):
    return sorted(meta["tensors"])[0]


def _outside_file(meta, ckpt):
    """Point the first tensor at a copy of its own weights one level up."""
    entry = meta["tensors"][_first(meta)]
    shutil.copy(ckpt / entry["file"], ckpt.parent / "w.bin")
    entry["file"] = "../w.bin"


class TestCheckpoints:
    def _tampered(self, saved, tmp_path, mutate):
        _, src = saved
        dst = tmp_path / "t"
        shutil.copytree(src, dst)
        meta_path = dst / "meta.json"
        meta = json.loads(meta_path.read_text())
        mutate(meta, dst)
        meta_path.write_text(json.dumps(meta))
        return dst

    def test_round_trip_is_bitwise(self, saved):
        model, root = saved
        back, meta = load_checkpoint(root)
        assert meta["epoch"] == 3 and meta["seed"] == 4
        orig = dict(model.named_params())
        for name, p in back.named_params():
            assert p.data.tobytes() == orig[name].data.tobytes(), name

    def test_forward_agrees_after_reload(self, saved):
        model, root = saved
        back, _ = load_checkpoint(root)
        rng = np.random.default_rng(0)
        img = rng.random((16, 16)).astype(np.float32)
        x_c, x_s = make_views(img, TINY)
        from braidseg.tensor import Tensor
        a = model.forward(Tensor(x_c), Tensor(x_s)).data
        b = back.forward(Tensor(x_c), Tensor(x_s)).data
        assert a.tobytes() == b.tobytes()

    def test_missing_meta(self, tmp_path):
        with pytest.raises(DataError, match="meta.json"):
            load_checkpoint(tmp_path)

    def test_invalid_meta_json(self, tmp_path):
        (tmp_path / "meta.json").write_text("{ not json")
        with pytest.raises(DataError, match="invalid JSON"):
            load_checkpoint(tmp_path)

    def test_meta_not_an_object(self, tmp_path):
        (tmp_path / "meta.json").write_text("[1, 2]")
        with pytest.raises(DataError, match="not a JSON object"):
            load_checkpoint(tmp_path)

    def test_meta_without_config(self, saved, tmp_path):
        dst = self._tampered(saved, tmp_path, lambda m, d: m.pop("config"))
        with pytest.raises(DataError, match="no model config"):
            load_checkpoint(dst)

    def test_version_mismatch(self, saved, tmp_path):
        dst = self._tampered(saved, tmp_path,
                             lambda m, d: m.update(format_version="bogus"))
        with pytest.raises(DataError, match="format version"):
            load_checkpoint(dst)

    def test_missing_tensor_entry(self, saved, tmp_path):
        def mutate(m, d):
            name = sorted(m["tensors"])[0]
            del m["tensors"][name]
        dst = self._tampered(saved, tmp_path, mutate)
        with pytest.raises(DataError, match="misses tensor"):
            load_checkpoint(dst)

    def test_shape_mismatch_names_the_tensor(self, saved, tmp_path):
        def mutate(m, d):
            name = sorted(m["tensors"])[0]
            m["tensors"][name]["shape"] = [1, 1, 1]
            mutate.name = name
        dst = self._tampered(saved, tmp_path, mutate)
        with pytest.raises(DataError, match=mutate.name):
            load_checkpoint(dst)

    def test_missing_weight_file(self, saved, tmp_path):
        def mutate(m, d):
            name = sorted(m["tensors"])[0]
            os.remove(d / m["tensors"][name]["file"])
        dst = self._tampered(saved, tmp_path, mutate)
        with pytest.raises(DataError, match="is missing"):
            load_checkpoint(dst)

    def test_truncated_weight_file(self, saved, tmp_path):
        def mutate(m, d):
            name = sorted(m["tensors"])[0]
            path = d / m["tensors"][name]["file"]
            path.write_bytes(path.read_bytes()[:-4])
        dst = self._tampered(saved, tmp_path, mutate)
        with pytest.raises(DataError, match="values"):
            load_checkpoint(dst)

    def test_extra_tensor_rejected(self, saved, tmp_path):
        def mutate(m, d):
            (d / "ghost.bin").write_bytes(b"\x00" * 4)
            m["tensors"]["ghost"] = {"file": "ghost.bin", "shape": [1]}
        dst = self._tampered(saved, tmp_path, mutate)
        with pytest.raises(DataError, match="unknown to the model"):
            load_checkpoint(dst)

    @pytest.mark.parametrize("edit,detail", [
        (lambda m, d: m["tensors"].update({_first(m): 5}), "bare file name"),
        (lambda m, d: m["tensors"][_first(m)].pop("shape"), "bare file name"),
        (lambda m, d: m["tensors"][_first(m)].pop("file"), "bare file name"),
        (lambda m, d: m["tensors"][_first(m)].update(shape=3), "bare file name"),
        (lambda m, d: m["tensors"][_first(m)].update(shape=[2.0]), "bare file name"),
        (lambda m, d: m.update(tensors=[]), "not a JSON object"),
        (lambda m, d: m["config"].update(C="16"), "object of ints"),
        (lambda m, d: m.update(config=[16, 8]), "object of ints"),
        (lambda m, d: m["config"].update(x_s=33), "stored model config"),
        (lambda m, d: m["config"].update(dkin_count=3), "stored model config"),
        (lambda m, d: m["config"].update(heads=0), "heads must be >= 1"),
        (_outside_file, "bare file name"),
    ], ids=["entry-5", "no-shape", "no-file", "shape-3", "float-shape", "tensors-list",
            "string-value", "config-list", "x_s-33", "cyclic", "heads-0", "file-outside"])
    def test_malformed_meta_is_a_data_error(self, saved, tmp_path, edit, detail):
        """Each entry is checked before any weight file is read: a file
        outside the checkpoint directory, even one holding valid weights,
        is never opened."""
        dst = self._tampered(saved, tmp_path, edit)
        with pytest.raises(DataError, match=detail):
            load_checkpoint(dst)
