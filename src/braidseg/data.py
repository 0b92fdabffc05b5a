"""Synthetic two-domain lesion phantoms, dataset files, and checkpoints.

Each phantom is a star-shaped lesion on a tissue background. The boundary
radius is r(theta) = r0 * (1 + sum_k a_k sin(k theta + phi_k)) for
k = 1..4 with a_k ~ U(0, 0.15) and r0 ~ U(0.15 S, 0.30 S); the center is
drawn so the whole lesion stays inside the image. The class sets the
interior: cystic (dark uniform), solid (bright textured), mixed (half of
each, split by a random line through the center).

Domain A renders an ultrasound-like appearance: multiplicative Rayleigh
speckle followed by a 3x3 blur, lesion hypointense. Domain B renders a
smooth polynomial bias field plus additive Gaussian noise, lesion
hyperintense. Paired mode renders the same geometry (identical mask)
under both, isolating appearance shift.

On disk a dataset is 8-bit binary PGM images and {0,255} masks plus a
JSON-lines manifest (id, image, mask, class, domain, split). Splits are
assigned at geometry granularity by ordering geometry ids by a CRC32
hash, then cutting at the requested counts, so twins always share a
split and counts are exact.

A checkpoint is a directory: meta.json (format version, model config,
epoch, seed, tensor table) plus one little-endian float32 row-major .bin
per named parameter. Loading validates the version and every tensor's
presence, shape and byte count, naming the offender on mismatch.

Every input file is opened by one reader, _read_bytes. A missing file
raises DataError "<path> is missing"; any other OSError, or a NUL byte in
the path, raises DataError "cannot read <path>: <reason>".
"""

from __future__ import annotations

import json
import os
import reprlib
import zlib
from dataclasses import asdict, dataclass

import numpy as np

CLASSES = ("cystic", "solid", "mixed")
DOMAINS = ("A", "B")
SPLITS = ("train", "val", "test")
CHECKPOINT_VERSION = 1


class DataError(ValueError):
    """Malformed or missing dataset / checkpoint content."""


def _read_bytes(path):
    """A file's bytes: the one place an input file is opened."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        raise DataError(f"{path} is missing") from None
    except (OSError, ValueError) as e:           # ValueError: a NUL byte in the path
        raise DataError(f"cannot read {path}: {e}") from None


def _read_text(path):
    """A file's UTF-8 text, newlines translated as open() translates them."""
    try:
        text = _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _decode(text, where):
    """Parse JSON text; what the parser refuses raises DataError naming
    `where`, a too-long integer (ValueError) or deep nesting too."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise DataError(f"{where}: invalid JSON ({e})") from None


def read_json(path):
    """Parse a JSON file; any fault of the file raises DataError."""
    return _decode(_read_text(path), path)


# ---------------------------------------------------------------------
# PGM (P5) files
# ---------------------------------------------------------------------

def write_pgm(path, arr):
    arr = np.asarray(arr)
    if arr.ndim != 2 or arr.dtype != np.uint8:
        raise DataError(f"write_pgm: need a 2-d uint8 array, got {arr.shape} {arr.dtype}")
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(arr.tobytes())


def read_pgm(path):
    raw = _read_bytes(path)
    fields, pos = [], 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError(f"{path}: truncated PGM header")
        fields.append(raw[start:pos])
    pos += 1                                   # single whitespace after maxval
    if fields[0] != b"P5":
        raise DataError(f"{path}: not a binary PGM (magic {fields[0]!r})")
    try:
        w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    except ValueError:
        raise DataError(f"{path}: non-numeric PGM header {fields[1:]!r}") from None
    if w < 1 or h < 1:
        raise DataError(f"{path}: PGM extent {w}x{h} is not positive")
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval}")
    data = raw[pos:pos + w * h]
    if len(data) != w * h:
        raise DataError(f"{path}: expected {w * h} pixel bytes, found {len(data)}")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w)


# ---------------------------------------------------------------------
# samples and manifest
# ---------------------------------------------------------------------

@dataclass
class Sample:
    id: str
    image: str
    mask: str
    cls: str
    domain: str
    split: str

    def to_json(self):
        d = asdict(self)
        d["class"] = d.pop("cls")
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, line):
        """One manifest line's Sample; an error does not echo the line."""
        d = _decode(line, "manifest record")
        if not isinstance(d, dict):
            raise DataError("manifest record is not a JSON object")
        required = {"id", "image", "mask", "class", "domain", "split"}
        missing = required - set(d)
        if missing:
            raise DataError(f"manifest record missing fields {sorted(missing)}")
        for key in ("id", "image", "mask"):
            if not isinstance(d[key], str):
                raise DataError(f"manifest record field {key!r} is not a string")
        for key, allowed in (("class", CLASSES), ("domain", DOMAINS), ("split", SPLITS)):
            if d[key] not in allowed:
                raise DataError(f"manifest record: unknown {key} {reprlib.repr(d[key])}")
        return cls(id=d["id"], image=d["image"], mask=d["mask"],
                   cls=d["class"], domain=d["domain"], split=d["split"])


def save_manifest(samples, path):
    with open(path, "w") as f:
        for s in samples:
            f.write(s.to_json() + "\n")


def load_manifest(root):
    """root/manifest.jsonl's samples; a bad record's error names its line."""
    path = os.path.join(root, "manifest.jsonl")
    samples = []
    # not splitlines(): it also breaks at U+2028, which a JSON string may hold
    for n, line in enumerate(_read_text(path).split("\n"), 1):
        if line.strip():
            try:
                samples.append(Sample.from_json(line))
            except DataError as e:
                raise DataError(f"{path} line {n}: {e}") from None
    return samples


def select(samples, split=None, domain=None):
    return [s for s in samples
            if (split is None or s.split == split)
            and (domain is None or s.domain == domain)]


def load_sample(root, sample):
    """Returns (image float32 in [0,1], mask float32 in {0,1}), both [S,S]."""
    img = read_pgm(os.path.join(root, sample.image)).astype(np.float32) / 255.0
    msk = read_pgm(os.path.join(root, sample.mask))
    bad = ~np.isin(msk, (0, 255))
    if bad.any():
        raise DataError(f"{sample.mask}: mask holds values other than 0/255")
    return img, (msk == 255).astype(np.float32)


# ---------------------------------------------------------------------
# resizing (model-side views)
# ---------------------------------------------------------------------

def bilinear_resize(img, out_side):
    """Square bilinear resample, half-pixel-center convention."""
    h = img.shape[0]
    if img.shape[0] != img.shape[1]:
        raise DataError(f"bilinear_resize: need a square image, got {img.shape}")
    if h == out_side:
        return img.astype(np.float32, copy=True)
    src = (np.arange(out_side, dtype=np.float64) + 0.5) * (h / out_side) - 0.5
    src = np.clip(src, 0.0, h - 1.0)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, h - 1)
    frac = (src - lo).astype(np.float32)
    top = img[lo][:, lo] * (1 - frac)[None, :] + img[lo][:, hi] * frac[None, :]
    bot = img[hi][:, lo] * (1 - frac)[None, :] + img[hi][:, hi] * frac[None, :]
    out = top * (1 - frac)[:, None] + bot * frac[:, None]
    return out.astype(np.float32)


def nearest_resize(img, out_side):
    h = img.shape[0]
    if h == out_side:
        return img.copy()
    idx = np.minimum(((np.arange(out_side) + 0.5) * (h / out_side)).astype(np.int64), h - 1)
    return img[idx][:, idx].copy()


def make_views(image, cfg):
    """Model-side views: x_c at the native/config extent, x_s at 4x, both [1,1,·,·]."""
    x_c = bilinear_resize(image, cfg.x_c)
    x_s = bilinear_resize(image, cfg.x_s)
    return x_c[None, None], x_s[None, None]


# ---------------------------------------------------------------------
# phantom generation
# ---------------------------------------------------------------------

def _smooth_noise(rng, size):
    grid = rng.uniform(0.0, 1.0, size=(8, 8)).astype(np.float32)
    return bilinear_resize(grid, size)


def _radius(theta, r0, a, phi):
    """Boundary radius r0 * (1 + sum_k a_k sin((k+1) theta + phi_k)) at theta."""
    return r0 * (1.0 + sum(a[k] * np.sin((k + 1) * theta + phi[k]) for k in range(4)))


def _geometry(rng, size):
    """Sample (cx, cy, r0, a[4], phi[4]) with the lesion fully inside."""
    for _ in range(64):
        r0 = rng.uniform(0.15 * size, 0.30 * size)
        a = rng.uniform(0.0, 0.15, size=4)
        phi = rng.uniform(0.0, 2 * np.pi, size=4)
        theta = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
        margin = float(_radius(theta, r0, a, phi).max()) + 1.5
        if margin < size / 2:
            cx = rng.uniform(margin, size - margin)
            cy = rng.uniform(margin, size - margin)
            return cx, cy, r0, a, phi
    raise DataError(f"could not place a lesion inside a {size}px image")


def _mask_from_geometry(size, cx, cy, r0, a, phi):
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    dx, dy = xx + 0.5 - cx, yy + 0.5 - cy
    return np.hypot(dx, dy) <= _radius(np.arctan2(dy, dx), r0, a, phi)


def _interior_pattern(rng, size, cls, cx, cy):
    """Per-pixel pattern in [0,1]: 0 = cystic-like, textured 1-ish = solid-like."""
    tex = 0.5 + 0.5 * _smooth_noise(rng, size)          # [0.5, 1]
    if cls == "cystic":
        return np.zeros((size, size), dtype=np.float32)
    if cls == "solid":
        return tex
    angle = rng.uniform(0.0, np.pi)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    side = (np.cos(angle) * (xx + 0.5 - cx) + np.sin(angle) * (yy + 0.5 - cy)) >= 0
    return np.where(side, tex, 0.0).astype(np.float32)


# (background, lesion floor, lesion texture span) per domain; domain A keeps
# every lesion below the background (hypointense), B above it (hyperintense)
_DOMAIN_LEVELS = {"A": (0.58, 0.10, 0.30), "B": (0.25, 0.70, 0.20)}


def _box3(img):
    """3x3 mean of a float32 image whose edge samples are mirrored outward
    (a | a b c | c). Rows first, then columns; each pass sums in float64
    and rounds back to float32."""
    for _ in range(2):                      # each pass filters axis 0, then transposes
        p = np.concatenate((img[:1], img, img[-1:]), dtype=np.float64)
        img = (((p[:-2] + p[1:-1]) + p[2:]) / 3.0).astype(np.float32).T
    return np.ascontiguousarray(img)


def _render(rng, size, mask, pattern, domain):
    bg, floor, span = _DOMAIN_LEVELS[domain]
    scene = np.full((size, size), bg, dtype=np.float32)
    scene[mask] = floor + span * pattern[mask]
    if domain == "A":
        sigma = np.sqrt(2.0 / np.pi)                     # Rayleigh with mean 1
        speckle = rng.rayleigh(scale=sigma, size=(size, size)).astype(np.float32)
        img = _box3(scene * speckle)
    else:
        u = (np.arange(size) + 0.5) / size - 0.5
        uu, vv = np.meshgrid(u, u, indexing="xy")
        c = rng.uniform(-1.0, 1.0, size=6)
        raw = (c[0] + c[1] * uu + c[2] * vv + c[3] * uu * vv
               + c[4] * uu * uu + c[5] * vv * vv)
        bias = 0.12 * raw / max(np.abs(raw).max(), 1e-9)
        img = scene + bias.astype(np.float32) + rng.normal(0.0, 0.03, size=(size, size)).astype(np.float32)
    return np.clip(img, 0.0, 1.0)


def generate_dataset(out_dir, seed, n_train, n_val, n_test, size=64,
                     domains=DOMAINS, paired=False):
    """Write images/, masks/ and manifest.jsonl; returns the sample list.

    Deterministic in every byte for a given argument tuple: geometry,
    textures and noise all come from per-geometry child seeds.
    """
    if size < 16:
        raise DataError(f"image size {size} too small for a sensible lesion")
    for d in domains:
        if d not in DOMAINS:
            raise DataError(f"unknown domain {d!r} (have {DOMAINS})")
    if not domains or len(set(domains)) != len(domains):
        raise DataError(f"domain list must be non-empty and without repeats, got {list(domains)}")
    for split, n in (("train", n_train), ("val", n_val), ("test", n_test)):
        if n < 0:
            raise DataError(f"{split} sample count must be >= 0, got {n}")
    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "masks"), exist_ok=True)

    n_geom = n_train + n_val + n_test
    geom_ids = []
    for gidx in range(n_geom):
        cls = CLASSES[gidx % len(CLASSES)]
        geom_ids.append((f"{cls}_{gidx:04d}", gidx, cls))

    order = sorted(geom_ids, key=lambda t: (zlib.crc32(t[0].encode()), t[1]))
    split_of = {}
    for pos, (gid, _, _) in enumerate(order):
        split_of[gid] = ("train" if pos < n_train
                         else "val" if pos < n_train + n_val else "test")

    samples = []
    for gid, gidx, cls in geom_ids:
        grng = np.random.default_rng(np.random.SeedSequence([int(seed), gidx]))
        cx, cy, r0, a, phi = _geometry(grng, size)
        mask = _mask_from_geometry(size, cx, cy, r0, a, phi)
        pattern = _interior_pattern(grng, size, cls, cx, cy)
        mask_u8 = np.where(mask, 255, 0).astype(np.uint8)

        rendered = domains if paired else (domains[gidx % len(domains)],)
        for dom in rendered:
            rrng = np.random.default_rng(
                np.random.SeedSequence([int(seed), gidx, ord(dom)]))
            img = _render(rrng, size, mask, pattern, dom)
            sid = f"{gid}_{dom}"
            rel_img = os.path.join("images", sid + ".pgm")
            rel_msk = os.path.join("masks", sid + ".pgm")
            write_pgm(os.path.join(out_dir, rel_img),
                      np.round(img * 255.0).astype(np.uint8))
            write_pgm(os.path.join(out_dir, rel_msk), mask_u8)
            samples.append(Sample(id=sid, image=rel_img, mask=rel_msk,
                                  cls=cls, domain=dom, split=split_of[gid]))

    save_manifest(samples, os.path.join(out_dir, "manifest.jsonl"))
    return samples


# ---------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------

def save_checkpoint(model, out_dir, epoch, seed):
    os.makedirs(out_dir, exist_ok=True)
    tensors = {}
    for name, p in model.named_params():
        fname = name + ".bin"
        arr = np.ascontiguousarray(p.data, dtype="<f4")
        with open(os.path.join(out_dir, fname), "wb") as f:
            f.write(arr.tobytes())
        tensors[name] = {"file": fname, "shape": list(p.shape)}
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.cfg),
        "epoch": int(epoch),
        "seed": int(seed),
        "tensors": tensors,
    }
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump(meta, f, sort_keys=True, indent=1)
        f.write("\n")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _valid_entry(entry):
    """A checkpoint tensor entry: a file in the checkpoint directory itself
    and a shape that is a list of ints."""
    if not isinstance(entry, dict):
        return False
    file, shape = entry.get("file"), entry.get("shape")
    return (isinstance(file, str) and os.path.basename(file) == file
            and file not in ("", ".", "..") and "\0" not in file
            and isinstance(shape, list) and all(_is_int(n) for n in shape))


def load_checkpoint(ckpt_dir):
    """Rebuild the model from a checkpoint directory -> (model, meta).

    The model is built from the stored config, and every stored shape must
    match it (a mismatch raises naming the offending tensor). Every tensor
    entry is checked before any weight file is read, and a malformed entry
    or stored config raises DataError.
    """
    from .model import BraidNet, ModelConfig

    meta_path = os.path.join(ckpt_dir, "meta.json")
    meta = read_json(meta_path)
    if not isinstance(meta, dict):
        raise DataError(f"{meta_path}: not a JSON object")
    version = meta.get("format_version")
    if not (_is_int(version) and version == CHECKPOINT_VERSION):
        raise DataError(
            f"{ckpt_dir}: checkpoint format version {version!r}, "
            f"this build reads {CHECKPOINT_VERSION}")
    stored = meta.get("tensors", {})
    if not isinstance(stored, dict):
        raise DataError(f"{meta_path}: \"tensors\" is not a JSON object")
    for name, entry in stored.items():
        if not _valid_entry(entry):
            raise DataError(
                f"{meta_path}: tensor {name!r} needs a bare file name and a "
                f"list of ints as shape, got {entry!r}")
    if "config" not in meta:
        raise DataError(f"{meta_path}: no model config")
    try:
        model = BraidNet(ModelConfig.from_dict(meta["config"]))
    except ValueError as e:           # wrong types, unknown keys, invalid or cyclic
        raise DataError(f"{meta_path}: stored model config: {e}") from None

    for name, p in model.named_params():
        entry = stored.get(name)
        if entry is None:
            raise DataError(f"checkpoint misses tensor {name!r} required by the model config")
        if tuple(entry["shape"]) != p.shape:
            raise DataError(
                f"checkpoint tensor {name!r}: stored shape {tuple(entry['shape'])} "
                f"!= model shape {p.shape}")
        try:
            raw = _read_bytes(os.path.join(ckpt_dir, entry["file"]))
        except DataError as e:
            raise DataError(f"checkpoint tensor {name!r}: {e}") from None
        if len(raw) != 4 * p.size:
            raise DataError(f"checkpoint tensor {name!r}: file holds {len(raw)} bytes, "
                            f"expected {4 * p.size} for {p.size} float32 values")
        p.data[...] = np.frombuffer(raw, dtype="<f4").reshape(p.shape)
    model_names = {n for n, _ in model.named_params()}
    extra = set(stored) - model_names
    if extra:
        raise DataError(f"checkpoint holds tensors unknown to the model: {sorted(extra)[:3]}")
    return model, meta
