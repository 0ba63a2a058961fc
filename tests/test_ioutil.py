"""The shared text-record reader, through the four readers built on it."""

import re

import pytest

from endofeat import data, geometry, matching

# reader, file text with one field left as {}, 1-based line of that field
_READERS = {
    "label": (data.load_label, "# note_1 ٣\n3 3 {}\n", 2),
    "pose": (geometry.load_pose_file, "# note_1 ٣\n0 1 1 0 0 0 0 0 {}\n", 2),
    "intrinsics": (geometry.load_intrinsics, "# note_1 ٣\n100 100 32 {}\n", 2),
    "features": (matching.load_features, "# note_1 ٣\nmetric L2 dim 2\n1 2 {}\n", 3),
}


@pytest.mark.parametrize("token", ["1_0", "٣", "1e1_0"])
@pytest.mark.parametrize("kind", sorted(_READERS))
def test_fields_must_be_ascii_without_underscore(tmp_path, kind, token):
    # int() and float() accept digit-group underscores and any Unicode
    # decimal digit; no writer emits either, so the reader rejects both
    load, text, line = _READERS[kind]
    path = tmp_path / "record.txt"
    if kind == "features":
        (tmp_path / "record.txt.desc").write_bytes(bytes(8))
    path.write_text(text.format("3"), encoding="utf-8")
    load(path)  # '#' lines are not checked, and the plain numeral reads
    path.write_text(text.format(token), encoding="utf-8")
    want = f"{path}:{line}: field {token!r} is not ASCII without '_'"
    with pytest.raises(ValueError, match=re.escape(want)):
        load(path)
