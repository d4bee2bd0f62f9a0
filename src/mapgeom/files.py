"""JSON files: one reader, one writer and one checked accessor.

Every JSON file mapgeom reads or writes goes through this module, so the
policy is decided once:

- a file holds one JSON value; object keys are written sorted and the file
  ends in one newline, so equal documents are equal bytes;
- floats are written as the shortest decimal that reads back as the same
  double, so every number round-trips exactly (non-finite floats are
  written as ``NaN`` / ``Infinity`` and read back as such);
- a file that is not JSON, or a document entry of the wrong type or shape,
  raises ``ValueError`` naming the file and the entry's key; ``true`` and
  ``false`` are never taken as numbers, and an index must be a JSON integer.

Each format keeps its own ``*_to_json`` / ``*_from_json`` next to its type
and reads every entry through :class:`Document`.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import GeometryError

def write_json(doc, path):
    """Write one JSON value: keys sorted, one trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def read_json(path, from_json):
    """Parse a JSON file and build an object from it with ``from_json``.

    Text that does not decode as JSON raises ``ValueError`` naming the
    file.  A ``ValueError`` or ``GeometryError`` raised while building the
    object is raised again, of the same type, with the file name prepended.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # a JSON or a UTF-8 decode error
            raise ValueError(f"{path}: not a JSON file: {exc}") from exc
    try:
        return from_json(doc)
    except (ValueError, GeometryError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def as_json(record) -> dict:
    """JSON dict of a dataclass or NamedTuple whose fields are arrays or scalars."""
    items = record._asdict() if hasattr(record, "_asdict") else vars(record)
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in items.items()}


def _show(value) -> str:
    text = json.dumps(value, default=repr)
    return text if len(text) <= 40 else text[:37] + "..."


class Document:
    """Checked access to the entries of one decoded JSON document.

    ``kind`` names the format in messages ("field", "config", ...).  A key
    is a dotted path into nested objects, such as ``"domain.weights"``, and
    ``None`` stands for the document itself.  ``at`` is the key of this
    document inside the one it was taken from.
    """

    def __init__(self, data, kind: str, at: str = ""):
        self.data, self.kind, self.at = data, kind, at

    def _malformed(self, at: str, problem: str) -> ValueError:
        where = f"entry {at!r}" if at else "document"
        return ValueError(f"malformed {self.kind} {where}: {problem}")

    def get(self, key=None, type_=dict, ndim=0, optional=False):
        """The entry at ``key``, checked.

        With ``ndim`` 0 the entry is one JSON value of ``type_`` (a JSON
        integer also counts as a float).  Otherwise it is an array of rank
        ``ndim`` (any rank if None) whose elements are of ``type_``, float
        or int, and it is returned as a NumPy array of that type.  A missing
        or null entry is an error unless ``optional``, which returns None.
        """
        value, at = self.data, self.at
        for part in key.split(".") if key else ():
            if not isinstance(value, dict):
                raise self._malformed(at, f"must be an object, got {_show(value)}")
            at = f"{at}.{part}" if at else part
            value = value.get(part)
        if value is None:
            if optional:
                return None
            raise self._malformed(at, "missing or null")
        allowed = (int, float) if type_ is float else (type_,)
        if ndim == 0:
            if type(value) is bool or not isinstance(value, allowed):
                raise self._malformed(at, f"must be {type_.__name__}, got {_show(value)}")
            return float(value) if type_ is float else value
        arr = np.asarray(value, dtype=object)
        types = set(map(type, arr.flat))
        wrong_rank = arr.ndim == 0 or ndim is not None and arr.ndim != ndim
        if wrong_rank or bool in types or not all(issubclass(t, allowed) for t in types):
            rank = "an array" if ndim is None else f"a rank-{ndim} array"
            numbers = "numbers" if type_ is float else "integers"
            raise self._malformed(at, f"must be {rank} of {numbers}, got {_show(value)}")
        try:
            return arr.astype(type_)
        except OverflowError:
            raise self._malformed(at, f"holds a number out of {type_.__name__} range") from None

    def each(self, key: str) -> list:
        """The items of an array entry, each as a Document of this kind."""
        at = f"{self.at}.{key}" if self.at else key
        items = self.get(key, list)
        return [Document(item, self.kind, f"{at}[{i}]") for i, item in enumerate(items)]
