"""JSON serialization for every value type, with canonical ordering.

Subsets serialize as label arrays in point order; families as subset
arrays sorted by mask; pair and grade lists sorted likewise.  Canonical
output means running any operation twice over its own output is a
fixpoint, and fixed seeds give byte-identical files.

Each bulk kind has one writer, ``<kind>_text``, which returns the file
text joined from canonical JSON fragments kept per space and per
lattice, so only the small parts go through the encoder.  The dict that
other payloads embed, ``<kind>_payload``, is that text parsed back.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Any

import numpy as np

from . import crisp, fuzzy
from .capacity import LCapacity, validate_capacity
from .crisp import CrispAmbRep
from .errors import MalformedInput, ValidationError
from .fuzzy import LFuzzyAmbRep
from .hyperspace import FiniteSpace, _label_table, _mask_table, family_of, members
from .hyperencoding import TernaryHyperRelation
from .lattice import FiniteLattice, TNormTable, validate_lattice, validate_tnorm


# -- primitives ----------------------------------------------------------------

# Canonical JSON: sorted keys, no blanks, ASCII only.  Every payload is a
# tree that the writers build, so tracking cycles would be pure cost.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
# Reads the writers' own text back, without the hooks of loads: those
# guard untrusted files and run Python code once per object.
_parse = json.JSONDecoder().decode


def space_payload(space: FiniteSpace) -> list[str]:
    return list(space.points)


def space_from(payload) -> FiniteSpace:
    if not isinstance(payload, list) or not all(isinstance(p, str) for p in payload):
        raise MalformedInput("a space is a list of point labels")
    return FiniteSpace(tuple(payload))


def subset_payload(space: FiniteSpace, mask: int) -> list[str]:
    return list(space.labels(mask))


def _subset_reader(space: FiniteSpace):
    """The mask of a subset's label list, for one space, through its mask
    table: labels in point order are one lookup; anything else takes the
    checked path."""
    table = _mask_table(space)

    def read(payload) -> int:
        if not isinstance(payload, list):
            raise MalformedInput("a subset is a list of point labels")
        try:
            return table[tuple(payload)]
        except (KeyError, TypeError):
            pass
        try:
            return space.subset(payload)
        except KeyError as e:
            raise MalformedInput(str(e)) from None

    return read


def family_payload(space: FiniteSpace, family: int) -> list[list[str]]:
    names = _label_table(space)
    return [list(names[s]) for s in members(family)]


# -- canonical fragments --------------------------------------------------------------


@lru_cache(maxsize=None)
def _subset_texts(space: FiniteSpace) -> tuple[str, ...]:
    # _subset_texts(X)[m] = the JSON of subset m's label list, for every
    # mask m from 0 to X.full; [X.full] is the point list
    return tuple(_ENCODER.encode(list(labels)) for labels in _label_table(space))


@lru_cache(maxsize=None)
def _family_texts(space: FiniteSpace) -> tuple[str, ...]:
    # _family_texts(X)[f] = the JSON of family f's subset lists, for every
    # family mask: at most 128 under the encoding's three-point gate
    subsets = _subset_texts(space)
    return tuple(
        "[" + ",".join([subsets[s] for s in members(fam)]) + "]" for fam in range(1 << space.full)
    )


@lru_cache(maxsize=None)
def _element_texts(lat: FiniteLattice) -> tuple[str, ...]:
    # _element_texts(L)[g] = the JSON of element g's label
    return tuple(_ENCODER.encode(e) for e in lat.elements)


# -- lattices --------------------------------------------------------------------


def lattice_payload(lat: FiniteLattice, tnorm: TNormTable | None = None) -> dict:
    payload: dict[str, Any] = {
        "elements": list(lat.elements),
        "leq": lat.leq.tolist(),
    }
    payload["tnorm"] = (
        None
        if tnorm is None
        else [[lat.elements[k] for k in row] for row in tnorm.table.tolist()]
    )
    return payload


def _same_length(rows: list, name: str) -> None:
    # numpy would reject a ragged matrix with a bare ValueError
    if len({len(row) for row in rows}) > 1:
        raise MalformedInput(f"{name} rows must all have the same length")


def lattice_from(payload) -> tuple[FiniteLattice, TNormTable | None]:
    if not isinstance(payload, dict) or "elements" not in payload or "leq" not in payload:
        raise MalformedInput("a lattice needs 'elements' and 'leq'")
    elements, leq = payload["elements"], payload["leq"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise MalformedInput("lattice elements are a list of string labels")
    if not isinstance(leq, list) or not all(
        isinstance(row, list) and all(isinstance(x, bool) for x in row) for row in leq
    ):
        raise MalformedInput("'leq' is a matrix of JSON booleans")
    _same_length(leq, "'leq'")
    lat = validate_lattice(elements, leq)
    tn = None
    if payload.get("tnorm") is not None:
        rows = payload["tnorm"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise MalformedInput("'tnorm' is a matrix of element labels")
        _same_length(rows, "'tnorm'")
        try:
            table = [[lat.index(x) for x in row] for row in rows]
        except (KeyError, TypeError) as e:
            raise MalformedInput(f"bad tnorm table: {e}") from None
        tn = validate_tnorm(lat, table)
    return lat, tn


# -- crisp representations ---------------------------------------------------------


def crisp_rep_payload(rep: CrispAmbRep) -> dict:
    return _parse(crisp_rep_text(rep))


def crisp_rep_text(rep: CrispAmbRep) -> str:
    """The canonical file text of ``rep``, joined from fragments."""
    src, tgt = _subset_texts(rep.source), _subset_texts(rep.target)
    pairs = ",".join([f"[{src[a]},{tgt[b]}]" for a, b in rep.pairs()])
    return f'{{"pairs":[{pairs}],"source":{src[-1]},"target":{tgt[-1]}}}\n'


def crisp_rep_from(payload) -> CrispAmbRep:
    if not isinstance(payload, dict) or not {"source", "target", "pairs"} <= payload.keys():
        raise MalformedInput("a representation needs 'source', 'target' and 'pairs'")
    source = space_from(payload["source"])
    target = space_from(payload["target"])
    read_a, read_b = _subset_reader(source), _subset_reader(target)
    try:
        pairs = [(read_a(a), read_b(b)) for a, b in payload["pairs"]]
    except (TypeError, ValueError) as e:
        raise MalformedInput(f"bad pair list: {e}") from None
    seed = payload.get("seed", False)
    if not isinstance(seed, bool):
        raise MalformedInput("'seed' must be true or false")
    if seed:
        return crisp.from_seed(source, target, pairs)
    return crisp.validate(source, target, pairs)


# -- graded representations ----------------------------------------------------------


def fuzzy_rep_payload(rep: LFuzzyAmbRep, tnorm: TNormTable | None = None) -> dict:
    return _parse(fuzzy_rep_text(rep, tnorm))


def fuzzy_rep_text(rep: LFuzzyAmbRep, tnorm: TNormTable | None = None) -> str:
    """The canonical file text of ``rep`` and its t-norm, joined from fragments."""
    src, tgt = _subset_texts(rep.source), _subset_texts(rep.target)
    names = _element_texts(rep.lattice)
    # listed are all but the defaults: bottom everywhere, top on the full
    # target; nonzero keeps the row-major order (source mask, then target)
    listed = rep.grades != rep.lattice.bottom
    listed[:, -1] = False
    rows, cols = np.nonzero(listed)
    entries = zip((rows + 1).tolist(), (cols + 1).tolist(), rep.grades[rows, cols].tolist())
    grades = ",".join([f"[{src[a]},{tgt[b]},{names[g]}]" for a, b, g in entries])
    lattice = _ENCODER.encode(lattice_payload(rep.lattice, tnorm))
    return f'{{"grades":[{grades}],"lattice":{lattice},"source":{src[-1]},"target":{tgt[-1]}}}\n'


def fuzzy_rep_from(payload) -> tuple[LFuzzyAmbRep, TNormTable | None]:
    need = {"source", "target", "lattice", "grades"}
    if not isinstance(payload, dict) or not need <= payload.keys():
        raise MalformedInput("a graded representation needs 'source', 'target', 'lattice', 'grades'")
    source = space_from(payload["source"])
    target = space_from(payload["target"])
    lat, tn = lattice_from(payload["lattice"])
    table = np.full((source.full, target.full), lat.bottom, dtype=np.intp)
    table[:, target.full - 1] = lat.top
    read_a, read_b = _subset_reader(source), _subset_reader(target)
    try:
        entries = [
            (read_a(a_labels), read_b(b_labels), lat.index(g_label))
            for a_labels, b_labels, g_label in payload["grades"]
        ]
    except (TypeError, ValueError, KeyError) as e:
        raise MalformedInput(f"bad grade list: {e}") from None
    seen = set()
    for a, b, g in entries:
        if not a or not b:
            raise ValidationError(
                "BadPair",
                "grade entries pair nonempty subsets only",
                witness=[subset_payload(source, a), subset_payload(target, b)],
            )
        if (a, b) in seen:
            raise ValidationError(
                "DuplicatePair",
                "each pair of subsets may be graded only once",
                witness=[subset_payload(source, a), subset_payload(target, b)],
            )
        seen.add((a, b))
        table[a - 1, b - 1] = g
    return fuzzy.validate(source, target, lat, table), tn


def is_fuzzy_payload(payload) -> bool:
    return isinstance(payload, dict) and "grades" in payload


# -- capacities -----------------------------------------------------------------------


def capacity_payload(cap: LCapacity) -> dict:
    return {
        "space": space_payload(cap.space),
        "lattice": lattice_payload(cap.lattice),
        "values": [
            [subset_payload(cap.space, mask), cap.lattice.elements[cap(mask)]]
            for mask in range(cap.space.full + 1)
        ],
    }


def capacity_from(payload) -> LCapacity:
    need = {"space", "lattice", "values"}
    if not isinstance(payload, dict) or not need <= payload.keys():
        raise MalformedInput("a capacity needs 'space', 'lattice' and 'values'")
    sp = space_from(payload["space"])
    lat, _ = lattice_from(payload["lattice"])
    read = _subset_reader(sp)
    try:
        entries = [
            (read(labels), lat.index(g_label)) for labels, g_label in payload["values"]
        ]
    except (TypeError, ValueError, KeyError) as e:
        raise MalformedInput(f"bad value list: {e}") from None
    values = [lat.bottom] * (sp.full + 1)
    seen = set()
    for mask, g in entries:
        if mask in seen:
            raise ValidationError(
                "DuplicateSet",
                "each set may be valued only once",
                witness=subset_payload(sp, mask),
            )
        seen.add(mask)
        values[mask] = g
    return validate_capacity(sp, lat, values)


# -- ternary hyperrelations -------------------------------------------------------------


def hyper_payload(t: TernaryHyperRelation) -> dict:
    return _parse(hyper_text(t))


def hyper_text(t: TernaryHyperRelation) -> str:
    """The canonical file text of ``t``, joined from fragments."""
    fams, src, tgt = _family_texts(t.source), _subset_texts(t.source), _subset_texts(t.target)
    names = _element_texts(t.lattice)
    triples = ",".join([f"[{fams[f]},{tgt[b]},{names[g]}]" for f, b, g in t.triples()])
    lattice = _ENCODER.encode(lattice_payload(t.lattice))
    return f'{{"lattice":{lattice},"source":{src[-1]},"target":{tgt[-1]},"triples":[{triples}]}}\n'


def hyper_from(payload) -> TernaryHyperRelation:
    need = {"source", "target", "lattice", "triples"}
    if not isinstance(payload, dict) or not need <= payload.keys():
        raise MalformedInput("a hyperrelation needs 'source', 'target', 'lattice', 'triples'")
    source = space_from(payload["source"])
    target = space_from(payload["target"])
    lat, _ = lattice_from(payload["lattice"])
    read_a, read_b = _subset_reader(source), _subset_reader(target)
    try:
        entries = [
            ([read_a(a_labels) for a_labels in fam_labels], read_b(b_labels), lat.index(g_label))
            for fam_labels, b_labels, g_label in payload["triples"]
        ]
    except (TypeError, ValueError, KeyError) as e:
        raise MalformedInput(f"bad triple list: {e}") from None
    triples = []
    for sets, b, g in entries:
        if not sets or not all(sets) or not b:
            raise ValidationError(
                "BadTriple",
                "triples pair a nonempty family of nonempty subsets with a nonempty subset",
                witness=[[subset_payload(source, a) for a in sets], subset_payload(target, b)],
            )
        triples.append((family_of(sets), b, g))
    return TernaryHyperRelation.from_triples(source, target, lat, triples)


# -- files ---------------------------------------------------------------------------------


def dumps(payload) -> str:
    return _ENCODER.encode(payload) + "\n"


def _object(pairs: list) -> dict:
    # json.loads would keep the last of two equal keys and drop the first
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def _constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


_DECODER = json.JSONDecoder(object_pairs_hook=_object, parse_constant=_constant)


def loads(text: str):
    try:
        return _DECODER.decode(text)
    except (ValueError, RecursionError) as e:  # also over-long integers and deep nesting
        raise MalformedInput(f"not valid JSON: {e}") from None


def load_path(path: str):
    try:
        with open(path, encoding="utf-8") as fh:  # whatever the locale
            text = fh.read()
    except (OSError, ValueError) as e:  # ValueError: undecodable text, or NUL in the path
        raise MalformedInput(f"cannot read {path}: {e}") from None
    return loads(text)
