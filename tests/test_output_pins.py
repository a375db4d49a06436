"""sha256 pins of the outputs that the contraction and elimination kernels
feed: fingerprints, basis changes and witness searches at every
two-operation registry point, and the CLI reports on every registry export
and iso note.  The digests were recorded before the hand-written loops in
algebra, iso, linalg and solver were replaced by the shared kernels, so any
change in a verdict, a tensor or a report shows up here.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import pytest

from adkit import catalog, cli, fileio, iso
from adkit.algebra import apply_basis_change
from adkit.scalars import format_poly, poly_parse

from conftest import random_invertible

#: Random basis changes per registry point.
BASIS_CHANGES = 2


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _registry_points():
    """Every two-operation registry entry at up to three sample points."""
    for e in catalog.entries():
        if e.kind != "antidendriform":
            continue
        values = (Fraction(0), Fraction(1), Fraction(-1)) if e.params else (
            Fraction(0),)
        for v in values:
            label = f"{e.id}@{v}" if e.params else e.id
            yield label, e.instantiate({p: v for p in e.params}, strict=False)


def _tensor_text(ad) -> list:
    return [[[format_poly(p) for p in row] for row in plane]
            for sc in (ad.rhd, ad.lhd) for plane in sc.c]


def _signed_permutation(rng: random.Random, dim: int) -> list:
    perm = list(range(dim))
    rng.shuffle(perm)
    return [[Fraction(rng.choice((1, -1))) if perm[i] == j else Fraction(0)
             for j in range(dim)] for i in range(dim)]


def _fingerprints():
    return {label: [str(c) for c in iso.fingerprint(ad).components()]
            for label, ad in _registry_points()}


def _transports():
    out = {}
    for label, ad in _registry_points():
        rng = random.Random(label)
        out[label] = [_tensor_text(apply_basis_change(ad, random_invertible(rng, ad.dim)))
                      for _ in range(BASIS_CHANGES)]
    # the parametric tables too, so Poly entries go through the transport
    for e in catalog.entries():
        if e.kind == "antidendriform" and e.params:
            rng = random.Random(e.id)
            out[e.id] = _tensor_text(apply_basis_change(
                e.tensors(), random_invertible(rng, e.dim)))
    return out


def _searches():
    out = {}
    for label, ad in _registry_points():
        rng = random.Random("search:" + label)
        copy = apply_basis_change(ad, _signed_permutation(rng, ad.dim))
        res = iso.search_witness(copy, ad, bound=2, budget=1000)
        witness = None if res.witness is None else [
            [str(c) for c in row] for row in res.witness.entries]
        out[label] = [res.status, res.examined, witness]
    return out


def _run_cli(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    report = json.loads(out.getvalue())
    return {"code": code, "status": report["status"], "results": report["results"]}


def _cli_reports(root) -> dict:
    out = {"catalog verify": _run_cli(["catalog", "verify"])}
    for e in catalog.entries():
        path = root / f"{e.id}.json"
        path.write_text(fileio.render_algebra(e.tensors()))
        out[f"verify {e.id}"] = _run_cli(["verify", path])
        out[f"analyze {e.id}"] = _run_cli(["analyze", path])
    notes = [n for e in catalog.entries() for n in e.iso_notes]
    for number, note in enumerate(notes, start=1):
        files = []
        for side, eid, subs in (("a", note.source_id, note.source_subs),
                                ("b", note.target_id, note.target_subs)):
            obj = catalog.entry(eid).tensors()
            if subs:
                obj = obj.subs({p: poly_parse(x) for p, x in subs})
            path = root / f"note{number}_{side}.json"
            path.write_text(fileio.render_algebra(obj))
            files.append(path)
        wpath = root / f"note{number}_witness.json"
        wpath.write_text(json.dumps({"dim": len(note.witness),
                                     "entries": [list(r) for r in note.witness]}))
        out[f"iso {note.note}"] = _run_cli(["iso", files[0], files[1],
                                            "--witness", wpath])
    return out


# Recorded with the hand-written contraction and elimination loops; the
# searches digest was re-recorded when the search began to solve the
# linear part of the identity, which found every one of the 57 copies.
PINNED = {
    "fingerprints": "4b80a0d89390ef76cf6c52317008389fa2947f53bb2a151e2da1ce7837d851c1",
    "transports": "7e3e5d5a57425cdbdd8396675718a0195c996b75a69e452c349e7f78a97981ee",
    "searches": "4f8ee129ac8cb4106d6e0de3dbff70dbb9feffc7ca95881d5ea2c4920ede4eda",
    "cli": "cb208a19de8664774fb8d06c6a1bbbdd24e3bd929783b7716b805b0badb1bb25",
}


def test_registry_has_the_pinned_shape():
    points = list(_registry_points())
    assert len(points) == 57
    assert sum(len(e.iso_notes) for e in catalog.entries()) == 5


@pytest.mark.parametrize("name, compute", [
    ("fingerprints", _fingerprints),
    ("transports", _transports),
    ("searches", _searches),
])
def test_registry_outputs_are_pinned(name, compute):
    assert _sha(compute()) == PINNED[name]


def test_cli_reports_are_pinned(tmp_path):
    assert _sha(_cli_reports(tmp_path)) == PINNED["cli"]
