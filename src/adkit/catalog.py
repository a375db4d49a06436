"""Machine-readable registry of the classified low-dimensional algebras.

The registry holds, as embedded data:

* the seven two-dimensional associative algebras ``As2_1`` .. ``As2_7``;
* the six three-dimensional nilpotent associative algebras ``As3_1`` .. ``As3_6``;
* the null-filiform generator ``mu0`` (one algebra per dimension n);
* the two-dimensional two-operation algebras ``AD2_1`` .. ``AD2_3``;
* the three-dimensional families ``AD3_1`` .. ``AD3_23``;
* the auxiliary one-parameter family ``AD3_nullfiliform_family`` living on
  ``As3_6``, whose members collapse onto ``AD3_1`` / ``AD3_2`` by rescaling.

Each two-operation entry records the associative algebra its operations sum
to.  For most entries the sum tensor matches that algebra's table literally;
``AD2_3`` matches only after a basis rescaling, which is recorded as an
explicit witness with its nonzero side condition and verified symbolically.

Parameter constraints (such as ``a != 0``) delimit the canonical
representative range of a family; instantiating outside them is rejected
unless explicitly forced, since the resulting table is still a valid algebra,
just a duplicate of another entry (the recorded identifications say which).

Two tables carry forced corrections, recorded here because they are the only
entries whose stored form is not the commonly quoted one:

* ``As2_6`` is stored as e1e1=e1, e1e2=e2, e2e1=e2: the two-sided action is
  what associativity permits ((e2 e1) e2 = e2 (e1 e2) both reduce to 0), and
  the variant with e2e2=e2 instead is isomorphic to ``As2_7``.
* ``AD3_16`` is stored with e2 lhd e1 = +a e3, forced by the sum constraint
  e2 e1 = 0 together with e2 rhd e1 = -a e3.

``AD3_17`` is stored under its own name even though its table fails the
defining identities, and no table of its shape can pass: with e1 rhd e1
containing e2 and the sum forcing e2e2 = e3, the laws pin e2 rhd e2 =
e2 lhd e2 = 0, contradicting e2e2 = e3.  ``verify_all`` reports the failing
triples rather than the registry silently dropping or editing the entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .algebra import (AdPair, StructureConstants, UnaryAlgebra,
                      check_antidendriform, is_associative, sum_algebra)
from .errors import ConstraintViolation, MissingAssignment, UnknownEntry
from .iso import Witness, verify_witness_tensors
from .scalars import poly_parse


@dataclass(frozen=True)
class IsoNote:
    """A stated identification between (instances of) catalog entries."""
    note: str
    source_id: str
    target_id: str
    source_subs: tuple = ()      # ((param, coeff-string), ...)
    target_subs: tuple = ()
    witness: tuple = ()          # rows of coefficient strings
    nonzero: tuple = ()          # side conditions for witness validity


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    dim: int
    kind: str                    # "associative" | "antidendriform"
    params: tuple = ()
    nonzero: tuple = ()          # coefficient expressions required nonzero
    mul: Mapping = field(default_factory=dict)
    rhd: Mapping = field(default_factory=dict)
    lhd: Mapping = field(default_factory=dict)
    associated_sum: str | None = None
    sum_witness: tuple = ()      # rescaling onto associated_sum, if not literal
    sum_witness_nonzero: tuple = ()
    iso_notes: tuple = ()
    degenerate_sums: tuple = ()  # ((param, value-string, sum-entry-id), ...)
    auxiliary: bool = False      # listed, but not counted among the families

    def tensors(self) -> UnaryAlgebra | AdPair:
        if self.kind == "associative":
            return UnaryAlgebra(
                StructureConstants.from_table(self.dim, self.mul, self.params),
                label=self.id)
        return AdPair(
            StructureConstants.from_table(self.dim, self.rhd, self.params),
            StructureConstants.from_table(self.dim, self.lhd, self.params),
            label=self.id)

    def check_assignment(self, assign: Mapping[str, Fraction]):
        missing = [p for p in self.params if p not in assign]
        if missing:
            raise MissingAssignment(
                f"{self.id} needs values for: {', '.join(missing)}")
        for expr in self.nonzero:
            if poly_parse(expr).eval(assign) == 0:
                raise ConstraintViolation(
                    f"{self.id} requires {expr} != 0")

    def instantiate(self, assign: Mapping[str, Fraction], strict: bool = True):
        if strict:
            self.check_assignment(assign)
        return self.tensors().subs({k: Fraction(v) for k, v in assign.items()})


_REGISTRY: dict[str, CatalogEntry] = {}


def _add(entry: CatalogEntry):
    if entry.id in _REGISTRY:
        raise ValueError(f"duplicate catalog id {entry.id}")
    _REGISTRY[entry.id] = entry


def _as2():
    _add(CatalogEntry("As2_1", 2, "associative", mul={}))
    _add(CatalogEntry("As2_2", 2, "associative", mul={(1, 1, 1): "1"}))
    _add(CatalogEntry("As2_3", 2, "associative", mul={(1, 1, 2): "1"}))
    _add(CatalogEntry("As2_4", 2, "associative",
                      mul={(1, 1, 1): "1", (1, 2, 2): "1"}))
    _add(CatalogEntry("As2_5", 2, "associative",
                      mul={(1, 1, 1): "1", (2, 1, 2): "1"}))
    _add(CatalogEntry("As2_6", 2, "associative",
                      mul={(1, 1, 1): "1", (1, 2, 2): "1", (2, 1, 2): "1"}))
    _add(CatalogEntry("As2_7", 2, "associative",
                      mul={(1, 1, 1): "1", (2, 2, 2): "1"}))


def _as3():
    _add(CatalogEntry("As3_1", 3, "associative", mul={}))
    _add(CatalogEntry("As3_2", 3, "associative",
                      mul={(1, 2, 3): "1", (2, 1, 3): "-1"}))
    _add(CatalogEntry("As3_3", 3, "associative", mul={(1, 1, 3): "1"}))
    _add(CatalogEntry("As3_4", 3, "associative", mul={(1, 2, 3): "1"}))
    _add(CatalogEntry("As3_5", 3, "associative", params=("l",),
                      mul={(1, 1, 3): "1", (1, 2, 3): "l", (2, 2, 3): "1"}))
    _add(CatalogEntry("As3_6", 3, "associative",
                      mul={(1, 1, 2): "1", (1, 2, 3): "1", (2, 1, 3): "1"}))


def _ad2():
    _add(CatalogEntry("AD2_1", 2, "antidendriform", rhd={}, lhd={},
                      associated_sum="As2_1"))
    _add(CatalogEntry("AD2_2", 2, "antidendriform",
                      rhd={}, lhd={(1, 1, 2): "1"}, associated_sum="As2_3"))
    _add(CatalogEntry(
        "AD2_3", 2, "antidendriform", params=("l",),
        rhd={(1, 1, 2): "1"}, lhd={(1, 1, 2): "l"},
        associated_sum="As2_3",
        sum_witness=(("1", "0"), ("0", "1+l")),
        sum_witness_nonzero=("1+l",),
        degenerate_sums=(("l", "-1", "As2_1"),)))


def _ad3():
    _add(CatalogEntry(
        "AD3_1", 3, "antidendriform",
        rhd={(1, 1, 2): "1/2", (1, 2, 3): "2", (2, 1, 3): "-1"},
        lhd={(1, 1, 2): "1/2", (1, 2, 3): "-1", (2, 1, 3): "2"},
        associated_sum="As3_6"))
    _add(CatalogEntry(
        "AD3_2", 3, "antidendriform",
        rhd={(1, 1, 2): "1/2", (1, 1, 3): "1", (1, 2, 3): "2", (2, 1, 3): "-1"},
        lhd={(1, 1, 2): "1/2", (1, 1, 3): "-1", (1, 2, 3): "-1", (2, 1, 3): "2"},
        associated_sum="As3_6"))
    _add(CatalogEntry(
        "AD3_nullfiliform_family", 3, "antidendriform", params=("a",),
        rhd={(1, 1, 2): "1/2", (1, 1, 3): "a", (1, 2, 3): "2", (2, 1, 3): "-1"},
        lhd={(1, 1, 2): "1/2", (1, 1, 3): "-a", (1, 2, 3): "-1", (2, 1, 3): "2"},
        associated_sum="As3_6", auxiliary=True,
        iso_notes=(
            IsoNote("collapses to AD3_1 at a=0",
                    "AD3_nullfiliform_family", "AD3_1",
                    source_subs=(("a", "0"),),
                    witness=(("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1"))),
            IsoNote("rescales onto AD3_2 for a != 0",
                    "AD3_nullfiliform_family", "AD3_2",
                    witness=(("a", "0", "0"), ("0", "a^2", "0"), ("0", "0", "a^3")),
                    nonzero=("a",)),
        )))
    # families on the abelian algebra
    _add(CatalogEntry("AD3_3", 3, "antidendriform", rhd={}, lhd={},
                      associated_sum="As3_1"))
    _add(CatalogEntry(
        "AD3_4", 3, "antidendriform",
        rhd={(1, 2, 3): "1", (2, 1, 3): "-1"},
        lhd={(1, 2, 3): "-1", (2, 1, 3): "1"},
        associated_sum="As3_1"))
    _add(CatalogEntry(
        "AD3_5", 3, "antidendriform",
        rhd={(1, 1, 3): "1"}, lhd={(1, 1, 3): "-1"}, associated_sum="As3_1"))
    _add(CatalogEntry(
        "AD3_6", 3, "antidendriform",
        rhd={(1, 2, 3): "1"}, lhd={(1, 2, 3): "-1"}, associated_sum="As3_1"))
    _add(CatalogEntry(
        "AD3_7", 3, "antidendriform", params=("l",),
        rhd={(1, 1, 3): "1", (1, 2, 3): "l", (2, 2, 3): "1"},
        lhd={(1, 1, 3): "-1", (1, 2, 3): "-l", (2, 2, 3): "-1"},
        associated_sum="As3_1"))
    # families on As3_2
    _add(CatalogEntry(
        "AD3_8", 3, "antidendriform", params=("a", "b"),
        rhd={(1, 1, 3): "1", (1, 2, 3): "a", (2, 1, 3): "b"},
        lhd={(1, 1, 3): "-1", (1, 2, 3): "1-a", (2, 1, 3): "-1-b"},
        associated_sum="As3_2",
        iso_notes=(IsoNote("AD3_8(a,b) ~ AD3_8(-b,-a)", "AD3_8", "AD3_8",
                           target_subs=(("a", "-b"), ("b", "-a")),
                           witness=(("1", "0", "0"), ("-a-b", "1", "0"),
                                    ("0", "0", "1"))),)))
    _add(CatalogEntry(
        "AD3_9", 3, "antidendriform", params=("a",),
        rhd={(1, 2, 3): "a", (2, 1, 3): "-a"},
        lhd={(1, 2, 3): "1-a", (2, 1, 3): "-1+a"},
        associated_sum="As3_2"))
    _add(CatalogEntry(
        "AD3_10", 3, "antidendriform",
        rhd={(1, 1, 2): "1", (2, 1, 3): "-1"},
        lhd={(1, 1, 2): "-1", (1, 2, 3): "1"},
        associated_sum="As3_2"))
    # families on As3_4
    _add(CatalogEntry(
        "AD3_11", 3, "antidendriform", params=("a", "b"),
        rhd={(1, 2, 3): "a", (2, 1, 3): "b"},
        lhd={(1, 2, 3): "1-a", (2, 1, 3): "-b"},
        associated_sum="As3_4"))
    _add(CatalogEntry(
        "AD3_12", 3, "antidendriform", params=("a", "b"),
        rhd={(1, 2, 3): "a", (2, 1, 3): "b", (2, 2, 3): "1"},
        lhd={(1, 2, 3): "1-a", (2, 1, 3): "-b", (2, 2, 3): "-1"},
        associated_sum="As3_4"))
    _add(CatalogEntry(
        "AD3_13", 3, "antidendriform", params=("a", "b", "g"),
        rhd={(1, 1, 3): "1", (1, 2, 3): "a", (2, 1, 3): "b", (2, 2, 3): "g"},
        lhd={(1, 1, 3): "-1", (1, 2, 3): "1-a", (2, 1, 3): "-b", (2, 2, 3): "-g"},
        associated_sum="As3_4"))
    _add(CatalogEntry(
        "AD3_14", 3, "antidendriform",
        rhd={(1, 1, 2): "1"},
        lhd={(1, 1, 2): "-1", (1, 2, 3): "1"},
        associated_sum="As3_4"))
    # families on As3_5
    _add(CatalogEntry(
        "AD3_15", 3, "antidendriform", params=("a", "b", "g", "l"),
        nonzero=("a",),
        rhd={(1, 1, 3): "a", (1, 2, 3): "b", (2, 1, 3): "g"},
        lhd={(1, 1, 3): "1-a", (1, 2, 3): "l-b", (2, 1, 3): "-g", (2, 2, 3): "1"},
        associated_sum="As3_5",
        iso_notes=(IsoNote("AD3_15(a,b,g,0) ~ AD3_15(a,-b,-g,0)",
                           "AD3_15", "AD3_15",
                           source_subs=(("l", "0"),),
                           target_subs=(("b", "-b"), ("g", "-g"), ("l", "0")),
                           witness=(("1", "0", "0"), ("0", "-1", "0"),
                                    ("0", "0", "1")),
                           nonzero=("a",)),)))
    _add(CatalogEntry(
        "AD3_16", 3, "antidendriform", params=("a", "l"),
        rhd={(1, 2, 3): "a", (2, 1, 3): "-a"},
        lhd={(1, 1, 3): "1", (1, 2, 3): "l-a", (2, 1, 3): "a", (2, 2, 3): "1"},
        associated_sum="As3_5"))
    _add(CatalogEntry(
        "AD3_17", 3, "antidendriform", params=("l",),
        rhd={(1, 1, 2): "1"},
        lhd={(1, 1, 2): "-1", (1, 1, 3): "1", (1, 2, 3): "l", (2, 2, 3): "1"},
        associated_sum="As3_5"))
    # families on As3_3
    _add(CatalogEntry(
        "AD3_18", 3, "antidendriform", params=("a",),
        rhd={(1, 1, 3): "a"}, lhd={(1, 1, 3): "1-a"},
        associated_sum="As3_3"))
    _add(CatalogEntry(
        "AD3_19", 3, "antidendriform",
        rhd={(2, 1, 3): "1"},
        lhd={(1, 1, 3): "1", (2, 1, 3): "-1"},
        associated_sum="As3_3"))
    _add(CatalogEntry(
        "AD3_20", 3, "antidendriform", params=("a",),
        rhd={(1, 1, 3): "a", (1, 2, 3): "1", (2, 1, 3): "-1"},
        lhd={(1, 1, 3): "1-a", (1, 2, 3): "-1", (2, 1, 3): "1"},
        associated_sum="As3_3"))
    _add(CatalogEntry(
        "AD3_21", 3, "antidendriform", params=("a",),
        nonzero=("1+a",),
        rhd={(1, 2, 3): "1", (2, 1, 3): "a"},
        lhd={(1, 1, 3): "1", (1, 2, 3): "-1", (2, 1, 3): "-a"},
        associated_sum="As3_3",
        iso_notes=(IsoNote("AD3_21(-1) ~ AD3_20(0)", "AD3_21", "AD3_20",
                           source_subs=(("a", "-1"),),
                           target_subs=(("a", "0"),),
                           witness=(("1", "0", "0"), ("0", "1", "0"),
                                    ("0", "0", "1"))),)))
    _add(CatalogEntry(
        "AD3_22", 3, "antidendriform", params=("a", "b"),
        rhd={(1, 1, 3): "a", (2, 1, 3): "b", (2, 2, 3): "1"},
        lhd={(1, 1, 3): "1-a", (2, 1, 3): "-b", (2, 2, 3): "-1"},
        associated_sum="As3_3"))
    _add(CatalogEntry(
        "AD3_23", 3, "antidendriform",
        rhd={(1, 1, 2): "1"},
        lhd={(1, 1, 2): "-1", (1, 1, 3): "1"},
        associated_sum="As3_3"))


_as2()
_as3()
_ad2()
_ad3()


def null_filiform(n: int) -> UnaryAlgebra:
    """The n-dimensional algebra e_i e_j = e_{i+j} (i + j <= n)."""
    if n < 1:
        raise ValueError("dimension must be positive")
    table = {(i, j, i + j): "1"
             for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n}
    return UnaryAlgebra(StructureConstants.from_table(n, table), label=f"mu0[{n}]")


def ids() -> tuple:
    """Entry ids in lexicographic order, plus the generator id ``mu0``."""
    return tuple(sorted(_REGISTRY)) + ("mu0",)


def entry(entry_id: str) -> CatalogEntry:
    try:
        return _REGISTRY[entry_id]
    except KeyError:
        raise UnknownEntry(f"no catalog entry {entry_id!r}") from None


def entries() -> tuple:
    return tuple(_REGISTRY[i] for i in sorted(_REGISTRY))


def get(entry_id: str, assign: Mapping[str, Fraction] | None = None,
        n: int | None = None, strict: bool = True):
    """Fetch an entry's tensors, optionally instantiated at an assignment.

    ``mu0`` takes the dimension ``n`` instead of parameters.  With
    ``strict`` (the default) an assignment must satisfy the entry's
    nonzero constraints and cover all of its parameters.
    """
    if entry_id == "mu0":
        if n is None:
            raise MissingAssignment("mu0 needs the dimension n")
        return null_filiform(n)
    e = entry(entry_id)
    if assign is None:
        return e.tensors()
    return e.instantiate(assign, strict=strict)


@dataclass(frozen=True)
class EntryReport:
    id: str
    axioms_ok: bool
    sum_ok: bool | None            # None for associative entries
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.axioms_ok and self.sum_ok is not False


def verify_entry(e: CatalogEntry) -> EntryReport:
    """Symbolic verification of one entry: its laws, and its stated sum."""
    obj = e.tensors()
    if isinstance(obj, UnaryAlgebra):
        rep = is_associative(obj)
        detail = "" if rep.ok else (
            "associativity fails on triples "
            + ", ".join(str(tuple(x + 1 for x in t)) for t, _ in rep.violations[:4]))
        return EntryReport(e.id, rep.ok, None, detail)
    rep = check_antidendriform(obj)
    detail = ""
    if not rep.ok:
        bits = []
        for name in rep.failing_identities():
            (triple, res) = rep.failures[name][0]
            bits.append(f"{name} fails at {tuple(x + 1 for x in triple)}")
        detail = "; ".join(bits)
    sum_ok = None
    if e.associated_sum is not None:
        target = entry(e.associated_sum).tensors().sc
        actual = sum_algebra(obj).sc
        if e.sum_witness:
            w = Witness.from_rows(
                [[poly_parse(c) for c in row] for row in e.sum_witness])
            wrep = verify_witness_tensors([actual], [target], w)
            sum_ok = wrep.ok
            if not wrep.ok:
                detail = (detail + "; " if detail else "") + "sum rescaling fails"
        else:
            sum_ok = actual == target
            if not sum_ok:
                detail = (detail + "; " if detail else "") + \
                    f"sum tensor differs from {e.associated_sum}"
    return EntryReport(e.id, rep.ok, sum_ok, detail)


def verify_all() -> tuple:
    """Verify every entry; the core regression surface for the registry."""
    return tuple(verify_entry(e) for e in entries())


def verify_iso_note(note: IsoNote):
    """Check a recorded identification symbolically; returns the report.

    Both sides are instantiated with the note's substitutions (which may
    leave parameters symbolic) and the recorded witness is verified
    identically in whatever parameters remain.
    """
    src = entry(note.source_id).tensors()
    tgt = entry(note.target_id).tensors()
    if note.source_subs:
        src = src.subs({p: poly_parse(expr) for p, expr in note.source_subs})
    if note.target_subs:
        tgt = tgt.subs({p: poly_parse(expr) for p, expr in note.target_subs})
    w = Witness.from_rows([[poly_parse(c) for c in row] for row in note.witness])
    return verify_witness_tensors((src.rhd, src.lhd), (tgt.rhd, tgt.lhd), w)
