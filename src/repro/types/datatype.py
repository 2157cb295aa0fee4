"""Declared datatypes (the schema a user writes in ``CREATE TYPE``).

The paper's baseline configurations declare datasets either *open* — only
the primary key is declared, everything else is self-describing — or
*closed* — every field is pre-declared and validated on insert (paper §2.1,
Figure 1).  A :class:`Datatype` models that declaration: a named set of
:class:`FieldDeclaration` entries, each with a type, an optional flag, and
possibly a nested datatype for object- or collection-valued fields.

Declared fields matter in three places:

* the ADM encoder omits field names for declared fields (closed part) and
  stores names inline only for undeclared fields (open part);
* the vector-based format stores a declared field's *index* instead of its
  name (paper §3.3.1, the high bit of the length entry);
* closed datatypes validate incoming records and reject violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import SchemaViolationError, TypeError_
from .typetag import TypeTag
from .values import MISSING, Missing, type_tag_of

#: Numeric tags that a declared numeric field accepts interchangeably.
_NUMERIC_TAGS = {
    TypeTag.INT8, TypeTag.INT16, TypeTag.INT32, TypeTag.INT64,
    TypeTag.FLOAT, TypeTag.DOUBLE,
}


@dataclass(frozen=True)
class FieldDeclaration:
    """One declared field of a datatype."""

    name: str
    type_tag: TypeTag
    optional: bool = False
    #: For OBJECT-typed fields: the nested datatype describing the object.
    nested: Optional["Datatype"] = None
    #: For ARRAY/MULTISET-typed fields: the item type tag (ANY if unknown)
    #: and, when items are objects, their nested datatype.
    item_type: Optional[TypeTag] = None
    item_nested: Optional["Datatype"] = None


@dataclass(frozen=True)
class Datatype:
    """A named record type declaration (open or closed)."""

    name: str
    fields: Tuple[FieldDeclaration, ...] = ()
    is_open: bool = True

    @classmethod
    def open_type(cls, name: str, fields: Sequence[FieldDeclaration] = ()) -> "Datatype":
        return cls(name=name, fields=tuple(fields), is_open=True)

    @classmethod
    def closed_type(cls, name: str, fields: Sequence[FieldDeclaration]) -> "Datatype":
        return cls(name=name, fields=tuple(fields), is_open=False)

    def __post_init__(self) -> None:
        names = frozenset(declaration.name for declaration in self.fields)
        if len(names) != len(self.fields):
            raise TypeError_(f"datatype {self.name!r} declares duplicate field names")
        #: The declared field names, for membership tests (not a dataclass field).
        object.__setattr__(self, "name_set", names)
        #: The declared field names by index — what a declared-field entry of
        #: a vector-based record names, and so part of an extraction plan's key.
        object.__setattr__(self, "name_order",
                           tuple(declaration.name for declaration in self.fields))
        object.__setattr__(self, "_positions", {
            declaration.name: index for index, declaration in enumerate(self.fields)})

    # -- lookups -----------------------------------------------------------

    @property
    def declared_names(self) -> List[str]:
        return [declaration.name for declaration in self.fields]

    def declaration_of(self, field_name: str) -> Optional[FieldDeclaration]:
        for declaration in self.fields:
            if declaration.name == field_name:
                return declaration
        return None

    def index_of(self, field_name: str) -> Optional[int]:
        """Index of a declared field, as served by the metadata node."""
        return self._positions.get(field_name)

    def is_declared(self, field_name: str) -> bool:
        return field_name in self.name_set

    # -- validation ----------------------------------------------------------

    def validate(self, record: Dict[str, Any]) -> None:
        """Check a record against this declaration.

        Raises :class:`SchemaViolationError` when a non-optional declared
        field is missing, a declared field has an incompatible type, or —
        for closed datatypes — the record carries undeclared fields.
        AsterixDB enforces exactly these constraints on insert (paper §2.1).
        """
        if not isinstance(record, dict):
            raise SchemaViolationError(f"expected an object for type {self.name!r}")
        if not self.is_open:
            extra = set(record) - self.name_set
            if extra:
                raise SchemaViolationError(
                    f"closed type {self.name!r} does not allow undeclared fields {sorted(extra)!r}"
                )
        for declaration in self.fields:
            present = declaration.name in record and not isinstance(record[declaration.name], Missing)
            if not present:
                if declaration.optional:
                    continue
                raise SchemaViolationError(
                    f"record is missing non-optional declared field {declaration.name!r} "
                    f"of type {self.name!r}"
                )
            self._validate_field(declaration, record[declaration.name])

    def validate_field(self, field_name: str, value: Any) -> None:
        """Check one value against its field's declaration, as :meth:`validate`
        does inside a record; an undeclared field admits anything."""
        position = self._positions.get(field_name)
        if position is not None:
            self._validate_field(self.fields[position], value)

    def _validate_field(self, declaration: FieldDeclaration, value: Any) -> None:
        if value is None:
            if declaration.optional:
                return
            raise SchemaViolationError(
                f"declared field {declaration.name!r} is not optional but was null"
            )
        actual = type_tag_of(value)
        expected = declaration.type_tag
        if expected is TypeTag.ANY:
            return
        if actual is not expected and not (expected in _NUMERIC_TAGS and actual in _NUMERIC_TAGS):
            raise SchemaViolationError(
                f"declared field {declaration.name!r} expects {expected.name}, got {actual.name}"
            )
        if expected is TypeTag.OBJECT and declaration.nested is not None:
            declaration.nested.validate(value)
        if expected in (TypeTag.ARRAY, TypeTag.MULTISET) and declaration.item_type is not None:
            for item in value:
                item_tag = type_tag_of(item)
                if declaration.item_type is TypeTag.ANY:
                    continue
                if item_tag is not declaration.item_type and not (
                    declaration.item_type in _NUMERIC_TAGS and item_tag in _NUMERIC_TAGS
                ):
                    raise SchemaViolationError(
                        f"items of declared field {declaration.name!r} expect "
                        f"{declaration.item_type.name}, got {item_tag.name}"
                    )
                if item_tag is TypeTag.OBJECT and declaration.item_nested is not None:
                    declaration.item_nested.validate(item)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_records(cls, name: str, records: Sequence[Dict[str, Any]], is_open: bool = True,
                     primary_key: Optional[str] = None) -> "Datatype":
        """Derive a declaration from a sample of records.

        Fields observed with more than one type across the sample are
        declared as optional ``ANY`` — the paper notes that AsterixDB has no
        declared union type, so its *closed* experiment configuration "could
        only pre-declare the fields with homogeneous types" (§4.1); this
        constructor automates exactly that rule.  Fields absent from some
        records are declared optional.
        """
        field_values: Dict[str, List[Any]] = {}
        present_counts: Dict[str, int] = {}
        total = 0
        for record in records:
            total += 1
            for field_name, value in record.items():
                if isinstance(value, Missing):
                    continue
                field_values.setdefault(field_name, []).append(value)
                present_counts[field_name] = present_counts.get(field_name, 0) + 1
        declarations: List[FieldDeclaration] = []
        for field_name, values in field_values.items():
            optional = field_name != primary_key and present_counts[field_name] < total
            declarations.append(_declare_from_values(field_name, values, optional=optional))
        return cls(name=name, fields=tuple(declarations), is_open=is_open)

    @classmethod
    def from_example(cls, name: str, record: Dict[str, Any], is_open: bool = False,
                     primary_key: Optional[str] = None) -> "Datatype":
        """Derive a declaration from an example record.

        The experiments' *closed* configurations pre-declare every field of
        the generated datasets; building the declaration from a generator's
        template record keeps that in sync with the data automatically.
        Fields whose example value is ``None`` are declared optional with
        type ANY.
        """
        declarations: List[FieldDeclaration] = []
        for field_name, value in record.items():
            declarations.append(_declare_from_value(field_name, value, optional=field_name != primary_key))
        return cls(name=name, fields=tuple(declarations), is_open=is_open)


def _declare_from_values(field_name: str, values: List[Any], optional: bool) -> FieldDeclaration:
    """Declare one field from every non-missing value observed for it."""
    non_null = [value for value in values if value is not None and not isinstance(value, Missing)]
    if not non_null:
        return FieldDeclaration(field_name, TypeTag.ANY, optional=True)
    tags = {type_tag_of(value) for value in non_null}
    if len(tags) > 1:
        # Heterogeneous across the sample: leave it undeclared-typed (ANY).
        return FieldDeclaration(field_name, TypeTag.ANY, optional=True)
    optional = optional or len(non_null) < len(values)
    tag = tags.pop()
    if tag is TypeTag.OBJECT:
        nested = Datatype.from_records(f"{field_name}_type", non_null, is_open=True)
        return FieldDeclaration(field_name, tag, optional=optional, nested=nested)
    if tag in (TypeTag.ARRAY, TypeTag.MULTISET):
        items: List[Any] = []
        for value in non_null:
            items.extend(value.items if hasattr(value, "items") and not isinstance(value, dict) else value)
        items = [item for item in items if item is not None and not isinstance(item, Missing)]
        if not items:
            return FieldDeclaration(field_name, tag, optional=optional, item_type=TypeTag.ANY)
        item_tags = {type_tag_of(item) for item in items}
        if len(item_tags) > 1:
            return FieldDeclaration(field_name, tag, optional=optional, item_type=TypeTag.ANY)
        item_tag = item_tags.pop()
        item_nested = None
        if item_tag is TypeTag.OBJECT:
            item_nested = Datatype.from_records(f"{field_name}_item_type", items, is_open=True)
        return FieldDeclaration(field_name, tag, optional=optional,
                                item_type=item_tag, item_nested=item_nested)
    return FieldDeclaration(field_name, tag, optional=optional)


def _declare_from_value(field_name: str, value: Any, optional: bool) -> FieldDeclaration:
    if value is None or isinstance(value, Missing):
        return FieldDeclaration(field_name, TypeTag.ANY, optional=True)
    tag = type_tag_of(value)
    if tag is TypeTag.OBJECT:
        nested = Datatype.from_example(f"{field_name}_type", value, is_open=False)
        return FieldDeclaration(field_name, tag, optional=optional, nested=nested)
    if tag in (TypeTag.ARRAY, TypeTag.MULTISET):
        items = list(value)
        if not items:
            return FieldDeclaration(field_name, tag, optional=optional, item_type=TypeTag.ANY)
        item_tags = {type_tag_of(item) for item in items}
        if len(item_tags) > 1:
            return FieldDeclaration(field_name, tag, optional=optional, item_type=TypeTag.ANY)
        item_tag = item_tags.pop()
        item_nested = None
        if item_tag is TypeTag.OBJECT:
            item_nested = Datatype.from_example(f"{field_name}_item_type", items[0], is_open=False)
        return FieldDeclaration(field_name, tag, optional=optional,
                                item_type=item_tag, item_nested=item_nested)
    return FieldDeclaration(field_name, tag, optional=optional)


#: A permissive datatype declaring nothing: the paper's "open" setting where
#: only the primary key is known (the key itself is validated by the dataset).
def open_only_primary_key(name: str, primary_key: str = "id",
                          key_type: TypeTag = TypeTag.INT64) -> Datatype:
    """Build the ``CREATE TYPE X AS OPEN { id: int }`` declaration of Figure 8."""
    return Datatype.open_type(name, [FieldDeclaration(primary_key, key_type, optional=False)])
