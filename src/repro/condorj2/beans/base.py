"""Container-managed persistence: the entity-bean base machinery.

The paper's persistence layer consists of "entity beans that represent the
persistent objects ... There is a one-to-one correspondence between entity
bean objects and tuples in the underlying database" (section 4.1), with
footnote 1 adding that there need not be an in-memory bean per tuple.  This
layer keeps exactly what the logic tier calls: a bean class per table that
reads its key and fields from the schema declaration, a container that
creates and finds tuples by key, and the invariants :meth:`create` checks
before it hands a new bean out (the paper's rule c).

What is deliberately not here is a generic UPDATE or DELETE.  A row's
lifecycle ``state`` moves only through the guarded, constant statements of
``logic/`` — the guard is the validity check (rule a), in the statement
that performs the change — so the static analyzer reads every writer of a
lifecycle column and the bean path cannot be one.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple, Type, TypeVar

from repro.condorj2.database import Database, DatabaseError
from repro.condorj2.schema import TABLE_BY_NAME


class BeanStateError(DatabaseError):
    """A service call found its tuple in a state that forbids it (rule a)."""


class BeanConsistencyError(DatabaseError):
    """A tuple violates its bean's invariants (rule c)."""


class BeanNotFound(DatabaseError):
    """A finder failed to locate the requested tuple."""


B = TypeVar("B", bound="EntityBean")


class EntityBean:
    """Base class: one instance mirrors one tuple.

    Subclasses set ``TABLE`` and may override :meth:`check_invariants`;
    ``PK`` and ``FIELDS`` (all column names excluding the primary key)
    are read from the table's declaration in ``schema.TABLE_DEFS``.
    """

    TABLE: str = ""
    PK: str = ""
    FIELDS: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        tdef = TABLE_BY_NAME[cls.TABLE]
        (cls.PK,) = tdef.primary_key  # a bean mirrors a single-column key
        cls.FIELDS = tdef.non_key_columns

    def __init__(self, container: "BeanContainer", row: Dict[str, Any]):
        self._container = container
        self._row = dict(row)

    @property
    def db(self) -> Database:
        """The container's database handle."""
        return self._container.db

    @property
    def pk_value(self) -> Any:
        """Primary-key value of the mirrored tuple."""
        return self._row[self.PK]

    def __getitem__(self, field: str) -> Any:
        """Read a cached field value."""
        return self._row[field]

    def check_invariants(self) -> None:
        """Override to assert what SQL constraints do not (rule c)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.PK}={self.pk_value!r}>"


class BeanContainer:
    """The EJB container's persistence manager.

    Provides generic create/find operations for any registered bean class.
    Services obtain beans exclusively through this object, mirroring the
    paper's rule that "nothing besides the application logic layer
    communicates directly with the persistence layer".
    """

    def __init__(self, db: Database):
        self.db = db
        self.instantiations = 0

    def create(self, bean_class: Type[B], **fields: Any) -> B:
        """INSERT a tuple and return its bean."""
        columns = ", ".join(fields)
        placeholders = ", ".join("?" for _ in fields)
        cursor = self.db.execute(
            f"INSERT INTO {bean_class.TABLE} ({columns}) VALUES ({placeholders})",
            list(fields.values()),
        )
        pk = fields.get(bean_class.PK, cursor.lastrowid)
        bean = self.find(bean_class, pk)
        bean.check_invariants()
        return bean

    def create_batch(
        self, bean_class: Type[B], rows: Sequence[Dict[str, Any]]
    ) -> int:
        """INSERT many tuples as one batched statement; returns the count.

        No beans are instantiated — the paper's footnote 1 is explicit
        that there need not be an in-memory bean per tuple.  Rows must
        share the same field set, validated against the bean's declared
        schema; invariants that SQL constraints do not cover are the
        caller's responsibility on this path.
        """
        if not rows:
            return 0
        columns = list(rows[0])
        unknown = set(columns) - set(bean_class.FIELDS) - {bean_class.PK}
        if unknown:
            raise DatabaseError(
                f"unknown fields for {bean_class.TABLE}: {sorted(unknown)}"
            )
        for row in rows[1:]:
            if list(row) != columns:
                raise DatabaseError(
                    f"heterogeneous batch rows for {bean_class.TABLE}"
                )
        column_list = ", ".join(columns)
        placeholders = ", ".join("?" for _ in columns)
        self.db.executemany(
            f"INSERT INTO {bean_class.TABLE} ({column_list}) "  # sql-ident: bean table/fields
            f"VALUES ({placeholders})",
            [list(row.values()) for row in rows],
        )
        return len(rows)

    def find(self, bean_class: Type[B], pk: Any) -> B:
        """Load the bean for primary key ``pk`` or raise BeanNotFound."""
        row = self.db.query_one(
            f"SELECT * FROM {bean_class.TABLE} WHERE {bean_class.PK} = ?", (pk,)
        )
        if row is None:
            raise BeanNotFound(f"{bean_class.TABLE}[{pk!r}] not found")
        self.instantiations += 1
        return bean_class(self, dict(row))

    def find_optional(self, bean_class: Type[B], pk: Any) -> Optional[B]:
        """Like :meth:`find` but returns None instead of raising."""
        try:
            return self.find(bean_class, pk)
        except BeanNotFound:
            return None
