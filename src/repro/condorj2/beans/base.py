"""Container-managed persistence: the entity-bean base machinery.

The paper's persistence layer consists of "entity beans that represent the
persistent objects ... There is a one-to-one correspondence between entity
bean objects and tuples in the underlying database" (section 4.1).  Every
fine-grained operation a bean exposes follows the same discipline:

  a) verify the object is in a state in which the call is valid,
  b) perform the requested operation (a SQL statement), and
  c) verify the invocation did not leave the object inconsistent.

:class:`EntityBean` implements that discipline once; concrete beans declare
their table/fields and add domain operations (state transitions, policy
updates).  Beans are instantiated on demand — the paper's footnote 1 is
explicit that there need not be an in-memory bean per tuple — and the
container hands them out via finder methods.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Type, TypeVar

from repro.condorj2.database import Database, DatabaseError
from repro.condorj2.schema import TABLE_BY_NAME


class BeanStateError(DatabaseError):
    """A service call was invoked on a bean in an invalid state (rule a)."""


class BeanConsistencyError(DatabaseError):
    """A service call left a bean violating its invariants (rule c)."""


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

    # ------------------------------------------------------------------
    # container plumbing
    # ------------------------------------------------------------------
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

    def get(self, field: str, default: Any = None) -> Any:
        """Read a cached field value with a default."""
        return self._row.get(field, default)

    # ------------------------------------------------------------------
    # persistence operations (the fine-grained service vocabulary)
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Reload the tuple from the database."""
        row = self.db.query_one(
            f"SELECT * FROM {self.TABLE} WHERE {self.PK} = ?", (self.pk_value,)
        )
        if row is None:
            raise BeanNotFound(f"{self.TABLE}[{self.pk_value!r}] vanished")
        self._row = dict(row)

    def update(self, **changes: Any) -> None:
        """UPDATE the tuple, enforcing rule (c) afterwards."""
        if not changes:
            return
        unknown = set(changes) - set(self.FIELDS)
        if unknown:
            raise DatabaseError(f"unknown fields for {self.TABLE}: {sorted(unknown)}")
        # Canonical FIELDS order, not kwargs order: the same change set
        # always renders the same statement text, so it hits one
        # prepared-statement-cache entry instead of one per call-site
        # keyword ordering.
        ordered = [field for field in self.FIELDS if field in changes]
        assignments = ", ".join(f"{field} = ?" for field in ordered)
        params = [changes[field] for field in ordered] + [self.pk_value]
        self.db.execute(
            f"UPDATE {self.TABLE} SET {assignments} WHERE {self.PK} = ?", params
        )
        self._row.update(changes)
        self.check_invariants()

    def remove(self) -> None:
        """DELETE the tuple."""
        self.db.execute(
            f"DELETE FROM {self.TABLE} WHERE {self.PK} = ?", (self.pk_value,)
        )

    # ------------------------------------------------------------------
    # validation hooks
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Override to assert consistency after mutations (rule c)."""

    def require(self, condition: bool, message: str) -> None:
        """Rule (a): raise :class:`BeanStateError` unless ``condition``."""
        if not condition:
            raise BeanStateError(f"{self.TABLE}[{self.pk_value!r}]: {message}")

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

    # ------------------------------------------------------------------
    # generic CMP operations
    # ------------------------------------------------------------------
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

    def find_where(
        self,
        bean_class: Type[B],
        where: str,
        params: Sequence[Any] = (),
        order_by: str = "",
        limit: Optional[int] = None,
    ) -> List[B]:
        """Finder method: load all beans matching a WHERE clause."""
        sql = f"SELECT * FROM {bean_class.TABLE} WHERE {where}"
        if order_by:
            sql += f" ORDER BY {order_by}"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        rows = self.db.query_all(sql, params)
        self.instantiations += len(rows)
        return [bean_class(self, dict(row)) for row in rows]

    def count_where(
        self, bean_class: Type[B], where: str = "1=1", params: Sequence[Any] = ()
    ) -> int:
        """COUNT(*) matching a WHERE clause (no bean instantiation)."""
        return int(
            self.db.scalar(
                f"SELECT COUNT(*) FROM {bean_class.TABLE} WHERE {where}", params
            )
        )
