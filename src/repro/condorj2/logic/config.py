"""Configuration management: operational values plus full history.

The real CondorJ2 spends ~11,000 lines on configuration management,
"operational and historical" (section 4.2.3.1).  The data-centric essence:
policies are tuples, changes are transactions, and every change leaves an
audit record that can be queried like everything else.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.condorj2.beans import BeanContainer, PolicyBean


class ConfigService:
    """Typed access to configuration policies with change history."""

    def __init__(self, container: BeanContainer):
        self.container = container

    def install_defaults(self, now: float, defaults: Dict[str, str]) -> None:
        """Create any missing default policies (scope 'pool').

        The values are the deployment's own: the CAS passes what it
        actually runs on (storage backend, scheduling interval), so the
        admin console reports the configuration in force.
        """
        self.container.db.executemany(
            "INSERT OR IGNORE INTO config_policies "
            "(policy_name, policy_value, scope, updated_at, updated_by) "
            "VALUES (?, ?, 'pool', ?, 'system')",
            [(name, value, now) for name, value in defaults.items()],
        )

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Current value of a policy (None/default when absent)."""
        bean = self.container.find_optional(PolicyBean, name)
        if bean is None:
            return default
        return bean["policy_value"]

    def set(self, name: str, value: str, now: float, changed_by: str = "admin") -> None:
        """Create or change a policy, recording history on change."""
        with self.container.db.transaction():
            bean = self.container.find_optional(PolicyBean, name)
            if bean is None:
                self.container.create(
                    PolicyBean,
                    policy_name=name,
                    policy_value=value,
                    scope="pool",
                    updated_at=now,
                    updated_by=changed_by,
                )
                self.container.db.execute(
                    "INSERT INTO config_history "
                    "(policy_name, old_value, new_value, changed_at, changed_by) "
                    "VALUES (?, NULL, ?, ?, ?)",
                    (name, value, now, changed_by),
                )
            else:
                bean.change_value(value, now, changed_by)

    def history(self, name: str) -> List[Dict[str, Any]]:
        """All recorded changes for one policy, oldest first."""
        rows = self.container.db.query_all(
            "SELECT * FROM config_history WHERE policy_name = ? ORDER BY change_id",
            (name,),
        )
        return [dict(row) for row in rows]

    def value_at(self, name: str, time: float) -> Optional[str]:
        """Point-in-time reconstruction: the value in force at ``time``.

        Before a policy's first recorded change, the value in force is
        the one that change replaced: an installed default, or None for
        a policy ``set`` created (its first history row's ``old_value``
        is NULL).
        """
        db = self.container.db
        row = db.query_one(
            """
            SELECT new_value FROM config_history
            WHERE policy_name = ? AND changed_at <= ?
            ORDER BY change_id DESC LIMIT 1
            """,
            (name, time),
        )
        if row is not None:
            return row["new_value"]
        row = db.query_one(
            """
            SELECT old_value FROM config_history
            WHERE policy_name = ? AND changed_at > ?
            ORDER BY change_id LIMIT 1
            """,
            (name, time),
        )
        if row is not None:
            return row["old_value"]
        bean = self.container.find_optional(PolicyBean, name)
        if bean is not None and bean["updated_at"] <= time:
            return bean["policy_value"]
        return None
