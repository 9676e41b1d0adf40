"""Configuration management: operational values plus an audit trail.

The real CondorJ2 spends ~11,000 lines on configuration management,
"operational and historical" (section 4.2.3.1).  The data-centric essence:
policies are tuples, changes are transactions, and every change leaves an
audit record in ``config_history``, a table like every other, read with
plain SQL.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.condorj2.database import Database

_VALUE_SQL = "SELECT policy_value FROM config_policies WHERE policy_name = ?"


class ConfigService:
    """Typed access to configuration policies, auditing every change."""

    def __init__(self, db: Database):
        self.db = db

    def install_defaults(self, now: float, defaults: Dict[str, str]) -> None:
        """Create any missing default policies (scope 'pool').

        The values are the deployment's own: the CAS passes what it
        actually runs on (storage backend, scheduling interval), so the
        admin console reports the configuration in force.
        """
        self.db.executemany(
            "INSERT OR IGNORE INTO config_policies "
            "(policy_name, policy_value, scope, updated_at, updated_by) "
            "VALUES (?, ?, 'pool', ?, 'system')",
            [(name, value, now) for name, value in defaults.items()],
        )

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Current value of a policy (None/default when absent)."""
        value = self.db.scalar(_VALUE_SQL, (name,))
        return default if value is None else value

    def set(self, name: str, value: str, now: float, changed_by: str = "admin") -> None:
        """Create or change a policy, recording history on change."""
        db = self.db
        with db.transaction():
            old = db.scalar(_VALUE_SQL, (name,))
            if old is None:
                db.execute(
                    "INSERT INTO config_policies "
                    "(policy_name, policy_value, scope, updated_at, updated_by) "
                    "VALUES (?, ?, 'pool', ?, ?)",
                    (name, value, now, changed_by),
                )
            else:
                db.execute(
                    "UPDATE config_policies SET policy_value = ?, updated_at = ?, "
                    "updated_by = ? WHERE policy_name = ?",
                    (value, now, changed_by, name),
                )
            db.execute(
                "INSERT INTO config_history "
                "(policy_name, old_value, new_value, changed_at, changed_by) "
                "VALUES (?, ?, ?, ?, ?)",
                (name, old, value, now, changed_by),
            )
