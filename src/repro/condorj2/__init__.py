"""CondorJ2: the paper's data-centric cluster management system.

Layers (Figure 4 of the paper):

* :mod:`repro.condorj2.schema` / :mod:`repro.condorj2.storage` /
  :mod:`repro.condorj2.database` — the RDBMS substrate: the relational
  schema, the pluggable storage engine (SQLite standing in for DB2) and
  the access-layer facade.  Together they are the paper's persistence
  layer: each entity's key, fields and states are declared once in
  ``schema``, and ``database`` scopes access and transactions.
* :mod:`repro.condorj2.logic` — the application-logic layer
  (coarse-grained services).
* :mod:`repro.condorj2.api` — the service contracts: typed, versioned
  operation specs, the structured fault taxonomy and the dispatch
  gateway (validate -> meter -> handler -> validate response).
* :mod:`repro.condorj2.web` — the external interfaces (SOAP web services
  and the pool web site).
* :mod:`repro.condorj2.cas` — the application server tying it together.
* :mod:`repro.condorj2.startd` — the pull-model execute-node client.
* :mod:`repro.condorj2.system` — a fully wired pool for experiments.
"""

from repro.condorj2.api import (
    ContractRegistry,
    OperationContract,
    ServiceFault,
    ServiceGateway,
)
from repro.condorj2.cas import CondorJ2ApplicationServer
from repro.condorj2.costs import CasCostModel
from repro.condorj2.database import Database, DatabaseError
from repro.condorj2.startd import CondorJ2Startd, StartdConfig
from repro.condorj2.storage import (
    SqliteStorageEngine,
    StatementCache,
    StatementCounts,
    StorageEngine,
)
from repro.condorj2.system import CondorJ2System, UserClient

__all__ = [
    "CasCostModel",
    "CondorJ2ApplicationServer",
    "CondorJ2Startd",
    "CondorJ2System",
    "ContractRegistry",
    "Database",
    "DatabaseError",
    "OperationContract",
    "ServiceFault",
    "ServiceGateway",
    "SqliteStorageEngine",
    "StartdConfig",
    "StatementCache",
    "StatementCounts",
    "StorageEngine",
    "UserClient",
]
