"""The persistence layer: entity beans with container-managed persistence.

See section 4.1 of the paper: one bean class per persistent-object type,
created and found by key through the container.  Only what ``logic/``
calls lives here; lifecycle writes are that tier's guarded statements.
"""

from repro.condorj2.beans.base import (
    BeanConsistencyError,
    BeanContainer,
    BeanNotFound,
    BeanStateError,
    EntityBean,
)
from repro.condorj2.beans.entities import (
    JobBean,
    MachineBean,
    PolicyBean,
)

__all__ = [
    "BeanConsistencyError",
    "BeanContainer",
    "BeanNotFound",
    "BeanStateError",
    "EntityBean",
    "JobBean",
    "MachineBean",
    "PolicyBean",
]
