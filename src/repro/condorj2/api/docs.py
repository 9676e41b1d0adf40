"""API.md generation from the contract registry.

The contract table in :mod:`repro.condorj2.api.contracts` is the single
source of truth for the service surface; this module renders it as the
repository's ``API.md`` so the reference cannot drift from the code — a
freshness test regenerates the document and asserts it matches the
committed file byte for byte.

Regenerate with::

    PYTHONPATH=src python -m repro.condorj2.api.docs > API.md
"""

from __future__ import annotations

from typing import List

from repro.condorj2.api.contracts import CONTRACTS, OperationContract
from repro.condorj2.api.faults import FAULT_CODES, FAULT_SUBCODES
from repro.condorj2.api.fields import FieldDef, SchemaDef

_HEADER = """\
# CAS web-services API reference

*Generated from `repro.condorj2.api.contracts` — do not edit by hand;
run `PYTHONPATH=src python -m repro.condorj2.api.docs > API.md` after
changing a contract.  A freshness test pins this file to the registry.*

Every operation the CondorJ2 Application Server exposes is registered as
a declarative contract: name, version, request/response schemas,
side-effect class, batchability and a routing key (the request field a
sharded deployment would partition on).  Requests ride single-op SOAP
envelopes or a multiplexed **batch envelope** (`<batch>`) carrying N
independent operations in one HTTP round-trip, answered per-op.
"""


def _kind_label(field: FieldDef) -> str:
    if field.kind == "list":
        inner = _kind_label(field.item) if field.item else "any"
        return f"list&lt;{inner}&gt;"
    if field.kind == "struct":
        return "struct"
    return field.kind


def _field_notes(field: FieldDef) -> str:
    notes = []
    if not field.required:
        if field.has_default:
            notes.append(f"default `{field.default!r}`")
        else:
            notes.append("optional")
    if field.nullable:
        notes.append("nullable")
    if field.enum:
        notes.append("one of " + ", ".join(f"`{v}`" for v in field.enum))
    return "; ".join(notes)


def _field_rows(fields, prefix: str = "") -> List[str]:
    rows = []
    for field in fields:
        name = f"{prefix}{field.name}"
        rows.append(
            f"| `{name}` | {_kind_label(field)} "
            f"| {'yes' if field.required else 'no'} "
            f"| {_field_notes(field) or '-'} |"
        )
        nested = ()
        if field.kind == "struct":
            nested = field.fields
        elif field.kind == "list" and field.item is not None \
                and field.item.kind == "struct":
            nested = field.item.fields
        if nested:
            rows.extend(_field_rows(nested, prefix=f"{name}[]."))
    return rows


def _schema_section(title: str, schema: SchemaDef) -> List[str]:
    lines = [f"**{title}** (`{schema.name}`)"]
    qualifiers = []
    if schema.nullable:
        qualifiers.append("payload may be null")
    if schema.allow_extra:
        qualifiers.append("additional row-shaped fields permitted")
    if schema.map_item is not None:
        qualifiers.append(
            f"arbitrary string keys; every value is "
            f"{_kind_label(schema.map_item)}"
        )
    if qualifiers:
        lines.append("*" + "; ".join(qualifiers) + "*")
    lines.append("")
    if schema.fields:
        lines.append("| field | type | required | notes |")
        lines.append("|---|---|---|---|")
        lines.extend(_field_rows(schema.fields))
    elif schema.map_item is None:
        lines.append("(no fields)")
    lines.append("")
    return lines


def _operation_section(contract: OperationContract) -> List[str]:
    lines = [
        f"### `{contract.name}` (v{contract.version})",
        "",
        contract.summary,
        "",
        f"- side effect: **{contract.side_effect}**",
        f"- batchable: **{'yes' if contract.batchable else 'no'}**",
        f"- routing key: "
        f"{'`' + contract.routing_key + '`' if contract.routing_key else '(shard-agnostic)'}",
        f"- statement budget: `{contract.statement_budget}`",
        "",
    ]
    lines.extend(_schema_section("Request", contract.request))
    lines.extend(_schema_section("Response", contract.response))
    return lines


def _fault_section() -> List[str]:
    lines = [
        "## Fault taxonomy",
        "",
        "Faults ride the wire as `(code, subcode, detail)`; clients",
        "dispatch on the code, never on the detail string.",
        "",
        "| code | subcode | meaning |",
        "|---|---|---|",
    ]
    for code in FAULT_CODES:
        for subcode, meaning in sorted(FAULT_SUBCODES[code].items()):
            lines.append(f"| `{code}` | `{subcode}` | {meaning} |")
    lines.append("")
    return lines


def render_api_markdown() -> str:
    """The whole API.md document, deterministically rendered."""
    lines: List[str] = [_HEADER]
    lines.append("## Operations")
    lines.append("")
    lines.append("| operation | version | side effect | batchable | routing key |")
    lines.append("|---|---|---|---|---|")
    for contract in sorted(CONTRACTS, key=lambda c: c.name):
        lines.append(
            f"| [`{contract.name}`](#{contract.name.lower()}-v"
            f"{contract.version.replace('.', '')}) "
            f"| {contract.version} | {contract.side_effect} "
            f"| {'yes' if contract.batchable else 'no'} "
            f"| {'`' + contract.routing_key + '`' if contract.routing_key else '-'} |"
        )
    lines.append("")
    for contract in sorted(CONTRACTS, key=lambda c: c.name):
        lines.extend(_operation_section(contract))
    lines.extend(_fault_section())
    return "\n".join(lines).rstrip() + "\n"


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    print(render_api_markdown(), end="")
