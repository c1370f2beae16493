"""Devices are built in one place: the storage hierarchy.

Every join, query pass and assumption check gets its buses, disks and
tape drives from :class:`repro.storage.hierarchy.StorageSystem`.  This
test scans the source tree and fails if a device is constructed
anywhere else.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

DEVICE_CLASSES = {"Bus", "TapeDrive", "Disk", "DiskArray"}

#: The service broker still wires its drive pool by hand.  This exception
#: goes away with the ROADMAP item "One execution model for the service",
#: which runs the service on ``StorageSystem``.
ALLOWED = {"service/broker.py"}


def device_constructions(path: pathlib.Path) -> list[str]:
    """``file:line Class`` for every device constructor call in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in DEVICE_CLASSES:
            found.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
    return found


def test_devices_are_built_only_by_the_storage_hierarchy():
    offenders = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] != "storage"
        and path.relative_to(SRC).as_posix() not in ALLOWED
        for hit in device_constructions(path)
    ]
    assert offenders == []


def test_the_scan_sees_the_storage_hierarchy():
    """Guard against a vacuous pass: the builder itself is found."""
    hits = device_constructions(SRC / "storage" / "hierarchy.py")
    assert {hit.split()[-1] for hit in hits} == DEVICE_CLASSES
