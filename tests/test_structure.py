"""Structure checks that scan the source tree.

Devices are built in one place: every join, query, assumption check and
service run gets its buses, disks and tape drives from
:class:`repro.storage.hierarchy.StorageSystem` (a query's passes and its
join share one; the service's broker leases its two drives), and the
scan fails if a device is constructed anywhere else.

A device op runs as events, faulty or not: nothing under ``storage/``
and nothing in the fault injector spawns a simulation process.

Tape content is written by the tape model alone: outside ``storage/``,
nothing calls ``TapeFile._append``; a relation goes on tape through
:meth:`repro.storage.tape.TapeVolume.record` or a drive's ``append``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

DEVICE_CLASSES = {"Bus", "TapeDrive", "Disk", "DiskArray"}


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
        for hit in device_constructions(path)
    ]
    assert offenders == []


def test_the_scan_sees_the_storage_hierarchy():
    """Guard against a vacuous pass: the builder itself is found."""
    hits = device_constructions(SRC / "storage" / "hierarchy.py")
    assert {hit.split()[-1] for hit in hits} == DEVICE_CLASSES


#: Source files that must not spawn a simulation process.
EVENT_ONLY = sorted((SRC / "storage").rglob("*.py")) + [SRC / "faults" / "injector.py"]


def method_calls(path: pathlib.Path, method: str) -> list[str]:
    """``file:line`` for every ``.<method>(...)`` call in ``path``."""
    return [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
    ]


def test_device_ops_spawn_no_process():
    assert [hit for path in EVENT_ONLY for hit in method_calls(path, "process")] == []


def test_the_process_scan_sees_a_process():
    """Guard against a vacuous pass: a join's own processes are found."""
    assert method_calls(SRC / "core" / "base.py", "process")


def test_tape_files_are_written_only_by_the_storage_package():
    offenders = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] != "storage"
        for hit in method_calls(path, "_append")
    ]
    assert offenders == []


def test_the_append_scan_sees_the_tape_model():
    """Guard against a vacuous pass: the tape model's own writes are found."""
    assert method_calls(SRC / "storage" / "tape.py", "_append")
