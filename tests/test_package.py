import json
import subprocess
import sys
from pathlib import Path

import pytest

import cyclicvdw
from cyclicvdw import cli, coloring


def test_export_list_resolves():
    names = cyclicvdw.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(cyclicvdw, name)] == []
    star: dict = {}
    exec("from cyclicvdw import *", star)
    assert set(names) <= star.keys()


def test_cli_import_skips_dataclasses_and_inspect():
    src = str(Path(cyclicvdw.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import cyclicvdw.cli; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "[]\n"


# Output holds lists when a command builds it; tuples here keep it hashable.
RECORDS = {
    "SearchBudget": lambda: cyclicvdw.SearchBudget(max_nodes=5),
    "IndependenceResult": lambda: cyclicvdw.independence_number(12, 3),
    "ColoringResult": lambda: cyclicvdw.chromatic_number(12, 3),
    "ForbiddenSet": lambda: cyclicvdw.build_forbidden(3, 4),
    "BoundsReport": lambda: cyclicvdw.theorem_bounds(4, 4),
    "PartitionPlan": lambda: cyclicvdw.build_partition(5, 3),
    "WcBoundRow": lambda: coloring.wc_bound_for(5, 3),
    "ConjectureReport": lambda: cyclicvdw.check_conjecture(4, 2, 3),
    "Output": lambda: cli.Output(("m", "k"), (), ("text",)),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_contract(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    again = type(record)(**record._asdict())
    assert again == record and hash(again) == hash(record)
    if hasattr(record, "to_dict"):
        doc = record.to_dict()
        assert doc == json.loads(json.dumps(doc))
