import cyclicvdw


def test_export_list_resolves():
    names = cyclicvdw.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(cyclicvdw, name)] == []
    star: dict = {}
    exec("from cyclicvdw import *", star)
    assert set(names) <= star.keys()
