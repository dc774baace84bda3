import eisenring


def test_every_exported_name_resolves():
    missing = [name for name in eisenring.__all__ if not hasattr(eisenring, name)]
    assert missing == []
    assert len(set(eisenring.__all__)) == len(eisenring.__all__)


def test_star_import():
    namespace = {}
    exec("from eisenring import *", namespace)
    assert set(eisenring.__all__) <= namespace.keys()
