"""The package's export list names real objects, each once."""

import collections

import pbrlab


def test_every_exported_name_resolves():
    missing = [name for name in pbrlab.__all__ if not hasattr(pbrlab, name)]
    assert missing == []


def test_every_exported_name_is_listed_once():
    repeated = [name for name, n in collections.Counter(pbrlab.__all__).items() if n > 1]
    assert repeated == []


def test_star_import_succeeds():
    namespace = {}
    exec("from pbrlab import *", namespace)
    assert set(pbrlab.__all__) <= namespace.keys()


def test_dir_lists_every_exported_name():
    assert set(pbrlab.__all__) <= set(dir(pbrlab))
