"""Suite order: the unit modules first, then the acceptance criteria, which
train real models for minutes, with `test_qualitative_table2`, the longest,
last of all."""


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: (item.path.name == "test_acceptance.py",
                                 item.name == "test_qualitative_table2"))  # stable
