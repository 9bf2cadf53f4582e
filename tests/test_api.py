import bohrlab


def test_every_exported_name_resolves():
    assert len(set(bohrlab.__all__)) == len(bohrlab.__all__)
    for name in bohrlab.__all__:
        getattr(bohrlab, name)


def test_deleted_names_are_not_exported():
    for name in ("LqVector", "lq_norm"):
        assert name not in bohrlab.__all__
        assert not hasattr(bohrlab, name)
        assert not hasattr(bohrlab.family, name)
