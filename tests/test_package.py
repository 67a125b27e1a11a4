import sepfair


def test_every_public_name_resolves():
    namespace = {}
    exec("from sepfair import *", namespace)
    assert len(set(sepfair.__all__)) == len(sepfair.__all__)
    assert set(sepfair.__all__) <= namespace.keys()
