"""Tests for memory regions and the translation & protection table."""

import pytest

from repro.errors import ProtectionFault
from repro.hw import AddressSpace, MachineMemory
from repro.hw.memory import Buffer
from repro.ib import TPT, Access
from repro.units import KiB, MiB


@pytest.fixture
def aspace():
    return AddressSpace(1, MachineMemory(64 * MiB))


@pytest.fixture
def tpt():
    return TPT()


class TestRegistration:
    def test_register_pins_pages(self, tpt, aspace):
        buf = Buffer(aspace, 64 * KiB)
        mr = tpt.register(buf, Access.full(), domid=1)
        assert all(f.pinned for f in buf.frames())
        assert mr.valid
        assert len(tpt) == 2  # lkey + rkey entries

    def test_keys_are_distinct(self, tpt, aspace):
        mr1 = tpt.register(Buffer(aspace, KiB), Access.full(), 1)
        mr2 = tpt.register(Buffer(aspace, KiB), Access.full(), 1)
        keys = {mr1.lkey, mr1.rkey, mr2.lkey, mr2.rkey}
        assert len(keys) == 4

    def test_deregister_unpins(self, tpt, aspace):
        buf = Buffer(aspace, 8 * KiB)
        mr = tpt.register(buf, Access.full(), 1)
        tpt.deregister(mr)
        assert not any(f.pinned for f in buf.frames())
        assert not mr.valid
        assert len(tpt) == 0

    def test_double_deregister_raises(self, tpt, aspace):
        mr = tpt.register(Buffer(aspace, KiB), Access.full(), 1)
        tpt.deregister(mr)
        with pytest.raises(ProtectionFault):
            tpt.deregister(mr)

    def test_iteration_deduplicates(self, tpt, aspace):
        tpt.register(Buffer(aspace, KiB), Access.full(), 1)
        tpt.register(Buffer(aspace, KiB), Access.full(), 1)
        assert len(list(tpt)) == 2


class TestLookups:
    def test_lookup_local(self, tpt, aspace):
        mr = tpt.register(Buffer(aspace, KiB), Access.LOCAL_READ | Access.LOCAL_WRITE, 1)
        assert tpt.lookup_local(mr.lkey) is mr

    def test_lkey_rkey_not_interchangeable(self, tpt, aspace):
        mr = tpt.register(Buffer(aspace, KiB), Access.full(), 1)
        with pytest.raises(ProtectionFault):
            tpt.lookup_local(mr.rkey)
        with pytest.raises(ProtectionFault):
            tpt.lookup_remote(mr.lkey, Access.REMOTE_WRITE)

    def test_unknown_key(self, tpt):
        with pytest.raises(ProtectionFault, match="bad lkey"):
            tpt.lookup_local(0xDEAD)

    def test_remote_permission_enforced(self, tpt, aspace):
        mr = tpt.register(Buffer(aspace, KiB), Access.LOCAL_READ | Access.LOCAL_WRITE, 1)
        with pytest.raises(ProtectionFault, match="lacks"):
            tpt.lookup_remote(mr.rkey, Access.REMOTE_WRITE)

    def test_remote_read_vs_write_permissions(self, tpt, aspace):
        ro = tpt.register(
            Buffer(aspace, KiB),
            Access.LOCAL_READ | Access.LOCAL_WRITE | Access.REMOTE_READ,
            1,
        )
        assert tpt.lookup_remote(ro.rkey, Access.REMOTE_READ) is ro
        with pytest.raises(ProtectionFault):
            tpt.lookup_remote(ro.rkey, Access.REMOTE_WRITE)


class TestRangeChecks:
    def test_in_range_ok(self, tpt, aspace):
        mr = tpt.register(Buffer(aspace, 4 * KiB), Access.full(), 1)
        mr.check_range(0, 4 * KiB)
        mr.check_range(KiB, KiB)

    def test_out_of_range_rejected(self, tpt, aspace):
        mr = tpt.register(Buffer(aspace, 4 * KiB), Access.full(), 1)
        with pytest.raises(ProtectionFault):
            mr.check_range(0, 4 * KiB + 1)
        with pytest.raises(ProtectionFault):
            mr.check_range(-1, 10)

    def test_deregistered_access_rejected(self, tpt, aspace):
        mr = tpt.register(Buffer(aspace, KiB), Access.full(), 1)
        tpt.deregister(mr)
        with pytest.raises(ProtectionFault, match="deregistered"):
            mr.check_range(0, 1)
