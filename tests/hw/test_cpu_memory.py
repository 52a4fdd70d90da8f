"""Unit tests for PCPU, MachineMemory, AddressSpace, Buffer."""

import pytest

from repro.errors import ConfigError, HypervisorError
from repro.hw import PAGE_SIZE, PCPU, AddressSpace, Buffer, MachineMemory, ReadOnlyView
from repro.units import KiB, MiB


class TestPCPU:
    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            PCPU(-1)
        with pytest.raises(ConfigError):
            PCPU(0, freq_hz=0)


class TestMachineMemory:
    def test_allocate_and_free(self):
        mem = MachineMemory(16 * PAGE_SIZE)
        frames = mem.allocate(owner_domid=1, nframes=4)
        assert len(frames) == 4
        assert mem.free_frames == 12
        mem.free(frames)
        assert mem.free_frames == 16

    def test_unique_mfns(self):
        mem = MachineMemory(16 * PAGE_SIZE)
        frames = mem.allocate(1, 8)
        assert len({f.mfn for f in frames}) == 8

    def test_out_of_memory(self):
        mem = MachineMemory(4 * PAGE_SIZE)
        with pytest.raises(HypervisorError, match="out of memory"):
            mem.allocate(1, 5)

    def test_cannot_free_pinned(self):
        mem = MachineMemory(4 * PAGE_SIZE)
        frames = mem.allocate(1, 1)
        frames[0].pinned = True
        with pytest.raises(HypervisorError, match="pinned"):
            mem.free(frames)

    def test_lookup(self):
        mem = MachineMemory(4 * PAGE_SIZE)
        frame = mem.allocate(7, 1)[0]
        assert mem.lookup(frame.mfn) is frame
        with pytest.raises(HypervisorError):
            mem.lookup(999)

    def test_too_small(self):
        with pytest.raises(HypervisorError):
            MachineMemory(100)


class TestAddressSpace:
    def test_extend_and_translate(self):
        mem = MachineMemory(MiB)
        aspace = AddressSpace(domid=1, memory=mem)
        rng = aspace.extend(4)
        assert rng == range(0, 4)
        frame = aspace.translate(2)
        assert frame.owner_domid == 1

    def test_translate_unmapped_raises(self):
        mem = MachineMemory(MiB)
        aspace = AddressSpace(1, mem)
        with pytest.raises(HypervisorError, match="not mapped"):
            aspace.translate(0)

    def test_pin_unpin_range(self):
        mem = MachineMemory(MiB)
        aspace = AddressSpace(1, mem)
        aspace.extend(8)
        frames = aspace.pin_range(2, 3)
        assert all(f.pinned for f in frames)
        aspace.unpin_range(2, 3)
        assert not any(f.pinned for f in frames)

    def test_contiguous_extension(self):
        mem = MachineMemory(MiB)
        aspace = AddressSpace(1, mem)
        assert aspace.extend(2) == range(0, 2)
        assert aspace.extend(3) == range(2, 5)
        assert mem.free_frames == mem.total_frames - 5


class TestBuffer:
    def test_buffer_spans_enough_pages(self):
        mem = MachineMemory(16 * MiB)
        aspace = AddressSpace(1, mem)
        buf = Buffer(aspace, 64 * KiB, label="app")
        assert buf.nframes == 16  # 64 KiB / 4 KiB pages
        assert len(buf.frames()) == 16

    def test_odd_size_rounds_up(self):
        mem = MachineMemory(MiB)
        aspace = AddressSpace(1, mem)
        buf = Buffer(aspace, PAGE_SIZE + 1)
        assert buf.nframes == 2

    def test_zero_size_rejected(self):
        mem = MachineMemory(MiB)
        aspace = AddressSpace(1, mem)
        with pytest.raises(HypervisorError):
            Buffer(aspace, 0)


class TestReadOnlyView:
    def test_reads_pass_through(self):
        class Thing:
            x = 5

            def get_x(self):
                return self.x

        view = ReadOnlyView(Thing())
        assert view.x == 5
        assert view.get_x() == 5

    def test_writes_rejected(self):
        class Thing:
            x = 5

        view = ReadOnlyView(Thing())
        with pytest.raises(HypervisorError):
            view.x = 6

    def test_setter_methods_rejected(self):
        class Thing:
            def set_x(self, v):  # pragma: no cover - must not run
                pass

        view = ReadOnlyView(Thing())
        with pytest.raises(HypervisorError):
            view.set_x(1)
