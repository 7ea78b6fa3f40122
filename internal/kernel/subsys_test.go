package kernel

import (
	"encoding/binary"
	"strings"
	"testing"

	"snowboard/internal/trace"
	"snowboard/internal/vm"
)

func TestFsckHostDetectsCorruption(t *testing.T) {
	k, m := bootTest(V5_12_RC3)
	if msgs := k.FsckHost(); len(msgs) != 0 {
		t.Fatalf("fresh fs dirty: %v", msgs)
	}
	// Corrupt inode 2's checksum directly (as an interrupted swap would).
	ino := k.InodeAddr(2)
	m.Mem.Write(ino+inoOffCsum, 8, 0xdead)
	msgs := k.FsckHost()
	if len(msgs) != 1 {
		t.Fatalf("fsck messages: %v", msgs)
	}
	// And a cleared extent magic.
	m.Mem.Write(ino+inoOffEhMagic, 8, 0)
	if msgs := k.FsckHost(); len(msgs) != 2 {
		t.Fatalf("fsck messages after magic clear: %v", msgs)
	}
}

func TestExt4CsumMath(t *testing.T) {
	if ext4Csum(100, 7) == ext4Csum(101, 7) {
		t.Fatal("csum does not depend on block")
	}
	if ext4Csum(100, 7) == ext4Csum(100, 8) {
		t.Fatal("csum does not depend on generation")
	}
}

func TestSwapBootSwapsBlocks(t *testing.T) {
	k, m := bootTest(V5_12_RC3)
	boot, tgt := k.InodeAddr(0), k.InodeAddr(3)
	b0 := m.Mem.Read(boot+inoOffBlock, 8)
	b3 := m.Mem.Read(tgt+inoOffBlock, 8)
	runSyscalls(t, k, func(p *Proc) {
		if rc := k.Ext4SwapBootLoader(p.T, tgt); rc != 0 {
			t.Fatalf("swap: %d", rc)
		}
	})
	if m.Mem.Read(boot+inoOffBlock, 8) != b3 || m.Mem.Read(tgt+inoOffBlock, 8) != b0 {
		t.Fatal("blocks not swapped")
	}
	if msgs := k.FsckHost(); len(msgs) != 0 {
		t.Fatalf("sequential swap left corruption: %v", msgs)
	}
}

func TestSwapBootSelfRejected(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		if rc := k.Ext4SwapBootLoader(p.T, k.InodeAddr(0)); rc != -EINVAL {
			t.Fatalf("self swap: %d", rc)
		}
	})
}

func TestMacFromSeedNeverMulticast(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		mac := macFromSeed(seed)
		if mac[0]&1 != 0 {
			t.Fatalf("seed %d produced multicast MAC %v", seed, mac)
		}
	}
}

func TestMACWriteReadRoundtrip(t *testing.T) {
	k, _ := bootTest(V5_3_10)
	want := macFromSeed(0x2)
	runSyscalls(t, k, func(p *Proc) {
		k.RtnlLock(p.T)
		k.EthCommitMacAddrChange(p.T, k.G.Eth0, want)
		k.RtnlUnlock(p.T)
		got := k.DevIfsiocLocked(p.T, k.G.Eth0, p.UserBuf())
		if got != want {
			t.Fatalf("mac %v != %v", got, want)
		}
		// And the packet_getname reader sees the same address.
		fd := k.Invoke(p, SysSocketNr, []uint64{AFPacket, SockRaw, 0})
		d, _ := p.FD(uint64(fd))
		if got := k.PacketGetname(p.T, d.Obj, p.UserBuf()); got != want {
			t.Fatalf("packet_getname %v != %v", got, want)
		}
	})
}

func TestCopyToUserLandsInProcRegion(t *testing.T) {
	k, m := bootTest(V5_3_10)
	mac := macFromSeed(0x55)
	runSyscalls(t, k, func(p *Proc) {
		k.RtnlLock(p.T)
		k.EthCommitMacAddrChange(p.T, k.G.Eth0, mac)
		k.RtnlUnlock(p.T)
		k.DevIfsiocLocked(p.T, k.G.Eth0, p.UserBuf())
	})
	got := binary.LittleEndian.AppendUint64(nil, m.Mem.Read(UserRegion(0), EthAlen))
	for i := range mac {
		if got[i] != mac[i] {
			t.Fatalf("user buffer byte %d: %#x != %#x", i, got[i], mac[i])
		}
	}
}

func TestFanoutDemuxPicksMember(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		fd1 := k.Invoke(p, SysSocketNr, []uint64{AFPacket, SockRaw, 0})
		fd2 := k.Invoke(p, SysSocketNr, []uint64{AFPacket, SockRaw, 0})
		for _, fd := range []int64{fd1, fd2} {
			if rc := k.Invoke(p, SysSetsockoptNr, []uint64{uint64(fd), PacketFanout, 0}); rc != 0 {
				t.Fatalf("join: %d", rc)
			}
		}
		d1, _ := p.FD(uint64(fd1))
		f := k.M.Mem.Read(d1.Obj+poOffFanout, 8)
		if f == 0 {
			t.Fatal("fanout group not linked")
		}
		m1 := k.FanoutDemuxRollover(p.T, f, 0)
		m2 := k.FanoutDemuxRollover(p.T, f, 1)
		if m1 == 0 || m2 == 0 || m1 == m2 {
			t.Fatalf("demux members: %#x %#x", m1, m2)
		}
	})
}

func TestRhashtableHashUsesTableSize(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		h := k.rhtHash(p.T, k.G.MsgHT, 0x5ee)
		if h >= rhtNBuckets {
			t.Fatalf("hash %d out of range", h)
		}
	})
}

func TestRemountCountsMounts(t *testing.T) {
	k, m := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		for i := 0; i < 3; i++ {
			if rc := k.Invoke(p, SysMountNr, nil); rc != 0 {
				t.Fatalf("mount %d: %d", i, rc)
			}
		}
	})
	if n := m.Mem.Read(k.G.Ext4Sb+sbOffMountCount, 8); n != 3 {
		t.Fatalf("mount count %d", n)
	}
}

func TestRemountReportsCorruption(t *testing.T) {
	k, m := bootTest(V5_12_RC3)
	m.Mem.Write(k.InodeAddr(1)+inoOffCsum, 8, 0xbad)
	runSyscalls(t, k, func(p *Proc) {
		if rc := k.Invoke(p, SysMountNr, nil); rc != -EINVAL {
			t.Fatalf("mount over corruption: %d", rc)
		}
	})
	if !strings.Contains(k.M.Console.String(), "checksum invalid") {
		t.Fatalf("console: %v", k.M.Console.Lines())
	}
}

func TestRawv6ConnectStoresCookie(t *testing.T) {
	k, m := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		fd := k.Invoke(p, SysSocketNr, []uint64{AFInet6, SockRaw, 0})
		if rc := k.Invoke(p, SysConnectNr, []uint64{uint64(fd), 1, 0}); rc != 0 {
			t.Fatalf("connect: %d", rc)
		}
		d, _ := p.FD(uint64(fd))
		if c := m.Mem.Read(d.Obj+raw6OffCookie, 8); c != 1 {
			t.Fatalf("cookie %d (boot sernum is 1)", c)
		}
		// Route deletion bumps the generation; reconnect observes it.
		if rc := k.Invoke(p, SysIoctlNr, []uint64{uint64(fd), SIOCDELRT, 0}); rc != 0 {
			t.Fatalf("delrt: %d", rc)
		}
		if rc := k.Invoke(p, SysConnectNr, []uint64{uint64(fd), 1, 0}); rc != 0 {
			t.Fatalf("reconnect: %d", rc)
		}
		if c := m.Mem.Read(d.Obj+raw6OffCookie, 8); c != 2 {
			t.Fatalf("cookie after clean %d", c)
		}
	})
}

func TestUartAutoconfigRestoresFlags(t *testing.T) {
	k, m := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		fd := k.Invoke(p, SysOpenNr, []uint64{1, 0})
		if rc := k.Invoke(p, SysIoctlNr, []uint64{uint64(fd), TIOCSSERIAL, 0}); rc != 0 {
			t.Fatalf("autoconfig: %d", rc)
		}
	})
	flags := m.Mem.Read(k.G.UartPort+uartOffFlags, 8)
	if flags&AsyncInitialized == 0 {
		t.Fatalf("port left uninitialized: %#x", flags)
	}
}

func TestDoubleFetchVisibleInSequentialProfile(t *testing.T) {
	// The 5.3.10 rht_ptr double fetch must be marked df_leader when the
	// bucket is non-empty, feeding S-CH-DOUBLE.
	k, _ := bootTest(V5_3_10)
	var tr trace.Trace
	k.M.SetTrace(&tr)
	k.M.Spawn("test", StackFor(0), func(th *vm.Thread) {
		p := &Proc{K: k, T: th}
		k.Invoke(p, SysMsggetNr, []uint64{0x5ee}) // create
		k.Invoke(p, SysMsggetNr, []uint64{0x5ee}) // lookup: double fetch on non-empty bucket
	})
	if err := k.M.Run(vm.SeqScheduler{}, 0); err != nil {
		t.Fatal(err)
	}
	k.M.SetTrace(nil)
	accs := trace.DefaultFilter(0).Apply(&tr)
	df := trace.MarkDoubleFetches(&accs)
	testIns := trace.DefIns("rht_ptr:load_bkt_test")
	found := false
	for idx := range df {
		if accs.InsAt(idx) == testIns {
			found = true
		}
	}
	if !found {
		t.Fatal("rht_ptr double fetch not marked as df_leader")
	}
}

func TestKernelVersionGatesRhtPtr(t *testing.T) {
	// 5.12 must issue a single (marked) bucket load; 5.3.10 two plain ones.
	count := func(v Version) (plain, marked int) {
		k, _ := bootTest(v)
		var tr trace.Trace
		k.M.SetTrace(&tr)
		k.M.Spawn("test", StackFor(0), func(th *vm.Thread) {
			p := &Proc{K: k, T: th}
			k.Invoke(p, SysMsggetNr, []uint64{0x5ee})
			k.Invoke(p, SysMsggetNr, []uint64{0x5ee})
		})
		if err := k.M.Run(vm.SeqScheduler{}, 0); err != nil {
			t.Fatal(err)
		}
		k.M.SetTrace(nil)
		testIns := trace.DefIns("rht_ptr:load_bkt_test")
		useIns := trace.DefIns("rht_ptr:load_bkt_use")
		for i := 0; i < tr.Len(); i++ {
			a := tr.At(i)
			if a.Ins == testIns || a.Ins == useIns {
				if a.Marked {
					marked++
				} else {
					plain++
				}
			}
		}
		return plain, marked
	}
	plain53, marked53 := count(V5_3_10)
	if plain53 == 0 || marked53 != 0 {
		t.Fatalf("5.3.10 bucket loads: plain=%d marked=%d", plain53, marked53)
	}
	plain512, marked512 := count(V5_12_RC3)
	if plain512 != 0 || marked512 == 0 {
		t.Fatalf("5.12-rc3 bucket loads: plain=%d marked=%d", plain512, marked512)
	}
}

func TestSndRemoveClampsToZero(t *testing.T) {
	k, m := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		fd := k.Invoke(p, SysOpenNr, []uint64{2, 0})
		if rc := k.Invoke(p, SysIoctlNr, []uint64{uint64(fd), SndCtlElemRemoveIoctl, 512}); rc != 0 {
			t.Fatalf("remove on empty: %d", rc)
		}
	})
	if n := m.Mem.Read(k.G.SndCard+cardOffUserAllocSz, 8); n != 0 {
		t.Fatalf("alloc size underflowed: %d", n)
	}
}

func TestL2TPSendmsgUnconnected(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		fd := k.Invoke(p, SysSocketNr, []uint64{AFPppox, SockDgram, PxProtoOL2TP})
		if rc := k.Invoke(p, SysSendmsgNr, []uint64{uint64(fd), 64}); rc != -ENOTCONN {
			t.Fatalf("unconnected sendmsg: %d", rc)
		}
	})
}
