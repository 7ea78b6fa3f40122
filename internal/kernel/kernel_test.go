package kernel

import (
	"encoding/binary"
	"testing"

	"snowboard/internal/vm"
)

// bootTest boots a kernel of the given version on a fresh machine.
func bootTest(version Version) (*Kernel, *vm.Machine) {
	m := vm.NewMachine()
	k := Boot(m, Config{Version: version})
	return k, m
}

// runSyscalls executes a thread body against the booted kernel.
func runSyscalls(t *testing.T, k *Kernel, fn func(p *Proc)) {
	t.Helper()
	k.M.Spawn("test", StackFor(0), func(th *vm.Thread) {
		fn(&Proc{K: k, T: th})
	})
	if err := k.M.Run(vm.SeqScheduler{}, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(k.M.Faults()) > 0 {
		t.Fatalf("kernel crashed: %v", k.M.Faults())
	}
}

func TestBootLayoutDeterministic(t *testing.T) {
	k1, _ := bootTest(V5_12_RC3)
	k2, _ := bootTest(V5_12_RC3)
	if k1.G != k2.G {
		t.Fatalf("global layout differs across boots:\n%+v\n%+v", k1.G, k2.G)
	}
}

func TestBootDefaultsVersion(t *testing.T) {
	m := vm.NewMachine()
	k := Boot(m, Config{})
	if k.Cfg.Version != V5_12_RC3 {
		t.Fatalf("default version %q", k.Cfg.Version)
	}
}

func TestStackForBounds(t *testing.T) {
	if StackFor(0) != StackBase || StackFor(1) != StackBase+8192 {
		t.Fatal("stack layout wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range thread accepted")
		}
	}()
	StackFor(MaxThreads)
}

func TestUserRegionBounds(t *testing.T) {
	if UserRegion(1) != UserBase+UserProcSize {
		t.Fatal("user region layout wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range slot accepted")
		}
	}()
	UserRegion(MaxProcs)
}

func TestKmallocKfreeReuse(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		a := k.Kmalloc(p.T, 64)
		if a == 0 {
			t.Error("kmalloc failed")
		}
		k.Kfree(p.T, a, 64)
		b := k.Kmalloc(p.T, 64)
		if b != a {
			t.Errorf("freelist not reused: %#x then %#x", a, b)
		}
		c := k.Kmalloc(p.T, 64)
		if c == b {
			t.Error("double allocation of the same block")
		}
	})
}

func TestKzallocZeroes(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		a := k.Kmalloc(p.T, 64)
		p.T.Store(insKzallocZero, a, 8, 0xdeadbeef)
		k.Kfree(p.T, a, 64)
		b := k.Kzalloc(p.T, 64)
		if b != a {
			t.Fatalf("expected freelist reuse")
		}
		if v := p.T.Load(insKzallocZero, b, 8); v != 0 {
			t.Errorf("kzalloc left stale data %#x", v)
		}
	})
}

func TestSizeClassRounding(t *testing.T) {
	for _, tc := range []struct{ size, class int }{
		{1, 16}, {16, 16}, {17, 32}, {100, 128}, {1024, 1024},
	} {
		if _, c := sizeClass(tc.size); c != tc.class {
			t.Errorf("sizeClass(%d) = %d, want %d", tc.size, c, tc.class)
		}
	}
}

func TestSocketKinds(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		cases := []struct {
			args []uint64
			want FDKind
		}{
			{[]uint64{AFInet, SockStream, 0}, FDSockTCP},
			{[]uint64{AFInet, SockDgram, 0}, FDSockUDP},
			{[]uint64{AFInet6, SockRaw, 0}, FDSockRaw6},
			{[]uint64{AFPacket, SockRaw, 0}, FDSockPacket},
			{[]uint64{AFPppox, SockDgram, PxProtoOL2TP}, FDSockPPP},
		}
		for _, tc := range cases {
			fd := k.Invoke(p, SysSocketNr, tc.args)
			if fd < 0 {
				t.Errorf("socket%v failed: %d", tc.args, fd)
				continue
			}
			d, ok := p.FD(uint64(fd))
			if !ok || d.Kind != tc.want {
				t.Errorf("socket%v kind %v, want %v", tc.args, d.Kind, tc.want)
			}
		}
		if rc := k.Invoke(p, SysSocketNr, []uint64{99, 99, 0}); rc != -EINVAL {
			t.Errorf("bogus socket: %d", rc)
		}
	})
}

func TestBadFDErrors(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		if rc := k.Invoke(p, SysSendmsgNr, []uint64{42, 64}); rc != -EBADF {
			t.Errorf("sendmsg on bad fd: %d", rc)
		}
		if rc := k.Invoke(p, SysCloseNr, []uint64{42}); rc != -EBADF {
			t.Errorf("close on bad fd: %d", rc)
		}
	})
}

func TestIoctlWrongKindENOTTY(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		fd := k.Invoke(p, SysOpenNr, []uint64{0, 0}) // /dev/sda
		if rc := k.Invoke(p, SysIoctlNr, []uint64{uint64(fd), SIOCGIFHWADDR, 0}); rc != -ENOTTY {
			t.Errorf("net ioctl on block fd: %d", rc)
		}
		if rc := k.Invoke(p, SysIoctlNr, []uint64{uint64(fd), TIOCSSERIAL, 0}); rc != -ENOTTY {
			t.Errorf("tty ioctl on block fd: %d", rc)
		}
	})
}

func TestMsgQueueLifecycle(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		id1 := k.Invoke(p, SysMsggetNr, []uint64{0x5ee})
		if id1 < 0 {
			t.Fatalf("msgget: %d", id1)
		}
		id2 := k.Invoke(p, SysMsggetNr, []uint64{0x5ee})
		if id2 != id1 {
			t.Errorf("second msgget id %d != %d", id2, id1)
		}
		if rc := k.Invoke(p, SysMsgctlNr, []uint64{0x5ee, IPCStat}); rc <= 0 {
			t.Errorf("stat: %d", rc)
		}
		if rc := k.Invoke(p, SysMsgctlNr, []uint64{0x5ee, IPCRmid}); rc != 0 {
			t.Errorf("rmid: %d", rc)
		}
		if rc := k.Invoke(p, SysMsgctlNr, []uint64{0x5ee, IPCRmid}); rc != -ENOENT {
			t.Errorf("double rmid: %d", rc)
		}
		// Boot-time queues are still reachable.
		if rc := k.Invoke(p, SysMsgctlNr, []uint64{0x1000, IPCStat}); rc <= 0 {
			t.Errorf("boot queue stat: %d", rc)
		}
	})
}

func TestConfigfsLifecycle(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		if rc := k.Invoke(p, SysOpenatCfsNr, []uint64{0x77}); rc != -ENOENT {
			t.Errorf("lookup of absent dir: %d", rc)
		}
		if rc := k.Invoke(p, SysMkdirNr, []uint64{0x77}); rc != 0 {
			t.Errorf("mkdir: %d", rc)
		}
		if rc := k.Invoke(p, SysOpenatCfsNr, []uint64{0x77}); rc != 0 {
			t.Errorf("lookup after mkdir: %d", rc)
		}
		if rc := k.Invoke(p, SysRmdirNr, []uint64{0x77}); rc != 0 {
			t.Errorf("rmdir: %d", rc)
		}
		if rc := k.Invoke(p, SysOpenatCfsNr, []uint64{0x77}); rc != -ENOENT {
			t.Errorf("lookup after rmdir: %d", rc)
		}
		// Boot-time directories are visible.
		if rc := k.Invoke(p, SysOpenatCfsNr, []uint64{0x100}); rc != 0 {
			t.Errorf("boot dir lookup: %d", rc)
		}
	})
}

func TestExt4SequentialConsistency(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		fd := k.Invoke(p, SysOpenNr, []uint64{3, 0})
		if fd < 0 {
			t.Fatalf("open: %d", fd)
		}
		if rc := k.Invoke(p, SysWriteNr, []uint64{uint64(fd), 777, 4096}); rc < 0 {
			t.Fatalf("write: %d", rc)
		}
		if rc := k.Invoke(p, SysReadNr, []uint64{uint64(fd), 4096}); rc < 0 {
			t.Fatalf("read: %d", rc)
		}
		if rc := k.Invoke(p, SysIoctlNr, []uint64{uint64(fd), Ext4IOCSwapBoot, 0}); rc != 0 {
			t.Fatalf("swap_boot: %d", rc)
		}
		if rc := k.Invoke(p, SysMountNr, nil); rc != 0 {
			t.Fatalf("remount after sequential swap: %d", rc)
		}
	})
	if msgs := k.FsckHost(); len(msgs) != 0 {
		t.Fatalf("fsck dirty after sequential ops: %v", msgs)
	}
}

func TestExt4RenameKeepsHeaderValid(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		if rc := k.Invoke(p, SysRenameNr, []uint64{3, 4}); rc != 0 {
			t.Fatalf("rename: %d", rc)
		}
		fd := k.Invoke(p, SysOpenNr, []uint64{3, 0})
		if rc := k.Invoke(p, SysReadNr, []uint64{uint64(fd), 4096}); rc < 0 {
			t.Fatalf("read after rename: %d", rc)
		}
	})
}

func TestBlockSizeValidation(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		fd := k.Invoke(p, SysOpenNr, []uint64{0, 0})
		if rc := k.Invoke(p, SysIoctlNr, []uint64{uint64(fd), BLKBSZSET, 1024}); rc != 0 {
			t.Errorf("valid blocksize rejected: %d", rc)
		}
		if rc := k.Invoke(p, SysReadNr, []uint64{uint64(fd), 4096}); rc != 0 {
			t.Errorf("read after sequential resize: %d", rc)
		}
	})
}

func TestTTYOpenCloseCounts(t *testing.T) {
	k, m := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		fd := k.Invoke(p, SysOpenNr, []uint64{1, 0})
		if fd < 0 {
			t.Fatalf("open tty: %d", fd)
		}
		if n := m.Mem.Read(k.G.UartPort+uartOffOpenCount, 8); n != 1 {
			t.Errorf("open count %d", n)
		}
		if rc := k.Invoke(p, SysCloseNr, []uint64{uint64(fd)}); rc != 0 {
			t.Fatalf("close: %d", rc)
		}
		if n := m.Mem.Read(k.G.UartPort+uartOffOpenCount, 8); n != 0 {
			t.Errorf("open count after close %d", n)
		}
	})
}

func TestSndCtlAccountingLimit(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		fd := k.Invoke(p, SysOpenNr, []uint64{2, 0})
		// The card allows 8192 bytes; 9 adds of 1023 bytes exceed it.
		var lastRC int64
		for i := 0; i < 9; i++ {
			lastRC = k.Invoke(p, SysIoctlNr, []uint64{uint64(fd), SndCtlElemAddIoctl, 1023})
		}
		if lastRC != -ENOMEM {
			t.Errorf("accounting limit not enforced: %d", lastRC)
		}
		if rc := k.Invoke(p, SysIoctlNr, []uint64{uint64(fd), SndCtlElemRemoveIoctl, 1023}); rc != 0 {
			t.Errorf("remove: %d", rc)
		}
	})
}

func TestFanoutLifecycle(t *testing.T) {
	k, m := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		var fds []int64
		for i := 0; i < 5; i++ {
			fd := k.Invoke(p, SysSocketNr, []uint64{AFPacket, SockRaw, 0})
			fds = append(fds, fd)
		}
		// Group capacity is 4; the fifth join must fail.
		var last int64
		for _, fd := range fds {
			last = k.Invoke(p, SysSetsockoptNr, []uint64{uint64(fd), PacketFanout, 0})
		}
		if last != -ENOSPC {
			t.Errorf("fanout overflow not detected: %d", last)
		}
		// Leaving then sending still works.
		if rc := k.Invoke(p, SysSetsockoptNr, []uint64{uint64(fds[0]), PacketFanoutLeave, 0}); rc != 0 {
			t.Errorf("leave: %d", rc)
		}
		if rc := k.Invoke(p, SysSendmsgNr, []uint64{uint64(fds[1]), 64}); rc < 0 {
			t.Errorf("sendmsg: %d", rc)
		}
	})
	_ = m
}

func TestTCPConnectSendmsg(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		fd := k.Invoke(p, SysSocketNr, []uint64{AFInet, SockStream, 0})
		if rc := k.Invoke(p, SysSendmsgNr, []uint64{uint64(fd), 64}); rc != -ENOTCONN {
			t.Errorf("sendmsg before connect: %d", rc)
		}
		if rc := k.Invoke(p, SysConnectNr, []uint64{uint64(fd), 1, 0}); rc != 0 {
			t.Errorf("connect: %d", rc)
		}
		if rc := k.Invoke(p, SysSendmsgNr, []uint64{uint64(fd), 64}); rc != 64 {
			t.Errorf("sendmsg after connect: %d", rc)
		}
	})
}

func TestCongestionControlTable(t *testing.T) {
	k, m := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		fd := k.Invoke(p, SysSocketNr, []uint64{AFInet, SockStream, 0})
		if rc := k.Invoke(p, SysSetsockoptNr, []uint64{uint64(fd), TCPDefaultCC, 2}); rc != 0 {
			t.Fatalf("set default: %d", rc)
		}
		if rc := k.Invoke(p, SysSetsockoptNr, []uint64{uint64(fd), TCPCongestion, 0xff}); rc != 0 {
			t.Fatalf("set via default alias: %d", rc)
		}
		d, _ := p.FD(uint64(fd))
		got := binary.LittleEndian.AppendUint64(nil, m.Mem.Read(d.Obj+tcpOffCAName, 8))
		if string(got[:3]) != "bbr" {
			t.Errorf("socket CA %q", got)
		}
	})
}

func TestMTUValidation(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		fd := k.Invoke(p, SysSocketNr, []uint64{AFInet, SockDgram, 0})
		if rc := k.Invoke(p, SysIoctlNr, []uint64{uint64(fd), SIOCSIFMTU, 10}); rc != -EINVAL {
			t.Errorf("tiny mtu accepted: %d", rc)
		}
		if rc := k.Invoke(p, SysIoctlNr, []uint64{uint64(fd), SIOCSIFMTU, 9000}); rc != 0 {
			t.Errorf("jumbo mtu rejected: %d", rc)
		}
		if got := k.Invoke(p, SysIoctlNr, []uint64{uint64(fd), SIOCGIFMTU, 0}); got != 9000 {
			t.Errorf("mtu readback: %d", got)
		}
	})
}

func TestRawv6EMSGSIZE(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		fd := k.Invoke(p, SysSocketNr, []uint64{AFInet6, SockRaw, 0})
		if rc := k.Invoke(p, SysSendmsgNr, []uint64{uint64(fd), 9000}); rc != -EMSGSIZE {
			t.Errorf("oversize send: %d", rc)
		}
		if rc := k.Invoke(p, SysSendmsgNr, []uint64{uint64(fd), 512}); rc != 512 {
			t.Errorf("normal send: %d", rc)
		}
	})
}

func TestL2TPBootTunnelsReachable(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		ppp := k.Invoke(p, SysSocketNr, []uint64{AFPppox, SockDgram, PxProtoOL2TP})
		udp := k.Invoke(p, SysSocketNr, []uint64{AFInet, SockDgram, 0})
		// Tunnel id 103 exists at boot: connect attaches without creating.
		if rc := k.Invoke(p, SysConnectNr, []uint64{uint64(ppp), 103, uint64(udp)}); rc != 0 {
			t.Fatalf("connect to boot tunnel: %d", rc)
		}
		if rc := k.Invoke(p, SysSendmsgNr, []uint64{uint64(ppp), 256}); rc != 256 {
			t.Fatalf("sendmsg via boot tunnel: %d", rc)
		}
	})
}

func TestSyscallTableComplete(t *testing.T) {
	for nr := 0; nr < NumSyscalls; nr++ {
		s := &Syscalls[nr]
		if s.Name == "" || s.Fn == nil {
			t.Fatalf("syscall %d incomplete", nr)
		}
		for ai, a := range s.Args {
			if a.Kind == ArgConst && len(a.Vals) == 0 && s.Name != "mount" {
				t.Fatalf("%s arg %d has no candidate values", s.Name, ai)
			}
		}
	}
}

func TestInvokeBadNumber(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		if rc := k.Invoke(p, -1, nil); rc != -EINVAL {
			t.Errorf("negative nr: %d", rc)
		}
		if rc := k.Invoke(p, NumSyscalls, nil); rc != -EINVAL {
			t.Errorf("out-of-range nr: %d", rc)
		}
	})
}

func TestFDTableLimit(t *testing.T) {
	k, _ := bootTest(V5_12_RC3)
	runSyscalls(t, k, func(p *Proc) {
		var rc int64
		for i := 0; i < MaxFDs+2; i++ {
			rc = k.Invoke(p, SysSocketNr, []uint64{AFInet, SockDgram, 0})
		}
		if rc != -EMFILE {
			t.Errorf("fd table limit not enforced: %d", rc)
		}
	})
}

func TestVersionGates(t *testing.T) {
	k53, _ := bootTest(V5_3_10)
	k512, _ := bootTest(V5_12_RC3)
	if !k53.is5_3() || k53.is5_12() {
		t.Fatal("5.3.10 gates wrong")
	}
	if !k512.is5_12() || k512.is5_3() {
		t.Fatal("5.12-rc3 gates wrong")
	}
}
