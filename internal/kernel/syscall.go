package kernel

import (
	"fmt"

	"snowboard/internal/trace"
)

// The system-call table: dispatch plus the argument metadata the sequential
// test generator (internal/fuzz) uses to produce well-formed programs. The
// table index is the stable syscall number used in serialized tests.

// ArgKind classifies a syscall argument for the generator.
type ArgKind uint8

// Argument kinds.
const (
	// ArgConst arguments draw from a small set of interesting values.
	ArgConst ArgKind = iota
	// ArgFD arguments consume a file descriptor produced earlier in the
	// same program (a syzkaller-style resource).
	ArgFD
)

// ArgSpec describes one argument of a syscall.
type ArgSpec struct {
	Name string
	Kind ArgKind
	Vals []uint64 // candidate values for ArgConst
	Res  []FDKind // acceptable descriptor kinds for ArgFD (nil = any)
}

// Spec describes one syscall.
type Spec struct {
	Name string
	Args []ArgSpec
	// RetKind maps resolved argument values to the descriptor kind the
	// call produces, or FDNone. It lets socket()'s result type depend on
	// the domain argument.
	RetKind func(a []uint64) FDKind
	Fn      func(k *Kernel, p *Proc, a []uint64) int64
}

// ioctl command numbers (Linux values where they exist).
const (
	SIOCGIFMTU            = 0x8921
	SIOCSIFMTU            = 0x8922
	SIOCSIFHWADDR         = 0x8924
	SIOCGIFHWADDR         = 0x8927
	SIOCETHTOOL           = 0x8946
	SIOCDELRT             = 0x890B
	Ext4IOCSwapBoot       = 17
	BLKBSZSET             = 0x1271
	TIOCSSERIAL           = 0x541F
	SndCtlElemAddIoctl    = 0xc110
	SndCtlElemRemoveIoctl = 0xc111
)

// setsockopt option numbers.
const (
	PacketFanout      = 18
	PacketFanoutLeave = 19 // simulated explicit leave
	TCPCongestion     = 13
	TCPDefaultCC      = 14 // simulated sysctl default-CA write path
)

// Syscall numbers (table indexes).
const (
	SysSocketNr = iota
	SysConnectNr
	SysSendmsgNr
	SysGetsocknameNr
	SysSetsockoptNr
	SysIoctlNr
	SysOpenNr
	SysCloseNr
	SysReadNr
	SysWriteNr
	SysRenameNr
	SysFadviseNr
	SysMsggetNr
	SysMsgctlNr
	SysMountNr
	SysMkdirNr
	SysRmdirNr
	SysOpenatCfsNr
	NumSyscalls
)

var anySock = []FDKind{FDSockTCP, FDSockUDP, FDSockRaw6, FDSockPacket, FDSockPPP}

var (
	insSyscallSpill  = trace.DefIns("do_syscall_64:spill_arg")
	insSyscallReload = trace.DefIns("do_syscall_64:reload_arg")
	insSyscallSaveNr = trace.DefIns("do_syscall_64:save_nr")
)

// Syscalls is the system-call table, indexed by syscall number.
var Syscalls = [NumSyscalls]Spec{
	SysSocketNr: {
		Name: "socket",
		Args: []ArgSpec{
			{Name: "domain", Kind: ArgConst, Vals: []uint64{AFInet, AFInet6, AFPacket, AFPppox}},
			{Name: "type", Kind: ArgConst, Vals: []uint64{SockStream, SockDgram, SockRaw}},
			{Name: "proto", Kind: ArgConst, Vals: []uint64{0, PxProtoOL2TP}},
		},
		RetKind: func(a []uint64) FDKind {
			switch {
			case a[0] == AFInet && a[1] == SockStream:
				return FDSockTCP
			case a[0] == AFInet && a[1] == SockDgram:
				return FDSockUDP
			case a[0] == AFInet6 && a[1] == SockRaw:
				return FDSockRaw6
			case a[0] == AFPacket:
				return FDSockPacket
			case a[0] == AFPppox:
				return FDSockPPP
			}
			return FDNone
		},
		Fn: (*Kernel).SysSocket,
	},
	SysConnectNr: {
		Name: "connect",
		Args: []ArgSpec{
			{Name: "fd", Kind: ArgFD, Res: []FDKind{FDSockTCP, FDSockRaw6, FDSockPPP}},
			{Name: "addr", Kind: ArgConst, Vals: []uint64{1, 2, 3}}, // tunnel id / port
			{Name: "backing", Kind: ArgFD, Res: []FDKind{FDSockUDP, FDSockTCP}},
		},
		Fn: (*Kernel).SysConnect,
	},
	SysSendmsgNr: {
		Name: "sendmsg",
		Args: []ArgSpec{
			{Name: "fd", Kind: ArgFD, Res: anySock},
			{Name: "size", Kind: ArgConst, Vals: []uint64{64, 512, 1400, 9000}},
		},
		Fn: (*Kernel).SysSendmsg,
	},
	SysGetsocknameNr: {
		Name: "getsockname",
		Args: []ArgSpec{{Name: "fd", Kind: ArgFD, Res: anySock}},
		Fn:   (*Kernel).SysGetsockname,
	},
	SysSetsockoptNr: {
		Name: "setsockopt",
		Args: []ArgSpec{
			{Name: "fd", Kind: ArgFD, Res: anySock},
			{Name: "opt", Kind: ArgConst, Vals: []uint64{PacketFanout, PacketFanoutLeave, TCPCongestion, TCPDefaultCC}},
			{Name: "val", Kind: ArgConst, Vals: []uint64{0, 1, 2, 0xff}},
		},
		Fn: (*Kernel).SysSetsockopt,
	},
	SysIoctlNr: {
		Name: "ioctl",
		Args: []ArgSpec{
			{Name: "fd", Kind: ArgFD},
			{Name: "cmd", Kind: ArgConst, Vals: []uint64{
				SIOCGIFHWADDR, SIOCSIFHWADDR, SIOCETHTOOL, SIOCSIFMTU, SIOCGIFMTU,
				SIOCDELRT, Ext4IOCSwapBoot, BLKBSZSET, TIOCSSERIAL,
				SndCtlElemAddIoctl, SndCtlElemRemoveIoctl,
			}},
			{Name: "arg", Kind: ArgConst, Vals: []uint64{0x2, 0x55, 512, 1024, 1500, 4096}},
		},
		Fn: (*Kernel).SysIoctl,
	},
	SysOpenNr: {
		Name: "open",
		Args: []ArgSpec{
			{Name: "path", Kind: ArgConst, Vals: []uint64{0, 1, 2, 3, 4, 5, 6}},
			{Name: "flags", Kind: ArgConst, Vals: []uint64{0, 2}},
		},
		RetKind: func(a []uint64) FDKind {
			switch a[0] {
			case 0:
				return FDBlk
			case 1:
				return FDTTY
			case 2:
				return FDSnd
			default:
				return FDFile
			}
		},
		Fn: (*Kernel).SysOpen,
	},
	SysCloseNr: {
		Name: "close",
		Args: []ArgSpec{{Name: "fd", Kind: ArgFD}},
		Fn:   (*Kernel).SysClose,
	},
	SysReadNr: {
		Name: "read",
		Args: []ArgSpec{
			{Name: "fd", Kind: ArgFD, Res: []FDKind{FDFile, FDBlk}},
			{Name: "size", Kind: ArgConst, Vals: []uint64{512, 4096}},
		},
		Fn: (*Kernel).SysRead,
	},
	SysWriteNr: {
		Name: "write",
		Args: []ArgSpec{
			{Name: "fd", Kind: ArgFD, Res: []FDKind{FDFile}},
			{Name: "val", Kind: ArgConst, Vals: []uint64{7, 42, 1000, 65536}},
			{Name: "size", Kind: ArgConst, Vals: []uint64{512, 4096}},
		},
		Fn: (*Kernel).SysWrite,
	},
	SysRenameNr: {
		Name: "rename",
		Args: []ArgSpec{
			{Name: "oldpath", Kind: ArgConst, Vals: []uint64{3, 4, 5, 6}},
			{Name: "newpath", Kind: ArgConst, Vals: []uint64{3, 4, 5, 6}},
		},
		Fn: (*Kernel).SysRename,
	},
	SysFadviseNr: {
		Name: "fadvise64",
		Args: []ArgSpec{
			{Name: "fd", Kind: ArgFD, Res: []FDKind{FDFile, FDBlk}},
			{Name: "offset", Kind: ArgConst, Vals: []uint64{0, 4096}},
			{Name: "len", Kind: ArgConst, Vals: []uint64{4096, 65536}},
		},
		Fn: (*Kernel).SysFadvise,
	},
	SysMsggetNr: {
		Name: "msgget",
		Args: []ArgSpec{{Name: "key", Kind: ArgConst, Vals: []uint64{0x5ee, 0xbee, 0xcafe}}},
		Fn:   (*Kernel).SysMsgget,
	},
	SysMsgctlNr: {
		Name: "msgctl",
		Args: []ArgSpec{
			{Name: "key", Kind: ArgConst, Vals: []uint64{0x5ee, 0xbee, 0xcafe}},
			{Name: "cmd", Kind: ArgConst, Vals: []uint64{IPCRmid, IPCSet, IPCStat}},
		},
		Fn: (*Kernel).SysMsgctl,
	},
	SysMountNr: {
		Name: "mount",
		Args: []ArgSpec{},
		Fn:   (*Kernel).SysMount,
	},
	SysMkdirNr: {
		Name: "mkdir",
		Args: []ArgSpec{{Name: "name", Kind: ArgConst, Vals: []uint64{0x11, 0x22, 0x33}}},
		Fn:   (*Kernel).SysMkdir,
	},
	SysRmdirNr: {
		Name: "rmdir",
		Args: []ArgSpec{{Name: "name", Kind: ArgConst, Vals: []uint64{0x11, 0x22, 0x33}}},
		Fn:   (*Kernel).SysRmdir,
	},
	SysOpenatCfsNr: {
		Name: "openat$cfs",
		Args: []ArgSpec{{Name: "name", Kind: ArgConst, Vals: []uint64{0x11, 0x22, 0x33}}},
		Fn:   (*Kernel).SysOpenatCfs,
	},
}

// maxSyscallArgs bounds the arguments of one syscall, so Invoke can spill
// them into an array its Proc owns.
const maxSyscallArgs = 6

func init() {
	for i := range Syscalls {
		if n := len(Syscalls[i].Args); n > maxSyscallArgs {
			panic(fmt.Sprintf("kernel: syscall %s takes %d arguments, maxSyscallArgs is %d", Syscalls[i].Name, n, maxSyscallArgs))
		}
	}
}

// Invoke dispatches syscall nr with resolved argument values. The entry
// path spills the syscall number and arguments to the kernel stack and
// reloads them, as the compiled syscall prologue does — these accesses are
// what the ESP-based stack filter (§4.1.1) prunes from profiles. a is only
// read: the syscall body sees the reloaded values, in an array of p's that
// the next Invoke on p overwrites.
func (k *Kernel) Invoke(p *Proc, nr int, a []uint64) int64 {
	if nr < 0 || nr >= NumSyscalls {
		return errRet(EINVAL)
	}
	spec := &Syscalls[nr]
	t := p.T
	frameSz := 8 * (len(spec.Args) + 1)
	frame := t.PushFrame(frameSz)
	t.Store(insSyscallSaveNr, frame, 8, uint64(nr))
	full := p.args[:len(spec.Args)]
	clear(full)
	copy(full, a)
	for i, v := range full {
		t.Store(insSyscallSpill, frame+8*uint64(i+1), 8, v)
	}
	for i := range full {
		full[i] = t.Load(insSyscallReload, frame+8*uint64(i+1), 8)
	}
	ret := spec.Fn(k, p, full)
	t.PopFrame(frameSz)
	return ret
}

// --- dispatch bodies ---

// SysConnect routes connect(2) by socket kind.
func (k *Kernel) SysConnect(p *Proc, a []uint64) int64 {
	d, ok := p.FD(a[0])
	if !ok {
		return errRet(EBADF)
	}
	switch d.Kind {
	case FDSockTCP:
		return k.TCPConnect(p.T, d.Obj)
	case FDSockRaw6:
		k.Fib6GetCookieSafe(p.T, d.Obj)
		return 0
	case FDSockPPP:
		backing, ok := p.FD(a[2])
		if !ok || (backing.Kind != FDSockUDP && backing.Kind != FDSockTCP) {
			return errRet(EBADF)
		}
		return k.PppoL2tpConnect(p.T, d.Obj, backing.Obj, a[1])
	}
	return errRet(EOPNOTSUP)
}

// SysSendmsg routes sendmsg(2) by socket kind.
func (k *Kernel) SysSendmsg(p *Proc, a []uint64) int64 {
	d, ok := p.FD(a[0])
	if !ok {
		return errRet(EBADF)
	}
	size := a[1]
	if size == 0 {
		size = 64
	}
	switch d.Kind {
	case FDSockTCP:
		return k.TCPSendmsg(p.T, d.Obj, size)
	case FDSockRaw6:
		return k.Rawv6SendHdrinc(p.T, d.Obj, size)
	case FDSockPacket:
		return k.PacketSendmsg(p.T, d.Obj, size)
	case FDSockPPP:
		return k.PppoL2tpSendmsg(p.T, d.Obj, size)
	case FDSockUDP:
		k.DevQueueXmit(p.T, k.G.Eth0, size)
		return int64(size)
	}
	return errRet(EOPNOTSUP)
}

// SysGetsockname routes getsockname(2); on packet sockets it is the issue
// #8 reader.
func (k *Kernel) SysGetsockname(p *Proc, a []uint64) int64 {
	d, ok := p.FD(a[0])
	if !ok {
		return errRet(EBADF)
	}
	if d.Kind == FDSockPacket {
		k.PacketGetname(p.T, d.Obj, p.UserBuf())
		return 0
	}
	return 0
}

// SysSetsockopt routes setsockopt(2) options.
func (k *Kernel) SysSetsockopt(p *Proc, a []uint64) int64 {
	d, ok := p.FD(a[0])
	if !ok {
		return errRet(EBADF)
	}
	opt, val := a[1], a[2]
	switch opt {
	case PacketFanout:
		if d.Kind != FDSockPacket {
			return errRet(EOPNOTSUP)
		}
		return k.FanoutAdd(p.T, d.Obj, val%4+1)
	case PacketFanoutLeave:
		if d.Kind != FDSockPacket {
			return errRet(EOPNOTSUP)
		}
		return k.FanoutRelease(p.T, d.Obj)
	case TCPCongestion:
		if d.Kind != FDSockTCP {
			return errRet(EOPNOTSUP)
		}
		return k.TCPSetCongestionControl(p.T, d.Obj, val)
	case TCPDefaultCC:
		if d.Kind != FDSockTCP {
			return errRet(EOPNOTSUP)
		}
		return k.TCPSetDefaultCongestionControl(p.T, val%4)
	}
	return errRet(EINVAL)
}

// macFromSeed derives a MAC address from an argument value.
func macFromSeed(seed uint64) [EthAlen]byte {
	var mac [EthAlen]byte
	for i := 0; i < EthAlen; i++ {
		mac[i] = byte(seed>>(8*uint(i%2))) ^ byte(0x10*i) ^ byte(seed)
	}
	mac[0] &^= 1 // not multicast
	return mac
}

// SysIoctl routes ioctl(2) by command and descriptor kind.
func (k *Kernel) SysIoctl(p *Proc, a []uint64) int64 {
	d, ok := p.FD(a[0])
	if !ok {
		return errRet(EBADF)
	}
	cmd, arg := a[1], a[2]
	isSock := d.Kind == FDSockTCP || d.Kind == FDSockUDP || d.Kind == FDSockRaw6 ||
		d.Kind == FDSockPacket || d.Kind == FDSockPPP
	switch cmd {
	case SIOCGIFHWADDR:
		if !isSock {
			return errRet(ENOTTY)
		}
		k.DevIfsiocLocked(p.T, k.G.Eth0, p.UserBuf())
		return 0
	case SIOCSIFHWADDR:
		if !isSock {
			return errRet(ENOTTY)
		}
		k.RtnlLock(p.T)
		k.EthCommitMacAddrChange(p.T, k.G.Eth0, macFromSeed(arg))
		k.RtnlUnlock(p.T)
		return 0
	case SIOCETHTOOL:
		if !isSock {
			return errRet(ENOTTY)
		}
		k.RtnlLock(p.T)
		k.E1000SetMac(p.T, k.G.Eth0, macFromSeed(arg^0xA5))
		k.RtnlUnlock(p.T)
		return 0
	case SIOCSIFMTU:
		if !isSock {
			return errRet(ENOTTY)
		}
		k.RtnlLock(p.T)
		rc := k.DevSetMtu(p.T, k.G.Eth0, arg)
		k.RtnlUnlock(p.T)
		return rc
	case SIOCGIFMTU:
		if !isSock {
			return errRet(ENOTTY)
		}
		k.RtnlLock(p.T)
		mtu := k.DevLoadMtu(p.T, k.G.Eth0)
		k.RtnlUnlock(p.T)
		return int64(mtu)
	case SIOCDELRT:
		if d.Kind != FDSockRaw6 {
			return errRet(ENOTTY)
		}
		k.Fib6CleanNode(p.T)
		return 0
	case Ext4IOCSwapBoot:
		if d.Kind != FDFile {
			return errRet(ENOTTY)
		}
		return k.Ext4SwapBootLoader(p.T, k.InodeAddr(d.Ino))
	case BLKBSZSET:
		if d.Kind != FDBlk {
			return errRet(ENOTTY)
		}
		sz := arg
		if sz != 512 && sz != 1024 && sz != 2048 && sz != 4096 {
			sz = 512
		}
		return k.SetBlocksize(p.T, sz)
	case TIOCSSERIAL:
		if d.Kind != FDTTY {
			return errRet(ENOTTY)
		}
		return k.UartDoAutoconfig(p.T)
	case SndCtlElemAddIoctl:
		if d.Kind != FDSnd {
			return errRet(ENOTTY)
		}
		sz := arg % 1024
		if sz == 0 {
			sz = 64
		}
		return k.SndCtlElemAdd(p.T, sz)
	case SndCtlElemRemoveIoctl:
		if d.Kind != FDSnd {
			return errRet(ENOTTY)
		}
		return k.SndCtlElemRemove(p.T, arg%1024+1)
	}
	return errRet(ENOTTY)
}

// SysOpen resolves the small static namespace. Paths 3..6 are ext4 files on
// inodes 1..4; opening a file re-reads the inode (checksum verification).
func (k *Kernel) SysOpen(p *Proc, a []uint64) int64 {
	switch a[0] {
	case 0:
		k.BlkdevGet(p.T)
		return p.InstallFD(FDesc{Kind: FDBlk})
	case 1:
		if rc := k.TTYPortOpen(p.T); rc != 0 {
			return rc
		}
		return p.InstallFD(FDesc{Kind: FDTTY})
	case 2:
		return p.InstallFD(FDesc{Kind: FDSnd})
	case 3, 4, 5, 6:
		ino := int(a[0]) - 2 // inodes 1..4 (inode 0 is the boot loader inode)
		if rc := k.Ext4Iget(p.T, k.InodeAddr(ino)); rc != 0 {
			return rc
		}
		return p.InstallFD(FDesc{Kind: FDFile, Ino: ino})
	}
	return errRet(ENOENT)
}

// SysClose releases a descriptor, detaching packet sockets from fanout
// groups and dropping the tty open count.
func (k *Kernel) SysClose(p *Proc, a []uint64) int64 {
	d, ok := p.FD(a[0])
	if !ok {
		return errRet(EBADF)
	}
	switch d.Kind {
	case FDSockPacket:
		k.FanoutRelease(p.T, d.Obj)
	case FDTTY:
		k.TTYPortClose(p.T)
	}
	p.CloseFD(a[0])
	return 0
}

// SysRead routes read(2): ext4 file reads and raw block-device reads.
func (k *Kernel) SysRead(p *Proc, a []uint64) int64 {
	d, ok := p.FD(a[0])
	if !ok {
		return errRet(EBADF)
	}
	switch d.Kind {
	case FDFile:
		return k.Ext4FileRead(p.T, k.InodeAddr(d.Ino))
	case FDBlk:
		if rc := k.DoMpageReadpage(p.T); rc != 0 {
			return rc
		}
		return k.SubmitBio(p.T, a[1])
	}
	return errRet(EBADF)
}

// SysWrite routes write(2) to the ext4 write path.
func (k *Kernel) SysWrite(p *Proc, a []uint64) int64 {
	d, ok := p.FD(a[0])
	if !ok || d.Kind != FDFile {
		return errRet(EBADF)
	}
	return k.Ext4FileWrite(p.T, k.InodeAddr(d.Ino), a[1], a[2])
}

// SysRename renames between two file paths, rebalancing the source inode's
// extent tree (the issue #3 writer).
func (k *Kernel) SysRename(p *Proc, a []uint64) int64 {
	if a[0] < 3 || a[0] > 6 || a[1] < 3 || a[1] > 6 {
		return errRet(ENOENT)
	}
	return k.Ext4Rename(p.T, k.InodeAddr(int(a[0])-2))
}

// SysFadvise routes fadvise64(2) to generic_fadvise (issue #5 reader).
func (k *Kernel) SysFadvise(p *Proc, a []uint64) int64 {
	if _, ok := p.FD(a[0]); !ok {
		return errRet(EBADF)
	}
	return k.GenericFadvise(p.T, a[1], a[2])
}

// SysMsgget implements msgget(2).
func (k *Kernel) SysMsgget(p *Proc, a []uint64) int64 { return k.MsgGet(p.T, a[0]) }

// SysMsgctl implements msgctl(2) (keyed by the msgget key, see MsgCtl).
func (k *Kernel) SysMsgctl(p *Proc, a []uint64) int64 { return k.MsgCtl(p.T, a[0], a[1]) }

// SysMount remounts the filesystem, the heavyweight full-table verification
// pass (§5.3.1's "heavy sequential tests ... contain the mount() call").
func (k *Kernel) SysMount(p *Proc, a []uint64) int64 { return k.Ext4Remount(p.T) }

// SysMkdir creates a configfs directory.
func (k *Kernel) SysMkdir(p *Proc, a []uint64) int64 { return k.ConfigfsMkdir(p.T, a[0]) }

// SysRmdir removes a configfs directory (issue #11 writer).
func (k *Kernel) SysRmdir(p *Proc, a []uint64) int64 { return k.ConfigfsRmdir(p.T, a[0]) }

// SysOpenatCfs opens a configfs path, driving configfs_lookup (issue #11
// reader).
func (k *Kernel) SysOpenatCfs(p *Proc, a []uint64) int64 {
	rc := k.ConfigfsLookup(p.T, a[0])
	if rc < 0 {
		return rc
	}
	return 0
}
