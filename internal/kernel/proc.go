package kernel

import (
	"snowboard/internal/trace"
	"snowboard/internal/vm"
)

// FDKind tags what a file descriptor refers to. The syscall layer checks
// kinds at dispatch, returning EBADF/ENOTTY like the real kernel, and the
// test generator uses kinds to thread resources between calls.
type FDKind uint8

// File descriptor kinds.
const (
	FDNone FDKind = iota
	FDSockTCP
	FDSockUDP // generic inet datagram socket (tunnel backing)
	FDSockRaw6
	FDSockPacket
	FDSockPPP
	FDFile // ext4 regular file
	FDBlk  // /dev/sda
	FDTTY  // /dev/ttyS0
	FDSnd  // /dev/snd/control
)

// FDesc is one open descriptor.
type FDesc struct {
	Kind FDKind
	Obj  uint64 // guest address of the socket private / 0
	Ino  int    // inode index for FDFile
}

// MaxFDs bounds the per-process descriptor table.
const MaxFDs = 16

// Proc is the kernel-side context of one user test process: the kernel
// thread servicing it, its descriptor table, and its private user-space
// scratch region (processes never share user memory, §2.2).
type Proc struct {
	K    *Kernel
	T    *vm.Thread
	Slot int // user-region slot

	fds  []FDesc
	args [maxSyscallArgs]uint64 // Invoke's argument spill for the running syscall
}

// Reset rebinds p to a kernel thread and user slot as a fresh process: no
// open descriptors (the table's storage is kept) and a cleared argument
// spill.
func (p *Proc) Reset(k *Kernel, t *vm.Thread, slot int) {
	p.K, p.T, p.Slot = k, t, slot
	p.fds = p.fds[:0]
	clear(p.args[:])
}

// UserBuf returns the process's user scratch base address.
func (p *Proc) UserBuf() uint64 { return UserRegion(p.Slot) }

// InstallFD appends a descriptor and returns its number.
func (p *Proc) InstallFD(d FDesc) int64 {
	if len(p.fds) >= MaxFDs {
		return errRet(EMFILE)
	}
	p.fds = append(p.fds, d)
	return int64(len(p.fds) - 1)
}

// FD resolves a descriptor number.
func (p *Proc) FD(n uint64) (FDesc, bool) {
	if n >= uint64(len(p.fds)) {
		return FDesc{}, false
	}
	d := p.fds[n]
	return d, d.Kind != FDNone
}

// CloseFD invalidates a descriptor (the slot is not reused, like a simple
// fd table without recycling).
func (p *Proc) CloseFD(n uint64) bool {
	if n >= uint64(len(p.fds)) || p.fds[n].Kind == FDNone {
		return false
	}
	p.fds[n].Kind = FDNone
	return true
}

// --- socket creation ---

// Address families (Linux values).
const (
	AFInet   = 2
	AFInet6  = 10
	AFPacket = 17
	AFPppox  = 24
)

// Socket types.
const (
	SockStream = 1
	SockDgram  = 2
	SockRaw    = 3
)

// PX_PROTO_OL2TP selects the L2TP PPPoX transport.
const PxProtoOL2TP = 1

var (
	insSockAllocState = trace.DefIns("sock_init_data:store_state")
	insSockAllocLock  = trace.DefIns("sock_init_data:init_lock")
)

// SysSocket implements socket(domain, type, protocol).
func (k *Kernel) SysSocket(p *Proc, a []uint64) int64 {
	domain, typ := a[0], a[1]
	t := p.T
	switch {
	case domain == AFInet && typ == SockStream:
		sk := k.Kzalloc(t, tcpSockStructSz)
		if sk == 0 {
			return errRet(ENOMEM)
		}
		t.Store(insSockAllocState, sk+tcpOffState, 8, 0)
		return p.InstallFD(FDesc{Kind: FDSockTCP, Obj: sk})
	case domain == AFInet && typ == SockDgram:
		sk := k.Kzalloc(t, sockStructSz)
		if sk == 0 {
			return errRet(ENOMEM)
		}
		t.Store(insSockAllocLock, sk+sockOffLock, 8, 0)
		return p.InstallFD(FDesc{Kind: FDSockUDP, Obj: sk})
	case domain == AFInet6 && typ == SockRaw:
		sk := k.Kzalloc(t, raw6SockStructSz)
		if sk == 0 {
			return errRet(ENOMEM)
		}
		return p.InstallFD(FDesc{Kind: FDSockRaw6, Obj: sk})
	case domain == AFPacket:
		sk := k.Kzalloc(t, poSockStructSz)
		if sk == 0 {
			return errRet(ENOMEM)
		}
		t.Store(insSockAllocLock, sk+poOffIfindex, 8, 2)
		return p.InstallFD(FDesc{Kind: FDSockPacket, Obj: sk})
	case domain == AFPppox:
		sk := k.Kzalloc(t, pppSockStructSz)
		if sk == 0 {
			return errRet(ENOMEM)
		}
		return p.InstallFD(FDesc{Kind: FDSockPPP, Obj: sk})
	}
	return errRet(EINVAL)
}
