// Package kernel implements the miniature operating system kernel that
// stands in for the Linux guest of the paper. All kernel state lives in
// simulated guest memory (objects are bytes at addresses, fields at fixed
// offsets), so memory traces, torn reads, and null-pointer dereferences are
// physical phenomena of the substrate rather than mocks.
//
// The kernel carries the seventeen concurrency issues of the paper's
// Table 2, re-implemented mechanism-for-mechanism (see DESIGN.md), gated by
// the simulated kernel version: issues present only in 5.3.10 or only in
// 5.12-rc3 appear only under the matching Config.
package kernel

import (
	"fmt"

	"snowboard/internal/vm"
)

// Guest address-space layout. The null page is never mapped, so dereferences
// of small addresses fault like real kernel null-pointer bugs.
const (
	GlobalsBase = 0x0001_0000 // static kernel data
	GlobalsSize = 1 << 16

	StackBase  = 0x0010_0000 // thread i's 8KB stack at StackBase + i*8KB
	MaxThreads = 8

	HeapBase = 0x0100_0000 // kmalloc arena
	HeapSize = 1 << 22

	UserBase     = 0x1000_0000 // per-process user scratch regions
	UserProcSize = 1 << 16
	MaxProcs     = 4
)

// Version identifies which simulated kernel is under test. The two versions
// evaluated by the paper carry different subsets of the seeded issues.
type Version string

// The kernel versions evaluated in the paper (§5.1).
const (
	V5_3_10   Version = "5.3.10"
	V5_12_RC3 Version = "5.12-rc3"
)

// ParseVersion resolves a version string from outside the program (a flag,
// a campaign spec) to one of the simulated kernels; any other string would
// boot a kernel that carries none of the version-gated issues.
func ParseVersion(s string) (Version, error) {
	switch v := Version(s); v {
	case V5_3_10, V5_12_RC3:
		return v, nil
	}
	return "", fmt.Errorf("unknown kernel version %q", s)
}

// Config selects the simulated kernel build.
type Config struct {
	Version Version
}

// Kernel binds a machine to the simulated kernel's global state. All global
// addresses are assigned deterministically at Boot, so a Kernel built for a
// machine remains valid across snapshot restores of that machine.
type Kernel struct {
	M   *vm.Machine
	Cfg Config

	cursor uint64 // static allocation cursor inside the globals region

	G Globals
}

// Globals holds the guest addresses of every static kernel object, grouped
// by subsystem. Field names follow the Linux identifiers they model.
type Globals struct {
	// mm / slab
	SlabFreeObjects uint64 // unsynchronized counter (issue #13)
	SlabLock        uint64 // guards freelists (but not the counter)
	SlabNumAllocs   uint64
	HeapNext        uint64 // bump pointer
	Freelists       uint64 // per-class freelist heads, sizeClasses entries

	// net core
	RtnlLock uint64
	Eth0     uint64 // struct net_device

	// l2tp
	L2tpTunnelList uint64 // RCU list head (issue #12 publishes here)
	L2tpListLock   uint64

	// ipv6 / fib6
	Fib6Root uint64
	Fib6Lock uint64

	// af_packet
	FanoutMutex uint64
	FanoutList  uint64 // head of fanout groups

	// tcp
	TCPDefaultCA uint64 // 8-byte congestion-control name (issue #16)

	// ext4 + block
	Ext4Sb     uint64 // struct super_block
	Ext4Inodes uint64 // inode table, NumInodes entries of InodeSize bytes
	Bdev       uint64 // struct block_device

	// ipc + rhashtable
	MsgHT     uint64 // struct rhashtable for message queues
	MsgIDSeq  uint64 // next message-queue id
	IpcLock   uint64
	MsgHTLock uint64

	// configfs
	ConfigfsDir uint64 // root directory header

	// tty / serial
	UartPort uint64

	// sound
	SndCard uint64
}

// Boot lays out and initializes the kernel in the machine's memory and
// returns the bound Kernel. Initialization writes memory directly (the
// machine's "firmware"), so boot is not part of any trace. After Boot the
// caller typically takes the VM snapshot that all tests start from (§4.1).
func Boot(m *vm.Machine, cfg Config) *Kernel {
	if cfg.Version == "" {
		cfg.Version = V5_12_RC3
	}
	m.Mem.AddRegion("globals", GlobalsBase, GlobalsBase+GlobalsSize)
	m.Mem.AddRegion("stacks", StackBase, StackBase+MaxThreads*8192)
	m.Mem.AddRegion("heap", HeapBase, HeapBase+HeapSize)
	m.Mem.AddRegion("user", UserBase, UserBase+MaxProcs*UserProcSize)

	k := &Kernel{M: m, Cfg: cfg, cursor: GlobalsBase}
	k.bootMM()
	k.bootNetdev()
	k.bootL2TP()
	k.bootIPv6()
	k.bootPacket()
	k.bootTCP()
	k.bootExt4()
	k.bootBlock()
	k.bootIPC()
	k.bootConfigfs()
	k.bootTTY()
	k.bootSound()
	m.Console.Printf("Linux version %s (snowboard-sim)", cfg.Version)
	return k
}

// staticAlloc reserves size bytes (8-byte aligned) of static kernel data.
func (k *Kernel) staticAlloc(size int) uint64 {
	a := (k.cursor + 7) &^ 7
	k.cursor = a + uint64(size)
	if k.cursor > GlobalsBase+GlobalsSize {
		panic(fmt.Sprintf("kernel: globals region overflow at %#x", k.cursor))
	}
	return a
}

// put initializes a static 8-byte word during boot (untraced).
func (k *Kernel) put(addr uint64, val uint64) { k.M.Mem.Write(addr, 8, val) }

// bootAlloc carves a heap object during boot, keeping the allocator's bump
// pointer consistent with objects kmalloc'd later. Boot-created objects
// (pre-registered tunnels, message queues, configfs entries) make the
// initial kernel state realistic: lookups walk non-trivial structures, so
// instructions execute against many memory targets, not just the one a
// test creates.
func (k *Kernel) bootAlloc(size int) uint64 {
	_, csize := sizeClass(size)
	addr := k.M.Mem.Read(k.G.HeapNext, 8)
	k.put(k.G.HeapNext, addr+uint64(csize))
	return addr
}

// StackFor returns the stack base for machine thread tid.
func StackFor(tid int) uint64 {
	if tid < 0 || tid >= MaxThreads {
		panic(fmt.Sprintf("kernel: thread id %d out of range", tid))
	}
	return StackBase + uint64(tid)*8192
}

// UserRegion returns the user scratch region base of process slot p.
func UserRegion(slot int) uint64 {
	if slot < 0 || slot >= MaxProcs {
		panic(fmt.Sprintf("kernel: proc slot %d out of range", slot))
	}
	return UserBase + uint64(slot)*UserProcSize
}

// printk appends a formatted line to the guest console.
func (k *Kernel) printk(format string, args ...any) {
	k.M.Console.Printf(format, args...)
}

// is5_3 reports whether the simulated build is the 5.3.10 stable kernel.
func (k *Kernel) is5_3() bool { return k.Cfg.Version == V5_3_10 }

// is5_12 reports whether the simulated build is the 5.12-rc3 kernel.
func (k *Kernel) is5_12() bool { return k.Cfg.Version == V5_12_RC3 }
