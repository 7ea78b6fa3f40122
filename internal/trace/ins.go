// Package trace defines the fundamental vocabulary of the Snowboard
// pipeline: instruction identities, memory-access records, and the
// filtering utilities applied to raw execution traces before PMC analysis.
//
// Everything above this package (the VM, the simulated kernel, the PMC
// identifier, the schedulers) speaks in terms of these types, mirroring the
// record shape the paper's customized hypervisor produces: address range,
// access type, value read/written, and instruction address (§4.1).
package trace

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"snowboard/internal/wire"
)

// Ins identifies a static memory-access site in the simulated kernel, the
// analogue of an instruction address in the paper. IDs are derived from the
// site's symbolic name so they are stable across processes and runs, which
// lets PMCs be serialized and shipped through the distributed queue.
type Ins uint32

// NoIns is the zero instruction; no registered site ever maps to it.
const NoIns Ins = 0

// ReadIns reads an instruction id as a uvarint and refuses one past 32 bits.
// The SBPM set and a queue outcome's repro PMCs carry ids in this form.
func ReadIns(r *wire.Reader) Ins {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.Fail("instruction out of range")
		return 0
	}
	return Ins(v)
}

var insRegistry = struct {
	sync.RWMutex
	byID   map[Ins]string
	byName map[string]Ins

	// names is an immutable copy of byID for Name, which post-trial code
	// calls from every worker at once: nil after a registration, copied
	// again by the next Name. Sites register at package init, so a running
	// campaign reads one copy and takes no lock.
	names atomic.Pointer[map[Ins]string]
}{
	byID:   make(map[Ins]string),
	byName: make(map[string]Ins),
}

// DefIns registers the access site named name and returns its stable ID.
// Names follow the "kernel_function:operation" convention used in bug
// reports (e.g. "eth_commit_mac_addr_change:memcpy_dev_addr"). Registering
// the same name twice returns the same ID. A hash collision between two
// distinct names panics at init time, which is when all sites register.
func DefIns(name string) Ins {
	insRegistry.Lock()
	defer insRegistry.Unlock()
	if id, ok := insRegistry.byName[name]; ok {
		return id
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	id := Ins(h.Sum32())
	if id == NoIns {
		id = 1
	}
	for {
		prev, taken := insRegistry.byID[id]
		if !taken {
			break
		}
		if prev == name {
			break
		}
		id++ // open addressing on collision; deterministic for a fixed registration order
		if id == NoIns {
			id = 1
		}
	}
	insRegistry.byID[id] = name
	insRegistry.byName[name] = id
	insRegistry.names.Store(nil)
	return id
}

// Name returns the symbolic name of the instruction, or a hex placeholder
// for IDs that were never registered (e.g. decoded from a foreign trace).
func (i Ins) Name() string {
	names := insRegistry.names.Load()
	if names == nil {
		insRegistry.RLock()
		c := maps.Clone(insRegistry.byID)
		insRegistry.names.Store(&c)
		insRegistry.RUnlock()
		names = &c
	}
	if n, ok := (*names)[i]; ok {
		return n
	}
	return fmt.Sprintf("ins_%#x", uint32(i))
}

// Region abstraction: coverage metrics that want subsystem-level rather
// than site-level identity (e.g. interleaving-segment coverage) bucket
// instructions by their *owning region* — the kernel-function prefix of
// the site name, before the ':' in the "kernel_function:operation"
// convention. Region names are themselves interned through DefIns so the
// IDs are stable across processes, which lets segment state be serialized
// into the artifact store and resumed byte-identically.
var regionState = struct {
	once   sync.Once
	seeded map[Ins]Ins // every instruction registered at first use; read-only after once
	mu     sync.RWMutex
	late   map[Ins]Ins // instructions first seen after that
}{late: make(map[Ins]Ins)}

// regionName trims a site name to its owning-region prefix.
func regionName(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == ':' {
			return name[:i]
		}
	}
	return name
}

// seedRegions interns the region of every instruction registered so far in
// ascending-ID order. Kernel sites all register at package init, so doing
// this once on first use gives every process the same region registration
// order regardless of which traces it happens to observe first — open
// addressing in DefIns then resolves identically everywhere.
func seedRegions() {
	ids := RegisteredIns()
	regions := make([]string, len(ids)) // named before any is registered: DefIns drops Name's table
	for k, id := range ids {
		regions[k] = regionName(id.Name())
	}
	regionState.seeded = make(map[Ins]Ins, len(ids))
	for k, id := range ids {
		regionState.seeded[id] = DefIns(regions[k])
	}
}

// RegionOf returns the interned ID of the instruction's owning region.
// Unregistered instructions map to a region named after their hex
// placeholder, so the result is still deterministic. An instruction
// registered before the first call — every kernel site — is answered from
// a table nothing writes any more, without a lock.
func RegionOf(i Ins) Ins {
	regionState.once.Do(seedRegions)
	if r, ok := regionState.seeded[i]; ok {
		return r
	}
	regionState.mu.RLock()
	r, ok := regionState.late[i]
	regionState.mu.RUnlock()
	if ok {
		return r
	}
	r = DefIns(regionName(i.Name()))
	regionState.mu.Lock()
	regionState.late[i] = r
	regionState.mu.Unlock()
	return r
}

// RegisteredIns returns all registered instruction IDs in ascending order.
// It is used by coverage accounting and by tests that validate the registry.
func RegisteredIns() []Ins {
	insRegistry.RLock()
	defer insRegistry.RUnlock()
	out := make([]Ins, 0, len(insRegistry.byID))
	for id := range insRegistry.byID {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
