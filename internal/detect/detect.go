// Package detect implements the bug oracles of §3.1/§4.4.1: a kernel
// console checker, a lockset-based data race detector (the DataCollider
// stand-in), hang/deadlock oracles, a torn-read witness, and the
// known-issue classifier that maps findings onto the paper's Table 2.
package detect

import (
	"sort"
	"strings"

	"snowboard/internal/trace"
)

// IssueKind classifies a finding.
type IssueKind uint8

// Issue kinds.
const (
	// KindPanic is a kernel crash (oops / BUG / null dereference).
	KindPanic IssueKind = iota
	// KindFSError is a filesystem consistency error on the console.
	KindFSError
	// KindIOError is a block-layer I/O error on the console.
	KindIOError
	// KindDataRace is a lockset-detected data race.
	KindDataRace
	// KindDeadlock means all threads blocked.
	KindDeadlock
	// KindHang means the step budget was exhausted (livelock heuristic).
	KindHang
)

// String names the kind.
func (k IssueKind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindFSError:
		return "fs-error"
	case KindIOError:
		return "io-error"
	case KindDataRace:
		return "data-race"
	case KindDeadlock:
		return "deadlock"
	case KindHang:
		return "hang"
	}
	return "unknown"
}

// Issue is one finding from a trial.
type Issue struct {
	Kind     IssueKind
	Desc     string    // human-readable description (console line or race pair)
	WriteIns trace.Ins // racing write site (data races only)
	ReadIns  trace.Ins // racing read site (data races only)
	BugID    int       // Table 2 issue number, 0 if unclassified
	Harmful  bool      // per the Table 2 classification
	Torn     bool      // a torn multi-part read was directly witnessed
}

// ID returns a stable deduplication key for the issue.
func (i Issue) ID() string {
	if i.Kind == KindDataRace {
		pfx := "race:"
		if i.Torn {
			pfx = "torn:"
		}
		return pfx + i.WriteIns.Name() + "/" + i.ReadIns.Name()
	}
	return i.Kind.String() + ":" + i.Desc
}

// IssueKey is the comparable form of ID: two issues have equal keys exactly
// when their IDs are equal (instruction names are unique per Ins). Dedup
// sets key on it, so an ID string is built per distinct issue, not per sighting.
type IssueKey struct {
	kind IssueKind
	torn bool
	w, r trace.Ins
	desc string
}

// Key returns the issue's comparable deduplication key.
func (i Issue) Key() IssueKey {
	if i.Kind == KindDataRace {
		return IssueKey{kind: i.Kind, torn: i.Torn, w: i.WriteIns, r: i.ReadIns}
	}
	return IssueKey{kind: i.Kind, desc: i.Desc}
}

// funcOf strips the ":operation" suffix from an instruction name, leaving
// the kernel function, which is how findings are matched to Table 2.
func funcOf(ins trace.Ins) string {
	name := ins.Name()
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i]
	}
	return name
}

// SiteOf is funcOf for other packages: the kernel function an instruction
// belongs to, the granularity at which triage signatures and Table 2
// classification match sites.
func SiteOf(ins trace.Ins) string { return funcOf(ins) }

// CrashLevel reports whether the issue kind wedges or corrupts the kernel
// (panic, fs/io corruption, deadlock) as opposed to a benign-by-itself
// observation (data race witness, hang heuristics). Crash-level findings
// are the ones the explorer records repro state for and triage minimizes.
func CrashLevel(k IssueKind) bool {
	switch k {
	case KindPanic, KindFSError, KindIOError, KindDeadlock:
		return true
	}
	return false
}

// CheckConsole scans console lines for crash and corruption signatures,
// each filed under its Table 2 row (panicRow, consoleRow). lastAccess holds,
// indexed by thread id, the final access recorded before a fault (NoIns for
// none), by which a panic is filed.
func CheckConsole(lines []string, lastAccess []trace.Ins) []Issue {
	var out []Issue
	for _, l := range lines {
		switch {
		case strings.Contains(l, "NULL pointer dereference"),
			strings.Contains(l, "unable to handle page fault"),
			strings.HasPrefix(l, "BUG:"):
			out = append(out, Issue{Kind: KindPanic, Desc: l}.filedUnder(panicRow(lastAccess)))
		case strings.Contains(l, "EXT4-fs error"):
			out = append(out, Issue{Kind: KindFSError, Desc: l}.filedUnder(consoleRow(l)))
		case strings.Contains(l, "blk_update_request: I/O error"):
			out = append(out, Issue{Kind: KindIOError, Desc: l}.filedUnder(consoleRow(l)))
		}
	}
	return out
}

// RaceReport is a deduplicated data race found by the lockset detector.
type RaceReport struct {
	Write, Read trace.Access
}

// FindRaces runs the Eraser-style lockset analysis over a trial trace:
// two accesses from different threads to overlapping non-stack memory, at
// least one a plain (unmarked, non-lock-word) write, holding no common
// lock, constitute a data race. Pairs where both sides are marked
// (READ_ONCE/WRITE_ONCE/rcu) are intentional concurrency and skipped,
// mirroring KCSAN's defaults. The locks each access held are derived from
// the trace's lock-word rows (trace.HeldLocks), the same rows the
// happens-before analysis takes its lock edges from.
func FindRaces(tr *trace.Trace) []RaceReport {
	type key struct{ w, r trace.Ins }
	seen := make(map[key]bool)
	var out []RaceReport
	locks := trace.HeldLocks(tr)

	n := tr.Len()
	// Group by overlap via a write index bucketed on address.
	writes := make(map[uint64][]int)
	for i := 0; i < n; i++ {
		if tr.IsWriteAt(i) && !tr.AtomicAt(i) && !tr.StackAt(i) {
			writes[tr.AddrAt(i)] = append(writes[tr.AddrAt(i)], i)
		}
	}
	consider := func(wi, oi int) {
		w, o := tr.At(wi), tr.At(oi)
		if w.Thread == o.Thread || !w.Overlaps(&o) {
			return
		}
		if w.Marked && o.Marked {
			return
		}
		if trace.SharesLock(locks[wi], locks[oi]) {
			return
		}
		// For a write/write conflict the second write fills the "read"
		// side for keying purposes (both clobber the location).
		k := key{w: w.Ins, r: o.Ins}
		if seen[k] {
			return
		}
		seen[k] = true
		out = append(out, RaceReport{Write: w, Read: o})
	}
	for i := 0; i < n; i++ {
		if tr.AtomicAt(i) || tr.StackAt(i) {
			continue
		}
		oAddr, oEnd := tr.AddrAt(i), tr.EndAt(i)
		oWrite := tr.IsWriteAt(i)
		lo := uint64(0)
		if oAddr > 7 {
			lo = oAddr - 7
		}
		for addr := lo; addr < oEnd; addr++ {
			for _, wi := range writes[addr] {
				if wi == i {
					continue
				}
				// Deduplicate write/write pairs: only report with the
				// earlier access as the "write" side.
				if oWrite && wi > i {
					continue
				}
				consider(wi, i)
			}
		}
	}
	// Sort key: (write Ins, read Ins). The `seen` map dedups exactly this
	// pair, so the comparator is total over the slice today. SliceStable
	// keeps the output deterministic even if that invariant ever weakens:
	// ties would then fall back to append order, which follows the trace
	// scan and is itself deterministic — never the sorter's internal
	// permutation.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Write.Ins != out[j].Write.Ins {
			return out[i].Write.Ins < out[j].Write.Ins
		}
		return out[i].Read.Ins < out[j].Read.Ins
	})
	return out
}

// TornRead is a witnessed value corruption: a multi-part read (same
// instruction over adjacent bytes) interleaved with a conflicting writer,
// e.g. Figure 3's corrupted MAC address.
type TornRead struct {
	ReadIns  trace.Ins
	WriteIns trace.Ins
	Addr     uint64
	Len      int
}

// tornLookahead is how many rows past a run's last read FindTornReads looks
// for the reading thread's next access; another thread's accesses in
// between are the interleaving that can tear the read.
const tornLookahead = 16

// FindTornReads scans the trial for runs of same-instruction reads by one
// thread over adjacent ascending addresses (a memcpy loop) with a
// conflicting write from another thread sequenced inside the run — direct
// evidence that the reader observed a mix of old and new bytes. A run
// continues while the thread's next access, within tornLookahead rows, is
// the same instruction reading on from where the last read ended, and it
// is checked once it spans at least three rows: so two reads with another
// thread's overlapping write between them are a torn read too.
//
// Only a thread switch can put another thread's write inside a run, so a
// trial where no switch falls between two reads of a run reports nothing,
// and mayTear finds that in one pass over the switches before any run is
// collected.
func FindTornReads(tr *trace.Trace) []TornRead {
	if !mayTear(tr) {
		return nil
	}
	n := tr.Len()
	var out []TornRead
	for i := 0; i < n; {
		if tr.KindAt(i) != trace.Read || tr.StackAt(i) || tr.AtomicAt(i) {
			i++
			continue
		}
		aThread, aIns := tr.ThreadAt(i), tr.InsAt(i)
		// Collect the run of reads by the same thread+instruction over
		// adjacent ascending addresses (a memcpy loop).
		j := i
		for j+1 < n {
			// Allow interleaved accesses from other threads inside the run.
			next := -1
			for k := j + 1; k < n && k <= j+tornLookahead; k++ {
				if tr.ThreadAt(k) == aThread {
					if extendsRun(tr, j, k) {
						next = k
					}
					break
				}
			}
			if next < 0 {
				break
			}
			j = next
		}
		if j > i+1 { // the run spans at least 3 rows
			lo, hi := tr.AddrAt(i), tr.EndAt(j)
			// Any conflicting write sequenced strictly inside the run?
			for k := i + 1; k < j; k++ {
				if tr.IsWriteAt(k) && tr.ThreadAt(k) != aThread && tr.AddrAt(k) < hi && tr.EndAt(k) > lo {
					out = append(out, TornRead{
						ReadIns:  aIns,
						WriteIns: tr.InsAt(k),
						Addr:     lo,
						Len:      int(hi - lo),
					})
					break
				}
			}
		}
		i = j + 1
	}
	return out
}

// extendsRun reports whether access k, the next access of run member j's
// thread, continues j's run: the same instruction, a read, starting where
// j ended.
func extendsRun(tr *trace.Trace, j, k int) bool {
	return tr.InsAt(k) == tr.InsAt(j) && tr.KindAt(k) == trace.Read && tr.AddrAt(k) == tr.EndAt(j)
}

// mayTear reports whether the trial has a thread switch a run can span: a
// row s whose thread differs from row s-1's, where row s-1 is a read and
// its thread's next access within tornLookahead rows extends it. Every
// torn read FindTornReads reports has one — the writer sits between two
// consecutive reads of the run, so the row after the first of them is
// another thread's — so a trial without one has none.
func mayTear(tr *trace.Trace) bool {
	n := tr.Len()
	if n < 3 {
		return false
	}
	prev := tr.ThreadAt(0)
	for s := 1; s < n; s++ {
		t := tr.ThreadAt(s)
		if t == prev {
			continue
		}
		p, pt := s-1, prev
		prev = t
		if tr.KindAt(p) != trace.Read {
			continue
		}
		for k := s + 1; k < n && k <= p+tornLookahead; k++ {
			if tr.ThreadAt(k) == pt {
				if extendsRun(tr, p, k) {
					return true
				}
				break
			}
		}
	}
	return false
}
