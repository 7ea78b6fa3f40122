// Package corpus defines sequential test programs — self-sufficient
// snippets of system calls, in the style of Syzkaller programs — and their
// serialization. A corpus of such programs is the input to Snowboard's
// profiling stage (§4.1); pairs of them plus a PMC scheduling hint form
// concurrent tests (§4.4).
package corpus

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"snowboard/internal/kernel"
)

// ArgKind distinguishes literal arguments from resource references.
type ArgKind uint8

// Argument kinds.
const (
	// ConstArg is a literal value.
	ConstArg ArgKind = iota
	// ResultArg references the return value (a file descriptor) of an
	// earlier call in the same program, syzkaller's r0/r1/… convention.
	ResultArg
)

// Arg is one syscall argument.
type Arg struct {
	Kind ArgKind `json:"k"`
	Val  uint64  `json:"v,omitempty"` // literal for ConstArg
	Ref  int     `json:"r,omitempty"` // call index for ResultArg
}

// Const builds a literal argument.
func Const(v uint64) Arg { return Arg{Kind: ConstArg, Val: v} }

// Result builds a resource reference to call index ref.
func Result(ref int) Arg { return Arg{Kind: ResultArg, Ref: ref} }

// Call is one system call invocation.
type Call struct {
	Nr   int   `json:"nr"`
	Args []Arg `json:"args,omitempty"`
}

// Prog is a sequential test: an ordered list of system calls.
type Prog struct {
	Calls []Call `json:"calls"`
}

// Validate checks structural invariants: known syscall numbers, argument
// counts not exceeding the spec, and resource references pointing strictly
// backwards.
func (p *Prog) Validate() error {
	for i, c := range p.Calls {
		if c.Nr < 0 || c.Nr >= kernel.NumSyscalls {
			return fmt.Errorf("corpus: call %d: bad syscall number %d", i, c.Nr)
		}
		spec := &kernel.Syscalls[c.Nr]
		if len(c.Args) > len(spec.Args) {
			return fmt.Errorf("corpus: call %d (%s): %d args, spec has %d", i, spec.Name, len(c.Args), len(spec.Args))
		}
		for j, a := range c.Args {
			if a.Kind == ResultArg && (a.Ref < 0 || a.Ref >= i) {
				return fmt.Errorf("corpus: call %d arg %d: result ref %d out of range", i, j, a.Ref)
			}
		}
	}
	return nil
}

// String renders the program in syzkaller-like notation:
//
//	r0 = socket(0x18, 0x2, 0x1)
//	connect(r0, 0x2, r1)
func (p *Prog) String() string {
	var b strings.Builder
	for i, c := range p.Calls {
		name := "?"
		if c.Nr >= 0 && c.Nr < kernel.NumSyscalls {
			name = kernel.Syscalls[c.Nr].Name
		}
		fmt.Fprintf(&b, "r%d = %s(", i, name)
		for j, a := range c.Args {
			if j > 0 {
				b.WriteString(", ")
			}
			if a.Kind == ResultArg {
				fmt.Fprintf(&b, "r%d", a.Ref)
			} else {
				fmt.Fprintf(&b, "%#x", a.Val)
			}
		}
		b.WriteString(")\n")
	}
	return b.String()
}

// Clone deep-copies the program.
func (p *Prog) Clone() *Prog {
	q := &Prog{Calls: make([]Call, len(p.Calls))}
	for i, c := range p.Calls {
		q.Calls[i] = Call{Nr: c.Nr, Args: append([]Arg(nil), c.Args...)}
	}
	return q
}

// Hash returns a stable identity string for deduplication.
func (p *Prog) Hash() string {
	b, _ := json.Marshal(p)
	return string(b)
}

// Marshal serializes the program to JSON.
func (p *Prog) Marshal() ([]byte, error) { return json.Marshal(p) }

// Corpus is a deduplicated, ordered collection of programs.
type Corpus struct {
	Progs []*Prog
	seen  map[string]bool
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{seen: make(map[string]bool)}
}

// Add inserts the program if it is new, reporting whether it was added.
func (c *Corpus) Add(p *Prog) bool {
	h := p.Hash()
	if c.seen[h] {
		return false
	}
	c.seen[h] = true
	c.Progs = append(c.Progs, p)
	return true
}

// Len reports the number of programs.
func (c *Corpus) Len() int { return len(c.Progs) }

// SyscallHistogram counts calls by syscall name, for reports.
func (c *Corpus) SyscallHistogram() []string {
	counts := make(map[string]int)
	for _, p := range c.Progs {
		for _, call := range p.Calls {
			counts[kernel.Syscalls[call.Nr].Name]++
		}
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = fmt.Sprintf("%s:%d", n, counts[n])
	}
	return out
}
