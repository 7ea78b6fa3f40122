package corpus

import (
	"encoding/json"
	"strings"
	"testing"

	"snowboard/internal/kernel"
)

func validProg() *Prog {
	return &Prog{Calls: []Call{
		{Nr: kernel.SysSocketNr, Args: []Arg{Const(kernel.AFInet), Const(kernel.SockStream), Const(0)}},
		{Nr: kernel.SysConnectNr, Args: []Arg{Result(0), Const(1), Result(0)}},
	}}
}

func TestValidateAccepts(t *testing.T) {
	if err := validProg().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadSyscall(t *testing.T) {
	p := &Prog{Calls: []Call{{Nr: kernel.NumSyscalls}}}
	if p.Validate() == nil {
		t.Fatal("bad syscall number accepted")
	}
	p = &Prog{Calls: []Call{{Nr: -1}}}
	if p.Validate() == nil {
		t.Fatal("negative syscall number accepted")
	}
}

func TestValidateRejectsForwardRef(t *testing.T) {
	p := &Prog{Calls: []Call{
		{Nr: kernel.SysConnectNr, Args: []Arg{Result(0), Const(1), Result(0)}},
	}}
	if p.Validate() == nil {
		t.Fatal("self/forward resource reference accepted")
	}
	p = &Prog{Calls: []Call{
		{Nr: kernel.SysSocketNr},
		{Nr: kernel.SysConnectNr, Args: []Arg{Result(5), Const(1), Result(0)}},
	}}
	if p.Validate() == nil {
		t.Fatal("forward reference accepted")
	}
}

func TestValidateRejectsExtraArgs(t *testing.T) {
	p := &Prog{Calls: []Call{
		{Nr: kernel.SysMountNr, Args: []Arg{Const(1)}}, // mount takes none
	}}
	if p.Validate() == nil {
		t.Fatal("excess arguments accepted")
	}
}

func TestStringFormat(t *testing.T) {
	s := validProg().String()
	if !strings.Contains(s, "r0 = socket(0x2, 0x1, 0x0)") {
		t.Fatalf("rendering:\n%s", s)
	}
	if !strings.Contains(s, "r1 = connect(r0, 0x1, r0)") {
		t.Fatalf("rendering:\n%s", s)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := validProg()
	q := p.Clone()
	q.Calls[0].Args[0] = Const(999)
	q.Calls = append(q.Calls, Call{Nr: kernel.SysMountNr})
	if p.Calls[0].Args[0].Val == 999 || len(p.Calls) != 2 {
		t.Fatal("clone shares state with original")
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	p := validProg()
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Programs cross the queue as JSON fields of a job.
	var q Prog
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	if p.Hash() != q.Hash() {
		t.Fatalf("roundtrip changed the program:\n%s\n%s", p, &q)
	}
}

func TestCorpusDedup(t *testing.T) {
	c := NewCorpus()
	if !c.Add(validProg()) {
		t.Fatal("first add rejected")
	}
	if c.Add(validProg()) {
		t.Fatal("duplicate accepted")
	}
	other := validProg()
	other.Calls[0].Args[0] = Const(kernel.AFInet6)
	if !c.Add(other) {
		t.Fatal("distinct program rejected")
	}
	if c.Len() != 2 {
		t.Fatalf("corpus size %d", c.Len())
	}
}

func TestSyscallHistogram(t *testing.T) {
	c := NewCorpus()
	c.Add(validProg())
	h := c.SyscallHistogram()
	joined := strings.Join(h, " ")
	if !strings.Contains(joined, "socket:1") || !strings.Contains(joined, "connect:1") {
		t.Fatalf("histogram: %v", h)
	}
}
