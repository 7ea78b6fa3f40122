package diagnose

import (
	"strings"
	"testing"

	"snowboard/internal/detect"
	"snowboard/internal/pmc"
	"snowboard/internal/trace"
)

var (
	dgW = trace.DefIns("diag_test:publish")
	dgR = trace.DefIns("diag_test:lookup")
	dgX = trace.DefIns("diag_test:noise")
)

func diagTrace() *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < 20; i++ {
		tr.Record(0, dgX, trace.Write, 0x900+uint64(i), 1, 0, false, false, false, false, 0)
	}
	tr.Record(0, dgW, trace.Write, 0x100, 8, 0x42, false, false, false, false, 0)
	tr.Record(1, dgR, trace.Read, 0x100, 8, 0x42, false, false, false, false, 0)
	for i := 0; i < 20; i++ {
		tr.Record(1, dgX, trace.Read, 0x900+uint64(i), 1, 0, false, false, false, false, 0)
	}
	return tr
}

func diagHint() *pmc.PMC {
	return &pmc.PMC{
		Write: pmc.Key{Ins: dgW, Addr: 0x100, Size: 8, Val: 0x42},
		Read:  pmc.Key{Ins: dgR, Addr: 0x100, Size: 8, Val: 0},
	}
}

func TestRenderAnchorsAndElision(t *testing.T) {
	out := Render(diagTrace(), diagHint(), []detect.Issue{
		{Kind: detect.KindPanic, Desc: "BUG: kernel NULL pointer dereference", BugID: 12},
	}, DefaultOptions())

	if !strings.Contains(out, "PMC write") || !strings.Contains(out, "PMC read") {
		t.Fatalf("anchors missing:\n%s", out)
	}
	if !strings.Contains(out, "...") {
		t.Fatalf("uninteresting context not elided:\n%s", out)
	}
	if !strings.Contains(out, "Table 2 issue #12") {
		t.Fatalf("finding line missing:\n%s", out)
	}
	if !strings.Contains(out, "diag_test:publish") {
		t.Fatalf("write site missing:\n%s", out)
	}
	// The reader's column is indented relative to the writer's.
	var readerLine string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "diag_test:lookup") {
			readerLine = l
		}
	}
	if !strings.HasPrefix(readerLine, strings.Repeat(" ", 40)) {
		t.Fatalf("reader line not in right column: %q", readerLine)
	}
}

func TestRenderRowCap(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 500; i++ {
		tr.Record(0, dgW, trace.Write, 0x100, 8, 0, false, false, false, false, 0)
	}
	out := Render(tr, diagHint(), nil, Options{Context: 2, MaxRows: 10})
	if !strings.Contains(out, "(truncated: ") {
		t.Fatal("row cap not applied")
	}
	if n := strings.Count(out, "diag_test:publish"); n > 12 {
		t.Fatalf("too many rows rendered: %d", n)
	}
}

func TestRenderNilHintEmptyIssues(t *testing.T) {
	// No hint and no issues means no anchors; the renderer must fall back
	// to the head of the trace instead of an empty body.
	tr := &trace.Trace{}
	for i := 0; i < 8; i++ {
		tr.Record(i%2, dgW, trace.Write, 0x100, 8, 0, false, false, false, false, 0)
	}
	out := Render(tr, nil, nil, Options{Context: 2, MaxRows: 64})
	if n := strings.Count(out, "diag_test:publish"); n != 8 {
		t.Fatalf("head fallback rendered %d rows, want 8:\n%s", n, out)
	}
	if strings.Contains(out, "(truncated") {
		t.Fatalf("short trace reported truncation:\n%s", out)
	}
}

func TestRenderNilHintLongTraceTruncates(t *testing.T) {
	tr := &trace.Trace{}
	for i := 0; i < 50; i++ {
		tr.Record(0, dgW, trace.Write, 0x100, 8, 0, false, false, false, false, 0)
	}
	out := Render(tr, nil, nil, Options{Context: 2, MaxRows: 10})
	if n := strings.Count(out, "diag_test:publish"); n != 10 {
		t.Fatalf("rendered %d rows, want exactly MaxRows=10:\n%s", n, out)
	}
	if !strings.Contains(out, "(truncated: ") {
		t.Fatalf("no truncation marker:\n%s", out)
	}
}

func TestRenderEmptyTrace(t *testing.T) {
	out := Render(&trace.Trace{}, nil, nil, DefaultOptions())
	if !strings.Contains(out, "(empty trace)") {
		t.Fatalf("empty trace not marked:\n%s", out)
	}
}

func TestRenderAnchoredTruncationCountsHiddenRows(t *testing.T) {
	// Anchors spread across a long trace: the cap must say how many
	// anchored rows it hid rather than silently clipping.
	tr := &trace.Trace{}
	for i := 0; i < 300; i++ {
		tr.Record(0, dgW, trace.Write, 0x100, 8, 0, false, false, false, false, 0)
	}
	out := Render(tr, diagHint(), nil, Options{Context: 1, MaxRows: 5})
	if !strings.Contains(out, "(truncated: ") || !strings.Contains(out, "more rows beyond the 5-row cap") {
		t.Fatalf("truncation marker missing or uncounted:\n%s", out)
	}
}
