// Package diagnose renders post-mortem reports for exposed concurrency
// issues (§6 "Bug Diagnosis"): given a bug-exposing trial trace and the PMC
// scheduling hint, it reconstructs the two-column interleaving diagram
// around the communicating accesses — the presentation style of the
// paper's Figures 1 and 3 — so a developer can see which writer store
// interposed into the reader's critical region.
package diagnose

import (
	"fmt"
	"strings"

	"snowboard/internal/detect"
	"snowboard/internal/pmc"
	"snowboard/internal/trace"
)

// Options tunes the rendering.
type Options struct {
	// Context is how many accesses to show around each point of interest.
	Context int
	// MaxRows caps the total rows rendered.
	MaxRows int
}

// DefaultOptions renders ±4 accesses of context, at most 64 rows.
func DefaultOptions() Options { return Options{Context: 4, MaxRows: 64} }

// interesting marks trace indexes that should anchor context windows: PMC
// accesses and the accesses named by the issues.
func interesting(tr *trace.Trace, hint *pmc.PMC, issues []detect.Issue) map[int]string {
	anchors := make(map[int]string)
	match := func(a *trace.Access, k pmc.Key, kind trace.Kind) bool {
		return a.Kind == kind && a.Ins == k.Ins && a.Addr == k.Addr && a.Size == k.Size
	}
	insOfInterest := make(map[trace.Ins]string)
	for _, is := range issues {
		if is.WriteIns != trace.NoIns {
			insOfInterest[is.WriteIns] = "racing write"
		}
		if is.ReadIns != trace.NoIns {
			insOfInterest[is.ReadIns] = "racing read"
		}
	}
	for i, n := 0, tr.Len(); i < n; i++ {
		a := tr.At(i)
		if hint != nil {
			if match(&a, hint.Write, trace.Write) {
				anchors[i] = "PMC write ➊" // ➊
				continue
			}
			if match(&a, hint.Read, trace.Read) {
				anchors[i] = "PMC read ➋" // ➋
				continue
			}
		}
		if tag, ok := insOfInterest[a.Ins]; ok {
			anchors[i] = tag
		}
	}
	return anchors
}

// Render produces the two-column interleaving report. Thread 0 (the
// writer test) occupies the left column, thread 1 the right.
func Render(tr *trace.Trace, hint *pmc.PMC, issues []detect.Issue, opt Options) string {
	if opt.Context <= 0 {
		opt.Context = 4
	}
	if opt.MaxRows <= 0 {
		opt.MaxRows = 64
	}
	anchors := interesting(tr, hint, issues)

	show := make(map[int]bool)
	for idx := range anchors {
		for j := idx - opt.Context; j <= idx+opt.Context; j++ {
			if j >= 0 && j < tr.Len() {
				show[j] = true
			}
		}
	}
	if len(show) == 0 && tr.Len() > 0 {
		// No anchors at all — a nil hint with an empty (or site-less)
		// issue list. Show the head of the trace instead of rendering an
		// empty body that silently hides the whole interleaving; the row
		// cap below still truncates (with a counted marker) when the trace
		// is longer than MaxRows.
		for j := 0; j < tr.Len(); j++ {
			show[j] = true
		}
	}

	var b strings.Builder
	b.WriteString("Concurrent test interleaving (kernel thread 1 | kernel thread 2)\n")
	if hint != nil {
		fmt.Fprintf(&b, "PMC hint: %s\n", hint)
	}
	for _, is := range issues {
		fmt.Fprintf(&b, "finding: [%s] %s", is.Kind, is.Desc)
		if is.BugID != 0 {
			fmt.Fprintf(&b, "  (Table 2 issue #%d)", is.BugID)
		}
		b.WriteString("\n")
	}
	b.WriteString(strings.Repeat("-", 100) + "\n")

	if tr.Len() == 0 {
		b.WriteString("    (empty trace)\n")
		return b.String()
	}
	rows := 0
	prevShown := true
	for i, n := 0, tr.Len(); i < n; i++ {
		if !show[i] {
			if prevShown {
				b.WriteString("    ...\n")
				prevShown = false
			}
			continue
		}
		prevShown = true
		if rows >= opt.MaxRows {
			rest := 0
			for j := i; j < n; j++ {
				if show[j] {
					rest++
				}
			}
			fmt.Fprintf(&b, "    ... (truncated: %d more rows beyond the %d-row cap)\n", rest, opt.MaxRows)
			break
		}
		rows++
		a := tr.At(i)
		line := fmt.Sprintf("%s %s [%#x+%d] = %#x", a.Kind, a.Ins.Name(), a.Addr, a.Size, a.Val)
		if tag, ok := anchors[i]; ok {
			line += "   <== " + tag
		}
		if a.Thread == 0 {
			fmt.Fprintf(&b, "%-78s|\n", "  "+line)
		} else {
			fmt.Fprintf(&b, "%-40s|  %s\n", "", line)
		}
	}
	return b.String()
}
