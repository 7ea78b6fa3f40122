package vm

import (
	"fmt"
	"strings"
)

// Console is the guest kernel console. The simulated kernel's printk writes
// here, and the console checker oracle (§4.4.1 "We implement is_bug by
// capturing guest-kernel console output") scans it after each trial.
type Console struct {
	lines []string
}

// Printf appends one formatted line to the console.
func (c *Console) Printf(format string, args ...any) {
	c.lines = append(c.lines, fmt.Sprintf(format, args...))
}

// Lines returns all console lines in emission order.
func (c *Console) Lines() []string { return c.lines }

// Reset clears the console (done on snapshot restore: the console is host
// state, not guest memory).
func (c *Console) Reset() { c.lines = c.lines[:0] }

// String joins all lines with newlines, for reports.
func (c *Console) String() string { return strings.Join(c.lines, "\n") }
