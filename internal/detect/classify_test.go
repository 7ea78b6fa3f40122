package detect

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	_ "snowboard/internal/kernel" // registers every kernel site at init
	"snowboard/internal/trace"
)

// siteFuncs returns, sorted, each kernel function some registered
// instruction belongs to, with one instruction of it. The test files'
// own sites (detect_test:*, model_*:*) are left out.
func siteFuncs() ([]string, map[string]trace.Ins) {
	ins := make(map[string]trace.Ins)
	for _, id := range trace.RegisteredIns() {
		fn := funcOf(id)
		if strings.HasPrefix(fn, "detect_test") || strings.HasPrefix(fn, "model_") {
			continue
		}
		if _, ok := ins[fn]; !ok {
			ins[fn] = id
		}
	}
	fns := make([]string, 0, len(ins))
	for fn := range ins {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	return fns, ins
}

// classificationDigest hashes the filed Issue of every race, torn read,
// panic and console line a kernel site can produce.
func classificationDigest(t *testing.T) string {
	fns, ins := siteFuncs()
	if len(fns) != 80 {
		t.Fatalf("%d registered site functions, want 80", len(fns))
	}
	h := sha256.New()
	put := func(in string, is Issue) {
		fmt.Fprintf(h, "%s\t%d\t%v\t%q\t%d\n", in, is.BugID, is.Harmful, is.Desc, is.Kind)
	}
	var sc Scratch
	for _, w := range fns {
		for _, r := range fns {
			for _, torn := range []bool{false, true} {
				put(fmt.Sprintf("race %s %s %v", w, r, torn), sc.classify(ins[w], ins[r], torn))
			}
		}
	}
	panics := []string{
		"BUG: kernel NULL pointer dereference, address: 0x0000000000000000",
		"BUG: unable to handle page fault for address: 0x0000000000001000",
		"BUG: kernel stack overflow on thread 0",
	}
	for _, line := range panics {
		for _, fn := range fns {
			for _, last := range [][]trace.Ins{{ins[fn]}, {trace.NoIns, ins[fn]}} {
				for _, is := range CheckConsole([]string{line}, last) {
					put(fmt.Sprintf("panic %s %d", fn, len(last)), is)
				}
			}
		}
	}
	console := []string{
		"EXT4-fs error (device sda): ext4_ext_check_inode:444: inode #2: comm test: pblk 0 bad header/extent: invalid magic - magic 0, entries 0",
		"EXT4-fs error (device sda): swap_inode_boot_loader:316: inode #1: comm test: iget: checksum invalid",
		"blk_update_request: I/O error, dev sda, sector 8 op 0x0:(READ) flags 0x0",
	}
	for _, line := range append(console, panics...) {
		for _, is := range CheckConsole([]string{line}, nil) {
			put("console", is)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestClassificationUnchanged pins where every finding a kernel site can
// produce is filed: its row, harmfulness, description and kind. A change
// to the Table 2 catalogue that moves any finding changes the digest.
func TestClassificationUnchanged(t *testing.T) {
	const want = "e39ead5564cefeaeefc6bf939c34a5a3685b40760c9184c6dcc274623191b0b6"
	if got := classificationDigest(t); got != want {
		t.Fatalf("classification digest %s, want %s", got, want)
	}
}
