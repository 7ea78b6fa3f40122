package wire

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

var errBad = errors.New("test: malformed")

// TestReaderReadsWhatAppendWrote: every read returns what the matching
// append wrote, and Done accepts the input read to its end.
func TestReaderReadsWhatAppendWrote(t *testing.T) {
	b := []byte("SBXX\x03")
	b = append(b, 0xAB)
	b = AppendBool(AppendBool(b, true), false)
	b = binary.AppendUvarint(b, 1<<40)
	b = binary.AppendVarint(b, -7)
	b = binary.AppendUvarint(b, 3)
	b = append(b, "abc"...)

	r := NewFramed(b, "SBXX", 3, errBad)
	if got := r.Byte(); got != 0xAB {
		t.Errorf("Byte = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool did not read true, false")
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != -7 {
		t.Errorf("Varint = %d", got)
	}
	if got := string(r.Bytes(r.Count(1))); got != "abc" {
		t.Errorf("Bytes = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderLatchesFirstError: each malformed input fails with the
// format's sentinel and the first failure's reason, and every read after
// it returns zero.
func TestReaderLatchesFirstError(t *testing.T) {
	for _, c := range []struct {
		name string
		in   []byte
		read func(*Reader)
		want string
	}{
		{"empty byte", nil, func(r *Reader) { r.Byte() }, "truncated"},
		{"bool of 2", []byte{2}, func(r *Reader) { r.Bool() }, "bool out of range"},
		{"truncated uvarint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, "truncated or overlong uvarint"},
		{"overlong varint", []byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f"), func(r *Reader) { r.Varint() }, "truncated or overlong varint"},
		{"count past the input", []byte{3, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count(3) }, "count past the input"},
		{"short bytes", []byte{1, 2}, func(r *Reader) { r.Bytes(3) }, "truncated"},
		{"trailing bytes", []byte{1, 2}, func(r *Reader) { r.Byte() }, "1 trailing bytes"},
		{"first failure wins", []byte{9}, func(r *Reader) { r.Fail("first"); r.Fail("second") }, "first"},
	} {
		r := NewReader(c.in, errBad)
		c.read(r)
		err := r.Done()
		if r.Byte() != 0 || r.Uvarint() != 0 || r.Count(1) != 0 || r.Bytes(0) != nil || r.Done() != err {
			t.Errorf("%s: a read after the error returned a value", c.name)
		}
		if !errors.Is(err, errBad) || !strings.HasSuffix(err.Error(), ": "+c.want) {
			t.Errorf("%s: Done = %v, want %v: %s", c.name, err, errBad, c.want)
		}
	}
}

// TestCountKeepsItsMinimum: a count exactly the unread bytes can hold at
// minBytes an element is accepted.
func TestCountKeepsItsMinimum(t *testing.T) {
	r := NewReader([]byte{2, 0, 0, 0, 0, 0, 0}, errBad)
	if n := r.Count(3); n != 2 {
		t.Fatalf("Count = %d, want 2", n)
	}
	r.Bytes(6)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestNewFramedChecksHeader: a wrong magic or version fails.
func TestNewFramedChecksHeader(t *testing.T) {
	for _, in := range []string{"", "SBX", "SBYY\x03", "SBXX\x04"} {
		if err := NewFramed([]byte(in), "SBXX", 3, errBad).Done(); !errors.Is(err, errBad) {
			t.Errorf("%q: err = %v, want %v", in, err, errBad)
		}
	}
}
