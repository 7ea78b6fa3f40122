package queue

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"testing"
	"time"
)

// scriptConn is a net.Conn playing one fixed conversation: reads drain in,
// writes land in out, deadlines are no-ops. Server.handle uses nothing
// else, so it runs synchronously until in is exhausted.
type scriptConn struct {
	net.Conn
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *scriptConn) Read(b []byte) (int, error)        { return c.in.Read(b) }
func (c *scriptConn) Write(b []byte) (int, error)       { return c.out.Write(b) }
func (c *scriptConn) Close() error                      { return nil }
func (c *scriptConn) SetReadDeadline(t time.Time) error { return nil }

// fuzzFrameCap is the deliberately small frame cap FuzzQueueWire serves
// with, so the fuzzer reaches the oversized-frame and trailer clamps, not
// just the JSON decoder.
const fuzzFrameCap = 512

// FuzzQueueWire throws one frame — a header line (newlines blanked) and
// whatever trailer bytes follow it — at the TCP codec, against a registry
// holding one named queue and the unnamed one, two jobs pending in each.
// The server must never panic, must answer every frame with a well-formed
// response (its trailer as long as the header says), and must answer the
// first frame {"ok":false,...} when it is malformed: bad JSON, an op that
// is not lease/settle/nack/extend (v2's report and ack, push, pop), a
// queue the registry does not hold, a version other than its own, a header
// or declared trailer over the cap, a negative or truncated trailer, a
// trailer on anything but a settle, or settle items whose lengths are
// negative, overflowing, carried by no result, or do not sum to the
// trailer. That a declared length never sizes an allocation is checked
// where the clamp is enforced, by TestTrailerClampAllocatesNothing.
func FuzzQueueWire(f *testing.F) {
	for _, hdr := range []string{
		`{"op":"pop"}`,
		`{"op":"push","job":{"id":1}}`,
		`{"op":"report","result":{"id":1}}`,
		`{"op":"lease","v":2}`,
		`{"op":"ack","lease":1,"v":2}`,
		`{"op":"nack","lease":7,"reason":"crash","v":8}`,
		`{"op":"extend","lease":7,"ms":500}`,
		`{"op":"pop","v":99}`,
		`{"op":"lease","lease":18446744073709551615}`,
		string(bytes.Repeat([]byte(`{"op":"pop"} `), 64)),
		string(bytes.Repeat([]byte("a"), 600)),
		`{"op":`,
		`null`,
		`"pop"`,
		"\x00\xff garbage \x7f",
		`{"op":"lease","queue":"known","v":8}`,
		`{"op":"report","queue":"known","result":{"job_id":1}}`,
		`{"op":"lease","queue":"missing","v":8}`,
		`{"op":"push","queue":"known","v":8,"job":{"id":1,"corpus":"ab"}}`,
		// A job naming an adoption list, pushed over the wire, which no op
		// does.
		`{"op":"push","queue":"known","v":8,"job":{"id":3,"adopt":"0123456789abcdef0123456789abcdef"}}`,
	} {
		f.Add([]byte(hdr), []byte(nil))
	}
	for _, s := range []struct{ hdr, trailer string }{
		// Well-formed v8 frames.
		{`{"op":"lease","n":4,"v":8}`, ``},
		{`{"op":"lease","queue":"known","n":2,"v":8}`, ``},
		{`{"op":"settle","queue":"known","items":[{"lease":1,"result":{"job_id":1,"trials":2},"len":5},{"lease":2}],"trailer":5,"v":8}`, `hello`},
		// Declared lengths over the cap.
		{`{"op":"settle","items":[{"result":{"job_id":1},"len":1048576}],"trailer":1048576,"v":8}`, `x`},
		{`{"op":"settle","items":[{"result":{"job_id":1},"len":1}],"trailer":9223372036854775807,"v":8}`, `x`},
		{`{"op":"settle","trailer":1e30,"v":8}`, `x`},
		// Negative or overflowing item lengths.
		{`{"op":"settle","items":[{"result":{"job_id":1},"len":-3},{"result":{"job_id":2},"len":5}],"trailer":2,"v":8}`, `ab`},
		{`{"op":"settle","items":[{"result":{"job_id":1},"len":9223372036854775807},{"result":{"job_id":2},"len":2}],"trailer":1,"v":8}`, `a`},
		{`{"op":"settle","trailer":-5,"v":8}`, `abcde`},
		// Item lengths that do not sum to the trailer, or ride no result.
		{`{"op":"settle","items":[{"result":{"job_id":1},"len":2},{"result":{"job_id":2},"len":2}],"trailer":5,"v":8}`, `abcde`},
		{`{"op":"settle","items":[{"lease":1,"len":3}],"trailer":3,"v":8}`, `abc`},
		// A truncated trailer, and a trailer on an op that takes none.
		{`{"op":"settle","items":[{"result":{"job_id":1},"len":10}],"trailer":10,"v":8}`, `abc`},
		{`{"op":"lease","trailer":3,"v":8}`, `abc`},
		// A v7 worker's lease: it would look for the adoption list in the
		// job. A v6 worker's: it would explore without the PMCs a job may
		// adopt. A v5 worker's: it would explore on a kernel of its own.
		{`{"op":"lease","n":4,"v":7}`, ``},
		{`{"op":"lease","n":4,"have":"00","v":8}`, ``},
		{`{"op":"lease","n":4,"v":6}`, ``},
		{`{"op":"lease","n":4,"v":5}`, ``},
		// A v4 worker's lease and settle: its outcomes are JSON.
		{`{"op":"lease","n":4,"v":4}`, ``},
		{`{"op":"settle","items":[{"lease":1,"result":{"job_id":1,"trials":3},"len":12}],"trailer":12,"v":4}`, `{"Trials":3}`},
		// v2 report and ack frames.
		{`{"op":"report","v":2,"result":{"job_id":1,"trials":3,"outcome":{"Trials":3}}}`, ``},
		{`{"op":"ack","queue":"known","lease":1,"v":2}`, ``},
		{`{"op":"report","v":8,"result":{"job_id":1,"trials":3,"outcome":{"Trials":3}}}`, ``},
		{`{"op":"ack","queue":"known","lease":1,"v":8}`, ``},
	} {
		f.Add([]byte(s.hdr), []byte(s.trailer))
	}
	f.Fuzz(func(t *testing.T, header, trailer []byte) {
		// One header line: the protocol is line-delimited, so embedded
		// newlines would split it into several requests.
		frame := bytes.ReplaceAll(header, []byte("\n"), []byte(" "))
		frame = bytes.ReplaceAll(frame, []byte("\r"), []byte(" "))
		input := append(append(frame, '\n'), trailer...)

		reg := &Registry{queues: map[string]*Queue{
			"":      NewWithOptions(Options{Name: "fuzz"}),
			"known": NewWithOptions(Options{Name: "fuzz.known"}),
		}}
		defer reg.Close()
		for _, q := range reg.queues {
			// Job 2 names an adoption list, so a lease answer may carry it.
			list := adoptList(2)
			if err := q.PushList(list); err != nil {
				t.Fatal(err)
			}
			for _, j := range []Job{testJob(1), adoptingJob(2, list)} {
				if err := q.Push(j); err != nil {
					t.Fatal(err)
				}
			}
		}
		s := &Server{reg: reg, frameCap: fuzzFrameCap}
		conn := &scriptConn{in: bytes.NewReader(input)}
		s.handle(conn)

		out := bufio.NewReader(&conn.out)
		var first wireResp
		for n := 0; ; n++ {
			line, err := out.ReadBytes('\n')
			if err == io.EOF && len(line) == 0 {
				if n == 0 {
					t.Fatalf("no response to frame %q + %q", frame, trailer)
				}
				break
			}
			var resp wireResp
			if err := json.Unmarshal(line, &resp); err != nil {
				t.Fatalf("response to %q is not valid JSON: %q (%v)", frame, line, err)
			}
			if resp.OK && resp.Err != "" {
				t.Fatalf("contradictory response to %q: ok with err=%q", frame, resp.Err)
			}
			sum := 0
			for _, g := range resp.Leases {
				sum += g.Len
			}
			if resp.Trailer != sum+resp.Adopt {
				t.Fatalf("response %q declares a %d-byte trailer for %d bytes of jobs and %d of adoption list", line, resp.Trailer, sum, resp.Adopt)
			}
			if _, err := io.CopyN(io.Discard, out, int64(resp.Trailer)); err != nil {
				t.Fatalf("response %q: trailer short: %v", line, err)
			}
			if n == 0 {
				first = resp
			}
		}
		if first.OK {
			if why := malformed(frame, trailer, reg); why != "" {
				t.Fatalf("frame %q + %q (%s) answered with ok=true", frame, trailer, why)
			}
		}
	})
}

// malformed says why a frame must not be answered ok, or "" if it may be.
func malformed(frame, trailer []byte, reg *Registry) string {
	var req wireReq
	if json.Unmarshal(frame, &req) != nil {
		return "bad JSON"
	}
	switch {
	case req.Op != "lease" && req.Op != "settle" && req.Op != "nack" && req.Op != "extend":
		return "unknown op"
	case reg.Get(req.Queue) == nil:
		return "unknown queue"
	case req.V != 0 && req.V != ProtoVersion:
		return "another version"
	case len(frame)+1 > fuzzFrameCap || req.Trailer > fuzzFrameCap-len(frame)-1:
		return "over the cap"
	case req.Trailer < 0 || req.Trailer > len(trailer):
		return "negative or truncated trailer"
	case req.Trailer > 0 && req.Op != "settle":
		return "trailer on a " + req.Op
	}
	left := req.Trailer
	for _, it := range req.Items {
		if req.Op != "settle" {
			break
		}
		if it.Len < 0 || it.Len > left || (it.Len > 0 && it.Result == nil) {
			return "bad item length"
		}
		left -= it.Len
	}
	if req.Op == "settle" && left != 0 {
		return "items do not sum to the trailer"
	}
	return ""
}
