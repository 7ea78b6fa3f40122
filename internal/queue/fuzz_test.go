package queue

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"testing"
	"time"
)

// FuzzQueueWire throws arbitrary bytes at the TCP codec as a single
// line-delimited frame, against a registry holding one named queue and the
// unnamed one: the server must never panic, must answer exactly one
// response per frame, and must answer every malformed frame, every "push"
// and every request naming a queue it does not hold with {"ok":false,...}
// on the still-open connection.
func FuzzQueueWire(f *testing.F) {
	f.Add([]byte(`{"op":"pop"}`))
	f.Add([]byte(`{"op":"push","job":{"id":1}}`))
	f.Add([]byte(`{"op":"report","result":{"id":1}}`))
	f.Add([]byte(`{"op":"lease","v":2}`))
	f.Add([]byte(`{"op":"ack","lease":1,"v":2}`))
	f.Add([]byte(`{"op":"nack","lease":7,"reason":"crash","v":2}`))
	f.Add([]byte(`{"op":"extend","lease":7,"ms":500}`))
	f.Add([]byte(`{"op":"pop","v":99}`))
	f.Add([]byte(`{"op":"lease","lease":18446744073709551615}`))
	f.Add(bytes.Repeat([]byte(`{"op":"pop"} `), 64))
	f.Add(bytes.Repeat([]byte("a"), 600))
	f.Add([]byte(`{"op":`))
	f.Add([]byte(`null`))
	f.Add([]byte(`"pop"`))
	f.Add([]byte("\x00\xff garbage \x7f"))
	f.Add([]byte(`{"op":"lease","queue":"known","v":2}`))
	f.Add([]byte(`{"op":"report","queue":"known","result":{"job_id":1}}`))
	f.Add([]byte(`{"op":"lease","queue":"missing","v":2}`))
	f.Add([]byte(`{"op":"push","queue":"known","v":2,"job":{"id":1,"corpus":"ab"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		// One frame: the protocol is line-delimited, so embedded newlines
		// would split the input into several requests.
		frame := bytes.ReplaceAll(data, []byte("\n"), []byte(" "))
		frame = bytes.ReplaceAll(frame, []byte("\r"), []byte(" "))

		// A deliberately small frame cap so the fuzzer exercises the
		// oversized-frame discard path, not just the JSON decoder.
		reg := &Registry{queues: map[string]*Queue{
			"":      NewWithOptions(Options{Name: "fuzz"}),
			"known": NewWithOptions(Options{Name: "fuzz.known"}),
		}}
		defer reg.Close()
		s := &Server{reg: reg, frameCap: 512}
		cli, srv := net.Pipe()
		done := make(chan struct{})
		go func() {
			s.handle(srv)
			close(done)
		}()
		_ = cli.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := cli.Write(append(frame, '\n')); err != nil {
			t.Fatalf("write: %v", err)
		}
		line, err := bufio.NewReader(cli).ReadBytes('\n')
		if err != nil {
			t.Fatalf("no response to frame %q: %v", frame, err)
		}
		var resp wireResp
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatalf("response to %q is not valid JSON: %q (%v)", frame, line, err)
		}
		var req wireReq
		if json.Unmarshal(append(frame, '\n'), &req) != nil && resp.OK {
			t.Fatalf("malformed frame %q answered with ok=true", frame)
		}
		if resp.OK && (req.Op == "push" || reg.Get(req.Queue) == nil) {
			t.Fatalf("frame %q (op %q, queue %q) answered with ok=true", frame, req.Op, req.Queue)
		}
		if resp.OK && resp.Err != "" {
			t.Fatalf("contradictory response to %q: ok with err=%q", frame, resp.Err)
		}
		_ = cli.Close()
		<-done
	})
}
