package queue

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"snowboard/internal/obs"
)

// rawDial opens a plain TCP connection so tests can send protocol-violating
// bytes the Client type would never produce. The caller must close the
// connection before the server: Server.Close waits for in-flight handlers.
func rawDial(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn, bufio.NewReader(conn)
}

// readResp reads one response header and skips the trailer it declares.
func readResp(t *testing.T, r *bufio.Reader) wireResp {
	t.Helper()
	line, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	var resp wireResp
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatalf("decode response %q: %v", line, err)
	}
	if _, err := io.CopyN(io.Discard, r, int64(resp.Trailer)); err != nil {
		t.Fatalf("response %q: trailer: %v", line, err)
	}
	return resp
}

func TestTCPBadRequest(t *testing.T) {
	q := New()
	srv, err := Serve(q, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	badBefore := obs.C(obs.MQueueNetBadReq).Value()
	conn, r := rawDial(t, srv.Addr())
	defer conn.Close()

	// Malformed JSON must get an explicit error, not a silent drop.
	if _, err := conn.Write([]byte("{not json\n")); err != nil {
		t.Fatal(err)
	}
	resp := readResp(t, r)
	if resp.OK || !strings.HasPrefix(resp.Err, "bad request:") {
		t.Fatalf("bad request response = %+v", resp)
	}
	if got := obs.C(obs.MQueueNetBadReq).Value(); got != badBefore+1 {
		t.Fatalf("bad_requests = %d, want %d", got, badBefore+1)
	}

	// The connection stays usable: a valid request afterwards still works.
	if _, err := conn.Write([]byte(`{"op":"lease"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	resp = readResp(t, r)
	if resp.OK || resp.Err != ErrEmpty.Error() {
		t.Fatalf("lease after bad request = %+v, want err %q", resp, ErrEmpty)
	}

	// Unknown ops get their own explicit error — including the retired v1
	// "pop", which must not dequeue anything — and the connection
	// survives them.
	if err := q.Push(testJob(1)); err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"flush", "pop"} {
		if _, err := conn.Write([]byte(`{"op":"` + op + `"}` + "\n")); err != nil {
			t.Fatal(err)
		}
		resp = readResp(t, r)
		if resp.OK || !strings.Contains(resp.Err, `unknown op "`+op+`"`) {
			t.Fatalf("unknown op %q response = %+v", op, resp)
		}
	}
	if st := q.Stats(); st.Pending != 1 || st.Leased != 0 || st.Done != 0 {
		t.Fatalf("unknown ops touched the queue: %+v", st)
	}
	if _, err := conn.Write([]byte(`{"op":"lease","v":8}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if resp = readResp(t, r); !resp.OK || len(resp.Leases) != 1 || resp.Leases[0].Lease == 0 {
		t.Fatalf("lease after unknown ops = %+v", resp)
	}
}

func TestWirePushIsUnknownOp(t *testing.T) {
	// Jobs are pushed in-process by the queue's owner: a peer sending
	// "push" — even a well-formed job — gets the unknown-op answer, the
	// queue stays untouched, and the connection stays usable.
	q := New()
	defer q.Close()
	srv, err := Serve(q, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, r := rawDial(t, srv.Addr())
	defer conn.Close()

	job, err := EncodeJob(testJob(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(`{"op":"push","v":8,"job":` + string(job) + "}\n")); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(t, r); resp.OK || resp.Err != `unknown op "push"` {
		t.Fatalf("push response = %+v, want unknown op", resp)
	}
	if st := q.Stats(); st.Pending != 0 {
		t.Fatalf("wire push enqueued a job: %+v", st)
	}
	if _, err := conn.Write([]byte(`{"op":"lease","v":8}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(t, r); resp.OK || resp.Err != ErrEmpty.Error() {
		t.Fatalf("lease after push = %+v, want err %q", resp, ErrEmpty)
	}
}

func TestServeServesTheUnnamedQueue(t *testing.T) {
	// Serve registers its queue under the empty name: an unnamed request
	// reaches it, and a named one is an unknown queue.
	q := New()
	defer q.Close()
	srv, err := Serve(q, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := q.Push(testJob(4)); err != nil {
		t.Fatal(err)
	}
	named, err := DialOpts(srv.Addr(), DialOptions{Queue: "campaign.x"})
	if err != nil {
		t.Fatal(err)
	}
	defer named.Close()
	if _, err := named.Lease(); !errors.Is(err, ErrUnknownQueue) {
		t.Fatalf("named lease on Serve: %v, want ErrUnknownQueue", err)
	}
	c, err := DialOpts(srv.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ls, err := c.Lease()
	if err != nil || ls.Job.ID != 4 {
		t.Fatalf("unnamed lease = %+v, %v; want job 4", ls, err)
	}
}

func TestTCPOpCounters(t *testing.T) {
	// v8 has four ops. A turn costs one lease frame and one settle frame
	// however many jobs it holds, outcomes cross as their very bytes, and
	// Report and Ack are one-item settles.
	q := New()
	defer q.Close()
	srv, err := Serve(q, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ops := []string{obs.MQueueNetLease, obs.MQueueNetSettle, obs.MQueueNetNack, obs.MQueueNetExtend}
	before := make(map[string]int64)
	for _, op := range ops {
		before[op] = obs.C(op).Value()
	}

	c, err := DialOpts(srv.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for id := 1; id <= 3; id++ {
		if err := q.Push(testJob(id)); err != nil {
			t.Fatal(err)
		}
	}
	turn, err := c.LeaseN(nil, 3)
	if err != nil || len(turn) != 3 {
		t.Fatalf("LeaseN(3) = %+v, %v", turn, err)
	}
	if _, err := c.Extend(turn[0].ID, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Nack(turn[2].ID, "not this one"); err != nil {
		t.Fatal(err)
	}
	// Opaque bytes, a newline and a NUL among them: the queue never reads
	// an outcome.
	outcomes := []string{"\x01\x06\x00\n", "\x01\x08\x01 \xff{}"}
	items := make([]Settlement, 2)
	for i := range items {
		items[i] = Settlement{Lease: turn[i].ID, Result: &JobResult{
			JobID: turn[i].Job.ID, Trials: 3 + i, Outcome: []byte(outcomes[i]), Worker: "w"}}
	}
	errs, err := c.Settle(items)
	if err != nil || errs[0] != nil || errs[1] != nil {
		t.Fatalf("settle: %v, %v", errs, err)
	}
	if err := c.Report(JobResult{JobID: 9}); err != nil {
		t.Fatal(err)
	}
	if err := c.Ack(turn[0].ID); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("ack of a settled lease: %v", err)
	}

	res := q.Results()
	if len(res) != 3 || res[2].JobID != 9 || res[2].Outcome != nil {
		t.Fatalf("results = %+v", res)
	}
	for i := range outcomes {
		if res[i].JobID != turn[i].Job.ID || res[i].Trials != 3+i || res[i].Worker != "w" || string(res[i].Outcome) != outcomes[i] {
			t.Errorf("result %d = %+v (outcome %s), want job %d's outcome %s verbatim",
				i, res[i], res[i].Outcome, turn[i].Job.ID, outcomes[i])
		}
	}
	if st := q.Stats(); st.Done != 2 || st.Pending != 1 {
		t.Fatalf("stats = %+v, want the settled turn done and the nacked job pending", st)
	}
	want := map[string]int64{obs.MQueueNetLease: 1, obs.MQueueNetSettle: 3, obs.MQueueNetNack: 1, obs.MQueueNetExtend: 1}
	for _, op := range ops {
		if got := obs.C(op).Value() - before[op]; got != want[op] {
			t.Errorf("%s moved by %d, want %d", op, got, want[op])
		}
	}
}

func TestQueueDepthGaugePerQueue(t *testing.T) {
	// Two queues in one process must not clobber each other's depth: each
	// reports its own gauge, and the shared queue.depth gauge aggregates
	// deltas instead of being Set by whoever moved last.
	gauge := func(name string) int64 { return obs.Default.Snapshot().Gauge(name) }
	aggBefore := gauge(obs.MQueueDepth)
	a := NewWithOptions(Options{Name: "depth-a"})
	b := NewWithOptions(Options{Name: "depth-b"})
	for i := 0; i < 3; i++ {
		if err := a.Push(testJob(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Push(testJob(9)); err != nil {
		t.Fatal(err)
	}
	da, db := gauge("queue.depth-a.depth"), gauge("queue.depth-b.depth")
	if da != 3 || db != 1 {
		t.Fatalf("per-queue depths = %d,%d, want 3,1", da, db)
	}
	if got := gauge(obs.MQueueDepth) - aggBefore; got != 4 {
		t.Fatalf("aggregate depth delta = %d, want 4", got)
	}
	if _, err := a.TryLease(); err != nil {
		t.Fatal(err)
	}
	da, db = gauge("queue.depth-a.depth"), gauge("queue.depth-b.depth")
	if da != 2 || db != 1 {
		t.Fatalf("per-queue depths after lease = %d,%d, want 2,1", da, db)
	}
	if got := gauge(obs.MQueueDepth) - aggBefore; got != 3 {
		t.Fatalf("aggregate depth delta after lease = %d, want 3", got)
	}
	a.Close()
	b.Close()
}

func TestServerClosePromptWithIdleClient(t *testing.T) {
	// Regression: an idle connected client used to park the handler in a
	// deadline-less read, so Server.Close blocked on wg.Wait forever. Close
	// must sever live connections and return promptly.
	q := New()
	srv, err := Serve(q, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, r := rawDial(t, srv.Addr())
	defer conn.Close()
	// One round-trip proves the handler is live before it goes idle.
	if _, err := conn.Write([]byte(`{"op":"lease"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	readResp(t, r)

	done := make(chan struct{})
	start := time.Now()
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Server.Close took %v with an idle client, want < 1s", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Server.Close hung on an idle client")
	}
}

func TestFrameTooLargeClamp(t *testing.T) {
	q := New()
	srv, err := serve(&Registry{queues: map[string]*Queue{"": q}}, "127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	bigBefore := obs.C(obs.MQueueNetBigFrm).Value()
	conn, r := rawDial(t, srv.Addr())
	defer conn.Close()

	// A newline-free flood past the cap must get an explicit error, not an
	// unbounded buffer.
	frame := append(bytes.Repeat([]byte("a"), 200), '\n')
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	resp := readResp(t, r)
	if resp.OK || resp.Err != "frame too large" {
		t.Fatalf("oversized frame response = %+v", resp)
	}
	if got := obs.C(obs.MQueueNetBigFrm).Value(); got != bigBefore+1 {
		t.Fatalf("frame_too_large counter = %d, want %d", got, bigBefore+1)
	}

	// The connection stays in sync: a small valid request still works.
	if _, err := conn.Write([]byte(`{"op":"lease"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	resp = readResp(t, r)
	if resp.OK || resp.Err != ErrEmpty.Error() {
		t.Fatalf("lease after oversized frame = %+v, want err %q", resp, ErrEmpty)
	}

	// The cap covers header and trailer together: a short header declaring
	// a trailer that takes the frame past it gets the same answer, its
	// bytes are discarded unbuffered, and the connection stays in sync.
	hdr := `{"op":"settle","trailer":40}` + "\n"
	if len(hdr) > 64 || len(hdr)+40 <= 64 {
		t.Fatalf("header of %d bytes does not straddle the cap", len(hdr))
	}
	if _, err := conn.Write(append([]byte(hdr), bytes.Repeat([]byte("{"), 40)...)); err != nil {
		t.Fatal(err)
	}
	if resp = readResp(t, r); resp.OK || resp.Err != "frame too large" {
		t.Fatalf("over-cap trailer response = %+v", resp)
	}
	if got := obs.C(obs.MQueueNetBigFrm).Value(); got != bigBefore+2 {
		t.Fatalf("frame_too_large counter = %d, want %d", got, bigBefore+2)
	}
	if _, err := conn.Write([]byte(`{"op":"lease"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if resp = readResp(t, r); resp.OK || resp.Err != ErrEmpty.Error() {
		t.Fatalf("lease after over-cap trailer = %+v, want err %q", resp, ErrEmpty)
	}
}

func TestTrailerClampAllocatesNothing(t *testing.T) {
	// A declared trailer length is never trusted: readTrailer refuses a
	// negative or over-cap one before allocating, and serveFrame answers an
	// over-cap one by discarding the bytes through a fixed-size buffer, so
	// its allocations do not grow with the length declared.
	r := bufio.NewReader(bytes.NewReader(nil))
	for _, n := range []int{-1, 65, 1 << 20, 1 << 40, math.MaxInt} {
		var err error
		if allocs := testing.AllocsPerRun(50, func() { _, err = readTrailer(r, 10, n, 64, nil) }); allocs != 0 || err == nil {
			t.Errorf("readTrailer(n=%d) allocated %v times, err %v", n, allocs, err)
		}
	}
	s := &Server{frameCap: 64}
	serveAllocs := func(n int) float64 {
		hdr := fmt.Sprintf(`{"op":"settle","trailer":%d}`, n)
		input := append([]byte(hdr+"\n"), bytes.Repeat([]byte("x"), n)...)
		in := bytes.NewReader(input)
		r := bufio.NewReaderSize(in, 4096)
		return testing.AllocsPerRun(20, func() {
			in.Reset(input)
			r.Reset(in)
			line, readErr := readFrame(r, s.frameCap)
			var buf []byte
			resp, _, more := s.serveFrame(r, line, readErr, &buf)
			if resp.Err != errFrameTooLarge.Error() || !more {
				t.Fatalf("trailer of %d: answer %+v, more=%v", n, resp, more)
			}
		})
	}
	if small, big := serveAllocs(100), serveAllocs(1<<20); big > small {
		t.Fatalf("discarding an over-cap trailer allocated %v times for 1 MiB, %v for 100 bytes", big, small)
	}
}

func TestLeaseDeliversLargeJob(t *testing.T) {
	// A turn's head job may fill the frame but for its header, so a job the
	// one-job protocol delivered still travels; only the jobs after it are
	// held to half the cap.
	q := New()
	defer q.Close()
	big := testJob(1)
	big.Trace = strings.Repeat("t", 700<<10)
	for _, j := range []Job{big, testJob(2)} {
		if err := q.Push(j); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := Serve(q, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialOpts(srv.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, want := range []int{1, 2} {
		leases, err := c.LeaseN(nil, 4)
		if err != nil {
			t.Fatalf("lease of job %d: %v", want, err)
		}
		if len(leases) != 1 || leases[0].Job.ID != want {
			t.Fatalf("turn = %d leases, first job %d; want job %d alone", len(leases), leases[0].Job.ID, want)
		}
		if want == 1 && leases[0].Job.Trace != big.Trace {
			t.Fatalf("large job arrived with a %d-byte trace, want %d", len(leases[0].Job.Trace), len(big.Trace))
		}
	}
}

func TestUnsupportedProtocolVersion(t *testing.T) {
	// Only v8 is spoken: an older or newer version is refused loudly before
	// it touches the queue — a v2 worker's lease, whose answer it could not
	// read, a v3 worker's, which would explore with a trial budget of its
	// own, a v4 worker's, which would settle JSON outcomes, a v5 worker's,
	// which would explore on a kernel version of its own, a v6 worker's,
	// which would explore without the PMCs a job may adopt, and a v7
	// worker's, which would look for them in the job, lease nothing — and
	// v2's report and ack, folded into settle, are unknown ops even under
	// v8. The connection survives every refusal.
	q := New()
	defer q.Close()
	srv, err := Serve(q, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := q.Push(testJob(1)); err != nil {
		t.Fatal(err)
	}
	conn, r := rawDial(t, srv.Addr())
	defer conn.Close()
	for _, tc := range []struct{ frame, want string }{
		{`{"op":"lease","v":99}`, "unsupported protocol version 99"},
		{`{"op":"lease","v":9}`, "unsupported protocol version 9 (server speaks 8)"},
		{`{"op":"lease","v":7}`, "unsupported protocol version 7 (server speaks 8)"},
		{`{"op":"lease","v":6}`, "unsupported protocol version 6 (server speaks 8)"},
		{`{"op":"lease","v":5}`, "unsupported protocol version 5 (server speaks 8)"},
		{`{"op":"lease","v":4}`, "unsupported protocol version 4 (server speaks 8)"},
		{`{"op":"lease","v":3}`, "unsupported protocol version 3 (server speaks 8)"},
		{`{"op":"lease","v":2}`, "unsupported protocol version 2 (server speaks 8)"},
		{`{"op":"lease","v":1}`, "unsupported protocol version 1 (server speaks 8)"},
		{`{"op":"report","v":2,"result":{"job_id":1,"outcome":{}}}`, "unsupported protocol version 2"},
		{`{"op":"report","v":8,"result":{"job_id":1,"outcome":{}}}`, `unknown op "report"`},
		{`{"op":"ack","lease":1,"v":8}`, `unknown op "ack"`},
	} {
		if _, err := conn.Write([]byte(tc.frame + "\n")); err != nil {
			t.Fatal(err)
		}
		if resp := readResp(t, r); resp.OK || !strings.Contains(resp.Err, tc.want) || resp.V != ProtoVersion {
			t.Fatalf("%s: response = %+v, want v%d err %q", tc.frame, resp, ProtoVersion, tc.want)
		}
	}
	if st := q.Stats(); st.Pending != 1 || st.Leased != 0 || len(q.Results()) != 0 {
		t.Fatalf("a refused version touched the queue: %+v, %d results", st, len(q.Results()))
	}
	if _, err := conn.Write([]byte(`{"op":"lease","v":8}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(t, r); !resp.OK || len(resp.Leases) != 1 {
		t.Fatalf("v8 lease after the refusals = %+v", resp)
	}
}

func TestV4WorkerRefused(t *testing.T) {
	// A v4 worker settles its outcomes as JSON, which no v8 fold can read.
	// Its lease is refused, so it never holds a job; a settle it sends
	// anyway, JSON outcome in its trailer, records nothing and releases no
	// lease; the connection stays in sync past that trailer, and the same
	// settle under v8 lands.
	q := New()
	defer q.Close()
	srv, err := Serve(q, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for id := 1; id <= 2; id++ {
		if err := q.Push(testJob(id)); err != nil {
			t.Fatal(err)
		}
	}
	ls, err := q.TryLease()
	if err != nil {
		t.Fatal(err)
	}
	conn, r := rawDial(t, srv.Addr())
	defer conn.Close()
	settle := func(v int, outcome string) string {
		return fmt.Sprintf(`{"op":"settle","items":[{"lease":%d,"result":{"job_id":%d,"trials":3},"len":%d}],"trailer":%d,"v":%d}`+"\n%s",
			ls.ID, ls.Job.ID, len(outcome), len(outcome), v, outcome)
	}
	for _, frame := range []string{`{"op":"lease","n":4,"v":4}` + "\n", settle(4, `{"Trials":3}`)} {
		if _, err := conn.Write([]byte(frame)); err != nil {
			t.Fatal(err)
		}
		want := "unsupported protocol version 4 (server speaks 8)"
		if resp := readResp(t, r); resp.OK || resp.Err != want {
			t.Fatalf("%q: response = %+v, want err %q", frame, resp, want)
		}
	}
	if st := q.Stats(); st.Pending != 1 || st.Leased != 1 || st.Done != 0 || len(q.Results()) != 0 {
		t.Fatalf("a v4 worker touched the queue: %+v, %d results", st, len(q.Results()))
	}
	if _, err := conn.Write([]byte(settle(ProtoVersion, "\x01\x06"))); err != nil {
		t.Fatal(err)
	}
	if resp := readResp(t, r); !resp.OK {
		t.Fatalf("v8 settle after the refusals = %+v", resp)
	}
	if res := q.Results(); len(res) != 1 || string(res[0].Outcome) != "\x01\x06" || q.Stats().Done != 1 {
		t.Fatalf("v8 settle: results %+v, stats %+v", res, q.Stats())
	}
}

func TestClientReconnectBackoff(t *testing.T) {
	q := New()
	srv, err := Serve(q, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Capture the live conns the client dials so the test can sever one out
	// from under it.
	var mu sync.Mutex
	var conns []net.Conn
	reconnBefore := obs.C(obs.MQueueNetReconn).Value()
	c, err := DialOpts(srv.Addr(), DialOptions{
		MaxRetries: 4,
		BaseDelay:  time.Millisecond,
		MaxDelay:   10 * time.Millisecond,
		Seed:       42,
		Dial: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err == nil {
				mu.Lock()
				conns = append(conns, conn)
				mu.Unlock()
			}
			return conn, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := q.Push(testJob(1)); err != nil {
		t.Fatal(err)
	}
	// Sever the connection behind the client's back; the next round-trip
	// must redial and still succeed.
	mu.Lock()
	conns[0].Close()
	mu.Unlock()
	ls, err := c.Lease()
	if err != nil {
		t.Fatalf("lease after severed conn: %v", err)
	}
	if ls.Job.ID != 1 {
		t.Fatalf("leased job %d, want 1", ls.Job.ID)
	}
	if err := c.Ack(ls.ID); err != nil {
		t.Fatal(err)
	}
	if got := obs.C(obs.MQueueNetReconn).Value(); got <= reconnBefore {
		t.Fatalf("reconnects counter did not move (= %d)", got)
	}
	mu.Lock()
	n := len(conns)
	mu.Unlock()
	if n < 2 {
		t.Fatalf("client dialed %d times, want >= 2", n)
	}
}
