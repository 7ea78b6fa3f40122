package queue

import (
	"bufio"
	"bytes"
	"encoding/json"
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
	if _, err := conn.Write([]byte(`{"op":"lease","v":2}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if resp = readResp(t, r); !resp.OK || resp.Lease == 0 {
		t.Fatalf("lease after unknown ops = %+v", resp)
	}
}

func TestTCPOpCounters(t *testing.T) {
	q := New()
	srv, err := Serve(q, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pushBefore := obs.C(obs.MQueueNetPush).Value()
	leaseBefore := obs.C(obs.MQueueNetLease).Value()
	ackBefore := obs.C(obs.MQueueNetAck).Value()
	reportBefore := obs.C(obs.MQueueNetReport).Value()

	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Push(testJob(1)); err != nil {
		t.Fatal(err)
	}
	ls, err := c.Lease()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ack(ls.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Report(JobResult{JobID: 1}); err != nil {
		t.Fatal(err)
	}

	if got := obs.C(obs.MQueueNetPush).Value(); got != pushBefore+1 {
		t.Errorf("net push counter = %d, want %d", got, pushBefore+1)
	}
	if got := obs.C(obs.MQueueNetLease).Value(); got != leaseBefore+1 {
		t.Errorf("net lease counter = %d, want %d", got, leaseBefore+1)
	}
	if got := obs.C(obs.MQueueNetAck).Value(); got != ackBefore+1 {
		t.Errorf("net ack counter = %d, want %d", got, ackBefore+1)
	}
	if got := obs.C(obs.MQueueNetReport).Value(); got != reportBefore+1 {
		t.Errorf("net report counter = %d, want %d", got, reportBefore+1)
	}
}

func TestQueueDepthGaugePerQueue(t *testing.T) {
	// Two queues in one process must not clobber each other's depth: each
	// reports its own gauge, and the shared queue.depth gauge aggregates
	// deltas instead of being Set by whoever moved last.
	agg := obs.G(obs.MQueueDepth)
	aggBefore := agg.Value()
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
	da, db := obs.G("queue.depth-a.depth"), obs.G("queue.depth-b.depth")
	if da.Value() != 3 || db.Value() != 1 {
		t.Fatalf("per-queue depths = %d,%d, want 3,1", da.Value(), db.Value())
	}
	if got := agg.Value() - aggBefore; got != 4 {
		t.Fatalf("aggregate depth delta = %d, want 4", got)
	}
	if _, err := a.TryLease(); err != nil {
		t.Fatal(err)
	}
	if da.Value() != 2 || db.Value() != 1 {
		t.Fatalf("per-queue depths after lease = %d,%d, want 2,1", da.Value(), db.Value())
	}
	if got := agg.Value() - aggBefore; got != 3 {
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
	srv, err := serve(q, nil, "127.0.0.1:0", ServerOptions{MaxFrame: 64})
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
}

func TestUnsupportedProtocolVersion(t *testing.T) {
	q := New()
	srv, err := Serve(q, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, r := rawDial(t, srv.Addr())
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"op":"lease","v":99}` + "\n")); err != nil {
		t.Fatal(err)
	}
	resp := readResp(t, r)
	if resp.OK || !strings.Contains(resp.Err, "unsupported protocol version 99") {
		t.Fatalf("v99 response = %+v", resp)
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

	if err := c.Push(testJob(1)); err != nil {
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
