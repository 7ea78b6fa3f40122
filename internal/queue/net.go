package queue

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snowboard/internal/obs"
)

// TCP transport metrics: connections accepted / currently served, per-op
// counters, malformed-request and oversized-frame counts, and client
// reconnects.
var (
	mNetConns    = obs.C(obs.MQueueNetConns)
	mNetInFlight = obs.G(obs.MQueueNetInFl)
	mNetBadReq   = obs.C(obs.MQueueNetBadReq)
	mNetPush     = obs.C(obs.MQueueNetPush)
	mNetReport   = obs.C(obs.MQueueNetReport)
	mNetLease    = obs.C(obs.MQueueNetLease)
	mNetAck      = obs.C(obs.MQueueNetAck)
	mNetNack     = obs.C(obs.MQueueNetNack)
	mNetExtend   = obs.C(obs.MQueueNetExtend)
	mNetUnknown  = obs.C(obs.MQueueNetUnknown)
	mNetReconn   = obs.C(obs.MQueueNetReconn)
	mNetBigFrame = obs.C(obs.MQueueNetBigFrm)
)

// TCP transport: a Server fronts a Queue with a line-delimited JSON
// protocol; Clients (workers on other machines) lease jobs and report
// results. Protocol version 2 adds leased at-least-once delivery:
//
//	{"op":"lease","v":2}              -> {"ok":true,"job":{...},"lease":7,"attempt":1,"ttl_ms":30000}
//	                                     | {"ok":false,"err":"queue: empty"|"queue: closed"}
//	{"op":"ack","lease":7,"v":2}      -> {"ok":true} | {"ok":false,"err":"queue: unknown lease"}
//	{"op":"nack","lease":7,"reason":"...","v":2} -> {"ok":true}
//	{"op":"extend","lease":7,"ms":30000,"v":2}   -> {"ok":true,"ttl_ms":30000}
//	{"op":"push","job":{...}}         -> {"ok":true}
//	{"op":"report","result":{...}}    -> {"ok":true}
//
// Requests with v greater than the server's version are rejected, so a
// future client degrades loudly instead of mis-parsing. Frames (requests
// and responses) are capped at MaxFrame bytes; oversized frames are
// answered with {"ok":false,"err":"frame too large"} and discarded, the
// same hostile-input clamp the artifact decoders apply.

// ProtoVersion is the wire protocol version this build speaks. Within v2,
// jobs may carry an optional "trace" field stitching them to the
// originating campaign; older v2 peers simply ignore it (unknown JSON
// fields are dropped on decode), so no version bump is needed.
const ProtoVersion = 2

// Transport limits.
const (
	// DefaultMaxFrame caps one line-delimited frame (a job inlines two
	// programs at most, well under 1 MiB).
	DefaultMaxFrame = 1 << 20
	// DefaultIdleTimeout is how long the server lets a connection sit
	// silent before dropping it. Workers poll far more often than this;
	// only stuck or hostile peers hit it.
	DefaultIdleTimeout = 5 * time.Minute
)

type wireReq struct {
	V      int             `json:"v,omitempty"`
	Op     string          `json:"op"`
	Job    json.RawMessage `json:"job,omitempty"`
	Result *JobResult      `json:"result,omitempty"`
	Lease  uint64          `json:"lease,omitempty"`
	Ms     int64           `json:"ms,omitempty"`     // extend: requested lease TTL
	Reason string          `json:"reason,omitempty"` // nack: failure description
	// Queue addresses one named queue on a multi-queue server (see
	// ServeRegistry); empty targets the server's default queue. Like Job's
	// "trace", this stays within v2: older peers never set it and servers
	// without a registry reject it loudly.
	Queue string `json:"queue,omitempty"`
}

type wireResp struct {
	V       int             `json:"v,omitempty"`
	OK      bool            `json:"ok"`
	Err     string          `json:"err,omitempty"`
	Job     json.RawMessage `json:"job,omitempty"`
	Lease   uint64          `json:"lease,omitempty"`
	Attempt int             `json:"attempt,omitempty"`
	TTLMs   int64           `json:"ttl_ms,omitempty"` // lease/extend: time until the deadline
}

// errFrameTooLarge reports a frame over the size cap.
var errFrameTooLarge = errors.New("frame too large")

// readFrame reads one newline-terminated frame of at most max bytes.
// Oversized frames are discarded through to the newline — O(1) memory, the
// connection stays in sync — and reported as errFrameTooLarge.
func readFrame(r *bufio.Reader, max int) ([]byte, error) {
	var buf []byte
	tooBig := false
	for {
		chunk, err := r.ReadSlice('\n')
		if !tooBig {
			buf = append(buf, chunk...)
			if len(buf) > max {
				tooBig = true
				buf = nil
			}
		}
		switch {
		case err == nil:
			if tooBig {
				return nil, errFrameTooLarge
			}
			return buf, nil
		case errors.Is(err, bufio.ErrBufferFull):
			continue
		default:
			if tooBig {
				return nil, errFrameTooLarge
			}
			return buf, err
		}
	}
}

// ServerOptions tune the transport limits of a Server.
type ServerOptions struct {
	MaxFrame    int           // request frame cap in bytes (default DefaultMaxFrame)
	IdleTimeout time.Duration // per-connection read deadline (default DefaultIdleTimeout; <0 disables)
}

// Server exposes a Queue — or a whole Registry of named queues — over one
// TCP listener. Requests carrying a "queue" name are routed to that
// registry queue; requests without one go to the default queue Q.
type Server struct {
	Q *Queue
	// Reg, when set, serves named queues alongside (or instead of) Q: a
	// request's "queue" field selects the registry queue, and unknown
	// names are answered with ErrUnknownQueue.
	Reg *Registry
	// MaxFrame and IdleTimeout may be set before serving traffic; zero
	// values use the defaults.
	MaxFrame    int
	IdleTimeout time.Duration

	ln net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Serve starts listening on addr (e.g. "127.0.0.1:0") with default
// transport limits; the bound address is available via Addr.
func Serve(q *Queue, addr string) (*Server, error) {
	return serve(q, nil, addr, ServerOptions{})
}

// ServeRegistry starts one listener serving every named queue in reg —
// the control plane's multi-tenant transport. Requests must carry a
// "queue" name (there is no default queue).
func ServeRegistry(reg *Registry, addr string, o ServerOptions) (*Server, error) {
	return serve(nil, reg, addr, o)
}

func serve(q *Queue, reg *Registry, addr string, o ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("queue: listen: %w", err)
	}
	s := &Server{Q: q, Reg: reg, MaxFrame: o.MaxFrame, IdleTimeout: o.IdleTimeout, ln: ln}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// queueFor resolves the queue a request addresses: the named registry
// queue when a name is given, the default queue otherwise.
func (s *Server) queueFor(name string) (*Queue, error) {
	if name == "" {
		if s.Q == nil {
			return nil, fmt.Errorf("%w: no default queue on this server (name one of %v)", ErrUnknownQueue, s.names())
		}
		return s.Q, nil
	}
	if s.Reg == nil {
		return nil, fmt.Errorf("%w %q: server has no queue registry", ErrUnknownQueue, name)
	}
	q := s.Reg.Get(name)
	if q == nil {
		return nil, fmt.Errorf("%w %q (known: %v)", ErrUnknownQueue, name, s.names())
	}
	return q, nil
}

func (s *Server) names() []string {
	if s.Reg == nil {
		return nil
	}
	return s.Reg.Names()
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) maxFrame() int {
	if s.MaxFrame > 0 {
		return s.MaxFrame
	}
	return DefaultMaxFrame
}

func (s *Server) idleTimeout() time.Duration {
	if s.IdleTimeout != 0 {
		return s.IdleTimeout
	}
	return DefaultIdleTimeout
}

// track registers a live connection; it reports false (and the caller must
// close the conn) when the server is already shutting down.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			_ = conn.Close()
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	mNetConns.Inc()
	mNetInFlight.Add(1)
	defer mNetInFlight.Add(-1)
	r := bufio.NewReader(conn)
	enc := json.NewEncoder(conn)
	for {
		if t := s.idleTimeout(); t > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(t))
		}
		line, readErr := readFrame(r, s.maxFrame())
		if errors.Is(readErr, errFrameTooLarge) {
			mNetBigFrame.Inc()
			mNetBadReq.Inc()
			_ = enc.Encode(wireResp{V: ProtoVersion, OK: false, Err: errFrameTooLarge.Error()})
			continue
		}
		if len(line) == 0 {
			// Connection drained (EOF), idle past the deadline, or failed
			// with nothing pending.
			return
		}
		var req wireReq
		if err := json.Unmarshal(line, &req); err != nil {
			// Malformed requests get an explicit error response on the
			// still-open connection rather than a silent drop.
			mNetBadReq.Inc()
			_ = enc.Encode(wireResp{V: ProtoVersion, OK: false, Err: fmt.Sprintf("bad request: %v", err)})
			if readErr != nil {
				return
			}
			continue
		}
		if req.V > ProtoVersion {
			mNetBadReq.Inc()
			_ = enc.Encode(wireResp{V: ProtoVersion, OK: false,
				Err: fmt.Sprintf("unsupported protocol version %d (server speaks <= %d)", req.V, ProtoVersion)})
			if readErr != nil {
				return
			}
			continue
		}
		s.serveOp(enc, req)
		if readErr != nil {
			return
		}
	}
}

// serveOp dispatches one decoded request and writes exactly one response.
func (s *Server) serveOp(enc *json.Encoder, req wireReq) {
	fail := func(err error) { _ = enc.Encode(wireResp{V: ProtoVersion, OK: false, Err: err.Error()}) }
	q, err := s.queueFor(req.Queue)
	if err != nil {
		mNetBadReq.Inc()
		fail(err)
		return
	}
	switch req.Op {
	case "lease":
		mNetLease.Inc()
		ls, err := q.TryLease()
		if err != nil {
			fail(err)
			return
		}
		raw, err := EncodeJob(ls.Job)
		if err != nil {
			// Undeliverable on this transport; hand it back so it
			// dead-letters instead of leaking as a leased job.
			_ = q.Nack(ls.ID, "encode: "+err.Error())
			fail(err)
			return
		}
		_ = enc.Encode(wireResp{V: ProtoVersion, OK: true, Job: raw, Lease: ls.ID,
			Attempt: ls.Attempt, TTLMs: time.Until(ls.Deadline).Milliseconds()})
	case "ack":
		mNetAck.Inc()
		if err := q.Ack(req.Lease); err != nil {
			fail(err)
			return
		}
		_ = enc.Encode(wireResp{V: ProtoVersion, OK: true})
	case "nack":
		mNetNack.Inc()
		if err := q.Nack(req.Lease, req.Reason); err != nil {
			fail(err)
			return
		}
		_ = enc.Encode(wireResp{V: ProtoVersion, OK: true})
	case "extend":
		mNetExtend.Inc()
		deadline, err := q.Extend(req.Lease, time.Duration(req.Ms)*time.Millisecond)
		if err != nil {
			fail(err)
			return
		}
		_ = enc.Encode(wireResp{V: ProtoVersion, OK: true, Lease: req.Lease,
			TTLMs: time.Until(deadline).Milliseconds()})
	case "push":
		mNetPush.Inc()
		job, err := DecodeJob(req.Job)
		if err != nil {
			fail(err)
			return
		}
		if err := q.Push(job); err != nil {
			fail(err)
			return
		}
		_ = enc.Encode(wireResp{V: ProtoVersion, OK: true})
	case "report":
		mNetReport.Inc()
		if req.Result == nil {
			fail(errors.New("missing result"))
			return
		}
		if err := q.Report(*req.Result); err != nil {
			fail(err)
			return
		}
		_ = enc.Encode(wireResp{V: ProtoVersion, OK: true})
	default:
		mNetUnknown.Inc()
		fail(fmt.Errorf("unknown op %q", req.Op))
	}
}

// Close stops accepting, severs every live connection, and waits for
// in-flight handlers. Idle clients sitting in a blocked read no longer wedge
// shutdown: their connections are closed out from under them, so Close
// returns promptly.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	_ = s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

// DialOptions configure a Client's reconnect and transport behaviour.
type DialOptions struct {
	// MaxRetries bounds reconnect-and-retry attempts per round-trip after
	// the first (default 5). Every queue op is safe to retry under
	// at-least-once semantics: a lost lease expires and redelivers, and a
	// doubled report is deduplicated by job ID.
	MaxRetries int
	// BaseDelay is the first backoff step (default 50ms); each retry
	// doubles it up to MaxDelay (default 2s), with ±50% deterministic
	// jitter drawn from Seed.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed fixes the jitter stream (0 picks a process-unique seed).
	Seed int64
	// MaxFrame caps response frames (default DefaultMaxFrame).
	MaxFrame int
	// Dial overrides the transport (tests inject FlakyDialer here); nil
	// uses plain TCP.
	Dial func(addr string) (net.Conn, error)
	// Queue binds every request to one named queue on a multi-queue
	// server (see ServeRegistry); empty targets the server's default
	// queue.
	Queue string
}

func (o DialOptions) withDefaults() DialOptions {
	if o.MaxRetries <= 0 {
		o.MaxRetries = 5
	}
	if o.BaseDelay <= 0 {
		o.BaseDelay = 50 * time.Millisecond
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = clientSeq.Add(1)*0x9e3779b9 + 1
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	if o.Dial == nil {
		o.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return o
}

var clientSeq atomic.Int64

// Client is a worker-side connection to a queue server. It reconnects
// automatically: a round-trip that hits an I/O error redials with
// exponential backoff plus jitter and retries, up to MaxRetries. All queue
// ops are idempotent-enough under at-least-once delivery for this to be
// safe (see DialOptions.MaxRetries).
type Client struct {
	addr string
	opts DialOptions

	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	rng  *rand.Rand
}

// Dial connects to a queue server with default reconnect behaviour.
func Dial(addr string) (*Client, error) { return DialOpts(addr, DialOptions{}) }

// DialOpts connects to a queue server with explicit reconnect and
// transport options. The initial connection is established eagerly so
// configuration errors surface immediately.
func DialOpts(addr string, o DialOptions) (*Client, error) {
	o = o.withDefaults()
	c := &Client{addr: addr, opts: o, rng: rand.New(rand.NewSource(o.Seed))}
	conn, err := o.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("queue: dial: %w", err)
	}
	c.conn, c.r = conn, bufio.NewReader(conn)
	return c, nil
}

// dropConnLocked severs the current connection (if any).
func (c *Client) dropConnLocked() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn, c.r = nil, nil
	}
}

// backoffLocked sleeps the exponential-backoff-with-jitter delay for the
// given retry attempt (1-based).
func (c *Client) backoffLocked(attempt int) {
	d := c.opts.BaseDelay << uint(attempt-1)
	if d > c.opts.MaxDelay || d <= 0 {
		d = c.opts.MaxDelay
	}
	// ±50% jitter: uniform in [d/2, d].
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	time.Sleep(d)
}

// roundTrip sends one request and reads one response, reconnecting and
// retrying on I/O errors.
func (c *Client) roundTrip(req wireReq) (wireResp, error) {
	req.V = ProtoVersion
	req.Queue = c.opts.Queue
	payload, err := json.Marshal(req)
	if err != nil {
		return wireResp{}, err
	}
	payload = append(payload, '\n')

	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			c.dropConnLocked()
			c.backoffLocked(attempt)
		}
		if c.conn == nil {
			conn, err := c.opts.Dial(c.addr)
			if err != nil {
				lastErr = err
				continue
			}
			mNetReconn.Inc()
			c.conn, c.r = conn, bufio.NewReader(conn)
		}
		resp, err := c.onceLocked(payload)
		if err != nil {
			lastErr = err
			c.dropConnLocked()
			continue
		}
		return resp, nil
	}
	return wireResp{}, fmt.Errorf("queue: round-trip failed after %d attempts: %w", c.opts.MaxRetries+1, lastErr)
}

// onceLocked performs a single send/receive on the live connection.
func (c *Client) onceLocked(payload []byte) (wireResp, error) {
	if _, err := c.conn.Write(payload); err != nil {
		return wireResp{}, err
	}
	line, err := readFrame(c.r, c.opts.MaxFrame)
	if err != nil {
		return wireResp{}, err
	}
	var resp wireResp
	if err := json.Unmarshal(line, &resp); err != nil {
		return wireResp{}, err
	}
	return resp, nil
}

// respError maps a server error string back to the package sentinel errors
// so errors.Is works across the wire.
func respError(resp wireResp) error {
	switch resp.Err {
	case ErrEmpty.Error():
		return ErrEmpty
	case ErrClosed.Error():
		return ErrClosed
	case ErrUnknownLease.Error():
		return ErrUnknownLease
	}
	// ErrUnknownQueue travels with the offending name and the server's
	// known queues appended, so match on the prefix.
	if strings.HasPrefix(resp.Err, ErrUnknownQueue.Error()) {
		return fmt.Errorf("%w: %s", ErrUnknownQueue, strings.TrimPrefix(resp.Err, ErrUnknownQueue.Error()+" "))
	}
	return fmt.Errorf("queue: %s", resp.Err)
}

// Lease fetches the next job under a lease; ErrEmpty when none are pending,
// ErrClosed when the queue has shut down.
func (c *Client) Lease() (Lease, error) {
	resp, err := c.roundTrip(wireReq{Op: "lease"})
	if err != nil {
		return Lease{}, err
	}
	if !resp.OK {
		return Lease{}, respError(resp)
	}
	job, err := DecodeJob(resp.Job)
	if err != nil {
		// Hand the lease straight back rather than sitting on it until the
		// reaper expires it: the job redelivers (or dead-letters, with this
		// reason) immediately.
		_ = c.Nack(resp.Lease, "decode: "+err.Error())
		return Lease{}, err
	}
	return Lease{
		Job:      job,
		ID:       resp.Lease,
		Attempt:  resp.Attempt,
		Deadline: time.Now().Add(time.Duration(resp.TTLMs) * time.Millisecond),
	}, nil
}

// Ack settles a lease. ErrUnknownLease after a successful Report is benign:
// the lease expired (or a retried ack already landed) and the coordinator
// deduplicates any redelivered result.
func (c *Client) Ack(id uint64) error {
	resp, err := c.roundTrip(wireReq{Op: "ack", Lease: id})
	if err != nil {
		return err
	}
	if !resp.OK {
		return respError(resp)
	}
	return nil
}

// Nack hands a lease back for redelivery with a reason.
func (c *Client) Nack(id uint64, reason string) error {
	resp, err := c.roundTrip(wireReq{Op: "nack", Lease: id, Reason: reason})
	if err != nil {
		return err
	}
	if !resp.OK {
		return respError(resp)
	}
	return nil
}

// Extend pushes a lease deadline out by d (the server's lease timeout when
// d <= 0) and returns the new deadline.
func (c *Client) Extend(id uint64, d time.Duration) (time.Time, error) {
	resp, err := c.roundTrip(wireReq{Op: "extend", Lease: id, Ms: d.Milliseconds()})
	if err != nil {
		return time.Time{}, err
	}
	if !resp.OK {
		return time.Time{}, respError(resp)
	}
	return time.Now().Add(time.Duration(resp.TTLMs) * time.Millisecond), nil
}

// Push enqueues a job remotely.
func (c *Client) Push(j Job) error {
	raw, err := EncodeJob(j)
	if err != nil {
		return err
	}
	resp, err := c.roundTrip(wireReq{Op: "push", Job: raw})
	if err != nil {
		return err
	}
	if !resp.OK {
		return respError(resp)
	}
	return nil
}

// Report sends a result back.
func (c *Client) Report(r JobResult) error {
	resp, err := c.roundTrip(wireReq{Op: "report", Result: &r})
	if err != nil {
		return err
	}
	if !resp.OK {
		return respError(resp)
	}
	return nil
}

// Close terminates the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.r = nil, nil
	return err
}
