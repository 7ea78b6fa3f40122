package queue

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	mNetLease    = obs.C(obs.MQueueNetLease)
	mNetSettle   = obs.C(obs.MQueueNetSettle)
	mNetNack     = obs.C(obs.MQueueNetNack)
	mNetExtend   = obs.C(obs.MQueueNetExtend)
	mNetUnknown  = obs.C(obs.MQueueNetUnknown)
	mNetReconn   = obs.C(obs.MQueueNetReconn)
	mNetBigFrame = obs.C(obs.MQueueNetBigFrm)
	mNetAdopt    = obs.C(obs.MQueueNetAdopt)
)

// TCP transport: a Server fronts a Registry of queues; Clients (workers on
// other machines) lease jobs and settle them. A frame is one JSON header
// line, followed — when the header declares "trailer":N — by exactly N raw
// bytes. Protocol version 8 has four ops, and a worker's turn costs two
// frames each way, one lease and one settle:
//
//	{"op":"lease","n":4,"have":"<digest>","v":8}
//	  -> {"ok":true,"leases":[{"lease":7,"attempt":1,"ttl_ms":30000,"len":180},...],"adopt":A,"trailer":N}
//	     + N bytes: each granted job's JSON, "len" bytes apiece, then the
//	       jobs' adoption list (A bytes, AdoptList's binary form) unless
//	       it is the one the request says the worker has
//	   | {"ok":false,"err":"queue: empty"|"queue: closed"}
//	{"op":"settle","items":[{"lease":7,"result":{"job_id":3,"trials":64},"len":90},...],"trailer":N,"v":8}
//	  + N bytes: each item's outcome in sched.Outcome's binary form, "len" bytes apiece
//	  -> {"ok":true} | {"ok":true,"errs":["","queue: unknown lease",...]}
//	{"op":"nack","lease":7,"reason":"...","v":8} -> {"ok":true}
//	{"op":"extend","lease":7,"ms":30000,"v":8}   -> {"ok":true,"ttl_ms":30000}
//
// A job names its batch's adoption list by digest (Job.Adopt), and the
// jobs of one lease answer all name the same one, so a worker receives
// each batch's list once — with its first turn of the batch — and names
// it in every lease after ("have").
//
// A settle records each item's result and releases its lease (an item may
// carry either alone) in one critical section, Queue.Settle; "errs" is
// present only when some item did not settle cleanly, one entry per item.
// Outcome and job bytes travel verbatim in the trailer, never re-encoded
// inside the header. v2's report and ack ops are gone (Client.Report and
// Client.Ack are one-item settles), and push was never a wire op: jobs are
// pushed in-process by the producer that owns the queue
// (Pipeline.PushTests). A peer sending any of the three gets
// {"ok":false,"err":"unknown op \"push\""}, as for any unknown op.
//
// Every request may name its queue ("queue":"campaign.<id>"); without a
// name it addresses the unnamed queue Serve registers, and a name the
// registry does not hold is answered with ErrUnknownQueue.
//
// Requests naming any other version than the server's are rejected before
// they touch a queue, so an older or newer peer fails loudly instead of
// leasing jobs it would mis-parse (a v2 worker cannot read a v4 lease
// answer), explore differently (a v3 worker ignores the trial budget a
// job carries and explores with its own, a v5 worker the kernel version,
// a v6 worker without the PMCs the job may adopt) or settle with outcomes
// the fold cannot read (a v4 worker sends them as JSON). A request without
// v is taken as the server's version. A frame, header and trailer together, is
// capped at 1 MiB: an oversized header line or a declared trailer past
// the cap is answered with
// {"ok":false,"err":"frame too large"} and discarded in O(1) memory — the
// same hostile-input clamp the artifact decoders apply — and a trailer
// whose item lengths are negative or do not sum to it is a bad request. A
// lease answer's head job may fill the frame but for the adoption list it
// carries (at most half the cap, MaxAdoptBytes); the jobs after it are
// granted only while the trailer stays within half the cap.
// A connection silent for five minutes is dropped.

// ProtoVersion is the wire protocol version this build speaks. Version 8
// jobs name their batch's adoption list by digest and a lease answer
// carries the list only to a worker that does not have it, where a
// version 7 job carried the whole list, so a v7 worker would explore
// without it. Version 7 jobs carry the PMCs their test may adopt and its
// composed hints, which a v6 worker would ignore and explore without, so
// it is refused at its first lease. Version 6 jobs always carry both
// programs and their campaign's kernel version, where version 5 could
// name a corpus artifact the worker had to resolve from a shared store and
// let the worker pick the kernel. Version 5 settled outcomes in
// sched.Outcome's binary form where version 4 sent JSON. Within a version, jobs may carry an optional
// "trace" field stitching them to the originating campaign; peers that
// predate it ignore it (unknown JSON fields are dropped on decode), so it
// needed no version bump.
const ProtoVersion = 8

// Transport limits.
const (
	// maxFrame caps one frame, header line plus trailer (a lease answer's
	// head job inlines two programs, at most MaxJobBytes with the adoption
	// list it may carry).
	maxFrame = 1 << 20
	// maxTurn caps the jobs one lease frame grants, so a lease answer's
	// header stays far below the cap.
	maxTurn = 256
	// leaseHdrRoom bounds the header line of a one-job lease answer, so a
	// turn's head job may take the rest of the frame.
	leaseHdrRoom = 256
	// MaxJobBytes is the largest encoded job a lease answer carries: the
	// server nacks a larger head job, which then dead-letters.
	MaxJobBytes = maxFrame - leaseHdrRoom
	// idleTimeout is how long the server lets a connection sit silent
	// before dropping it. Workers poll far more often than this; only stuck
	// or hostile peers hit it.
	idleTimeout = 5 * time.Minute
)

type wireReq struct {
	V       int        `json:"v,omitempty"`
	Op      string     `json:"op"`
	N       int        `json:"n,omitempty"`      // lease: jobs wanted (at least one)
	Items   []wireItem `json:"items,omitempty"`  // settle: what each lease settles with
	Lease   uint64     `json:"lease,omitempty"`  // nack, extend
	Ms      int64      `json:"ms,omitempty"`     // extend: requested lease TTL
	Reason  string     `json:"reason,omitempty"` // nack: failure description
	Have    string     `json:"have,omitempty"`   // lease: digest of the adoption list the worker has
	Trailer int        `json:"trailer,omitempty"`
	// Queue names the registry queue the request addresses; empty targets
	// the unnamed queue.
	Queue string `json:"queue,omitempty"`
}

// wireItem is one settled lease in a settle header; its result's outcome
// is the next Len bytes of the trailer.
type wireItem struct {
	Lease  uint64     `json:"lease,omitempty"`
	Result *JobResult `json:"result,omitempty"`
	Len    int        `json:"len,omitempty"`
}

// wireLease is one granted lease in a lease answer; its job is the next
// Len bytes of the trailer.
type wireLease struct {
	Lease   uint64 `json:"lease"`
	Attempt int    `json:"attempt"`
	TTLMs   int64  `json:"ttl_ms"`
	Len     int    `json:"len"`
}

type wireResp struct {
	V       int         `json:"v,omitempty"`
	OK      bool        `json:"ok"`
	Err     string      `json:"err,omitempty"`
	Leases  []wireLease `json:"leases,omitempty"`
	Errs    []string    `json:"errs,omitempty"`   // settle: per item, "" when settled
	TTLMs   int64       `json:"ttl_ms,omitempty"` // extend: time until the deadline
	Adopt   int         `json:"adopt,omitempty"`  // lease: the adoption list's bytes, last in the trailer
	Trailer int         `json:"trailer,omitempty"`
}

// errFrameTooLarge reports a frame over the size cap.
var errFrameTooLarge = errors.New("frame too large")

// errNegTrailer reports a negative declared trailer length.
var errNegTrailer = errors.New("negative trailer length")

// errBadItems reports settle items that do not partition the trailer.
var errBadItems = errors.New("bad request: item lengths do not partition the trailer")

// readFrame reads one newline-terminated header line of at most max bytes.
// Oversized lines are discarded through to the newline — O(1) memory, the
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

// readTrailer reads the n-byte trailer a header line of hdr bytes
// declared into buf's storage when it has room, allocating only when the
// whole frame fits max.
func readTrailer(r *bufio.Reader, hdr, n, max int, buf []byte) ([]byte, error) {
	switch {
	case n < 0:
		return nil, errNegTrailer
	case n > max-hdr:
		return nil, errFrameTooLarge
	case n == 0:
		return nil, nil
	}
	b := buf[:0]
	if cap(b) < n {
		b = make([]byte, n)
	}
	b = b[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, fmt.Errorf("truncated trailer: %w", err)
	}
	return b, nil
}

// ServerOptions is empty: the frame cap and idle deadline are fixed. It
// stays so that callers passing ServerOptions{} keep compiling.
type ServerOptions struct{}

// Server exposes a Registry of queues over one TCP listener: a request's
// "queue" field selects the queue it addresses.
type Server struct {
	reg      *Registry
	frameCap int // frame cap in bytes (maxFrame outside tests)

	ln net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Serve starts listening on addr (e.g. "127.0.0.1:0") for q, registered
// as the unnamed queue of a registry of its own; the bound address is
// available via Addr. Closing the server leaves q open.
func Serve(q *Queue, addr string) (*Server, error) {
	return serve(&Registry{queues: map[string]*Queue{"": q}}, addr, maxFrame)
}

// ServeRegistry starts one listener serving every queue in reg — the
// control plane's multi-tenant transport. A request must name its queue
// unless reg holds an unnamed one.
func ServeRegistry(reg *Registry, addr string, _ ServerOptions) (*Server, error) {
	return serve(reg, addr, maxFrame)
}

func serve(reg *Registry, addr string, frameCap int) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("queue: listen: %w", err)
	}
	s := &Server{reg: reg, frameCap: frameCap, ln: ln}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// queueFor resolves the registry queue a request names.
func (s *Server) queueFor(name string) (*Queue, error) {
	if q := s.reg.Get(name); q != nil {
		return q, nil
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownQueue, name)
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

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
	w := bufio.NewWriter(conn)
	enc := json.NewEncoder(w)
	// in holds each request's trailer in turn: a settle's outcomes are
	// copied by Queue.Settle, so one buffer serves the connection.
	var in []byte
	for {
		_ = conn.SetReadDeadline(time.Now().Add(idleTimeout))
		line, readErr := readFrame(r, s.frameCap)
		if len(line) == 0 && !errors.Is(readErr, errFrameTooLarge) {
			// Connection drained (EOF), idle past the deadline, or failed
			// with nothing pending.
			return
		}
		resp, trailer, more := s.serveFrame(r, line, readErr, &in)
		resp.V, resp.Trailer = ProtoVersion, len(trailer)
		_ = enc.Encode(resp)
		_, _ = w.Write(trailer)
		_ = w.Flush()
		if !more {
			return
		}
	}
}

// fail is the answer to a request that did nothing.
func fail(err error) wireResp { return wireResp{Err: err.Error()} }

// serveFrame answers the frame whose header line readFrame returned
// (reading its trailer off r), with exactly one response. Malformed frames
// get an explicit error on the still-open connection rather than a silent
// drop; more is false once the connection cannot carry another frame.
func (s *Server) serveFrame(r *bufio.Reader, line []byte, readErr error, buf *[]byte) (resp wireResp, trailer []byte, more bool) {
	if errors.Is(readErr, errFrameTooLarge) {
		mNetBigFrame.Inc()
		mNetBadReq.Inc()
		return fail(errFrameTooLarge), nil, true
	}
	more = readErr == nil
	var req wireReq
	if err := json.Unmarshal(line, &req); err != nil {
		mNetBadReq.Inc()
		return fail(fmt.Errorf("bad request: %v", err)), nil, more
	}
	in, err := readTrailer(r, len(line), req.Trailer, s.frameCap, *buf)
	if cap(in) > cap(*buf) {
		*buf = in
	}
	switch {
	case errors.Is(err, errFrameTooLarge):
		mNetBigFrame.Inc()
		mNetBadReq.Inc()
		// Discard what the header declared, so the connection stays in
		// sync; nothing past the cap is buffered.
		_, err = io.CopyN(io.Discard, r, int64(req.Trailer))
		return fail(errFrameTooLarge), nil, more && err == nil
	case err != nil:
		mNetBadReq.Inc()
		return fail(fmt.Errorf("bad request: %w", err)), nil, false
	case req.V != 0 && req.V != ProtoVersion:
		mNetBadReq.Inc()
		return fail(fmt.Errorf("unsupported protocol version %d (server speaks %d)", req.V, ProtoVersion)), nil, more
	}
	resp, trailer = s.serveOp(req, in)
	return resp, trailer, more
}

// serveOp runs one decoded request and returns its answer and trailer.
func (s *Server) serveOp(req wireReq, trailer []byte) (wireResp, []byte) {
	q, err := s.queueFor(req.Queue)
	if err != nil {
		mNetBadReq.Inc()
		return fail(err), nil
	}
	if trailer != nil && req.Op != "settle" {
		mNetBadReq.Inc()
		return fail(fmt.Errorf("bad request: trailer on op %q", req.Op)), nil
	}
	switch req.Op {
	case "lease":
		mNetLease.Inc()
		return s.lease(q, min(req.N, maxTurn), req.Have)
	case "settle":
		mNetSettle.Inc()
		items, err := settlements(req.Items, trailer)
		if err != nil {
			mNetBadReq.Inc()
			return fail(err), nil
		}
		resp := wireResp{OK: true}
		for i, err := range q.Settle(items) {
			if err != nil {
				if resp.Errs == nil {
					resp.Errs = make([]string, len(items))
				}
				resp.Errs[i] = err.Error()
			}
		}
		return resp, nil
	case "nack":
		mNetNack.Inc()
		if err := q.Nack(req.Lease, req.Reason); err != nil {
			return fail(err), nil
		}
		return wireResp{OK: true}, nil
	case "extend":
		mNetExtend.Inc()
		deadline, err := q.Extend(req.Lease, time.Duration(req.Ms)*time.Millisecond)
		if err != nil {
			return fail(err), nil
		}
		return wireResp{OK: true, TTLMs: time.Until(deadline).Milliseconds()}, nil
	default:
		mNetUnknown.Inc()
		return fail(fmt.Errorf("unknown op %q", req.Op)), nil
	}
}

// lease grants up to n jobs of one adoption list, their encoded bytes in
// the answer's trailer, followed by the list's unless it is the one the
// worker has. The head job may fill the frame but for its header and that
// list; a job after it is granted only while the trailer stays within half
// the frame cap.
func (s *Server) lease(q *Queue, n int, have string) (wireResp, []byte) {
	var jobs []byte
	var grants []wireLease
	var adopt string    // the list every job of the turn names
	var list *AdoptList // that list, when the worker lacks it
	var encErr error
	leases, err := q.leaseN(nil, n, func(j *Job) bool {
		room := s.frameCap / 2
		if len(grants) == 0 {
			room = s.frameCap - leaseHdrRoom
			if adopt = j.Adopt; adopt != "" && adopt != have {
				list = q.lists[adopt]
			}
		} else if j.Adopt != adopt {
			return false
		}
		raw, err := EncodeJob(*j)
		if err == nil && len(jobs)+len(raw)+list.Len() > room {
			err = errFrameTooLarge
		}
		if err != nil {
			encErr = err
			return false
		}
		jobs = append(jobs, raw...)
		grants = append(grants, wireLease{Len: len(raw)})
		return true
	})
	if err != nil {
		return fail(err), nil
	}
	if len(grants) < len(leases) {
		// The head job cannot travel on this transport; hand it back so it
		// dead-letters instead of leaking as a leased job.
		_ = q.Nack(leases[0].ID, "encode: "+encErr.Error())
		return fail(encErr), nil
	}
	for i, ls := range leases {
		grants[i].Lease, grants[i].Attempt = ls.ID, ls.Attempt
		grants[i].TTLMs = time.Until(ls.Deadline).Milliseconds()
	}
	resp := wireResp{OK: true, Leases: grants}
	if list != nil {
		mNetAdopt.Inc()
		resp.Adopt = list.Len()
		jobs = append(jobs, list.enc...)
	}
	return resp, jobs
}

// settlements checks a settle header's items against its trailer — every
// length non-negative, carried only by an item with a result, and together
// exactly the trailer — and hands each result its outcome bytes.
func settlements(items []wireItem, trailer []byte) ([]Settlement, error) {
	out := make([]Settlement, len(items))
	off := 0
	for i, it := range items {
		if it.Len < 0 || it.Len > len(trailer)-off || (it.Len > 0 && it.Result == nil) {
			return nil, errBadItems
		}
		if it.Len > 0 {
			it.Result.Outcome = trailer[off : off+it.Len : off+it.Len]
		}
		out[i] = Settlement{Lease: it.Lease, Result: it.Result}
		off += it.Len
	}
	if off != len(trailer) {
		return nil, errBadItems
	}
	return out, nil
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
	// doubled settle records a duplicate result the coordinator's fold
	// deduplicates by job ID.
	MaxRetries int
	// BaseDelay is the first backoff step (default 50ms); each retry
	// doubles it up to MaxDelay (default 2s), with ±50% deterministic
	// jitter drawn from Seed.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed fixes the jitter stream (0 picks a process-unique seed).
	Seed int64
	// Dial overrides the transport (tests inject FlakyDialer here); nil
	// uses plain TCP.
	Dial func(addr string) (net.Conn, error)
	// Queue binds every request to one named queue on a multi-queue
	// server (see ServeRegistry); empty targets the unnamed queue.
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
	// held is the adoption list the last lease answer carried: every
	// lease names it, so the server sends each batch's list once.
	held *AdoptList
}

// DialOpts connects to a queue server with the given reconnect options
// (the zero value takes every default). The initial connection is
// established eagerly so configuration errors surface immediately.
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

// roundTrip sends one frame — the request header and its trailer, in one
// write — and reads one answer with its trailer, reconnecting and retrying
// on I/O errors.
func (c *Client) roundTrip(req wireReq, trailer []byte) (wireResp, []byte, error) {
	req.V, req.Queue, req.Trailer = ProtoVersion, c.opts.Queue, len(trailer)
	payload, err := json.Marshal(req)
	if err != nil {
		return wireResp{}, nil, err
	}
	payload = append(append(payload, '\n'), trailer...)

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
		resp, out, err := c.onceLocked(payload)
		if err != nil {
			lastErr = err
			c.dropConnLocked()
			continue
		}
		return resp, out, nil
	}
	return wireResp{}, nil, fmt.Errorf("queue: round-trip failed after %d attempts: %w", c.opts.MaxRetries+1, lastErr)
}

// onceLocked performs a single send/receive on the live connection.
func (c *Client) onceLocked(payload []byte) (wireResp, []byte, error) {
	if _, err := c.conn.Write(payload); err != nil {
		return wireResp{}, nil, err
	}
	line, err := readFrame(c.r, maxFrame)
	if err != nil {
		return wireResp{}, nil, err
	}
	var resp wireResp
	if err := json.Unmarshal(line, &resp); err != nil {
		return wireResp{}, nil, err
	}
	trailer, err := readTrailer(c.r, len(line), resp.Trailer, maxFrame, nil)
	if err != nil {
		return wireResp{}, nil, err
	}
	return resp, trailer, nil
}

// respError maps a server error string back to the package sentinel errors
// so errors.Is works across the wire.
func respError(msg string) error {
	switch msg {
	case ErrEmpty.Error():
		return ErrEmpty
	case ErrClosed.Error():
		return ErrClosed
	case ErrUnknownLease.Error():
		return ErrUnknownLease
	}
	// ErrUnknownQueue travels with the offending name appended, so match
	// on the prefix.
	if strings.HasPrefix(msg, ErrUnknownQueue.Error()) {
		return fmt.Errorf("%w: %s", ErrUnknownQueue, strings.TrimPrefix(msg, ErrUnknownQueue.Error()+" "))
	}
	return fmt.Errorf("queue: %s", msg)
}

// Lease fetches the next job under a lease; ErrEmpty when none are pending,
// ErrClosed when the queue has shut down.
func (c *Client) Lease() (Lease, error) {
	ls, err := c.LeaseN(nil, 1)
	if err != nil {
		return Lease{}, err
	}
	return ls[0], nil
}

// LeaseN leases up to n jobs in one round trip — a worker's turn — and
// appends them to dst, storage the caller keeps from turn to turn, with
// Lease's errors. Each lease carries the adoption list its job names: the
// one the client holds, or the one the answer brought, which it holds
// from then on. A job that fails to decode, or names a list the client does
// not have, is nacked straight back rather than left for the reaper, so it
// redelivers (or dead-letters, with the reason) at once; its error is
// returned only when no job decoded.
func (c *Client) LeaseN(dst []Lease, n int) ([]Lease, error) {
	c.mu.Lock()
	list := c.held
	c.mu.Unlock()
	have := ""
	if list != nil {
		have = list.Digest
	}
	resp, jobs, err := c.roundTrip(wireReq{Op: "lease", N: n, Have: have}, nil)
	if err != nil {
		return dst, err
	}
	if !resp.OK {
		return dst, respError(resp.Err)
	}
	var listErr error
	if resp.Adopt != 0 {
		if resp.Adopt < 0 || resp.Adopt > len(jobs) {
			listErr = fmt.Errorf("%w: %d bytes declared in a %d-byte trailer", ErrBadAdoptList, resp.Adopt, len(jobs))
		} else {
			split := len(jobs) - resp.Adopt
			raw := bytes.Clone(jobs[split:])
			jobs = jobs[:split]
			if list, listErr = decodeAdoptList(raw); listErr == nil {
				c.mu.Lock()
				c.held = list
				c.mu.Unlock()
			}
		}
	}
	now := time.Now()
	granted := len(dst)
	err = ErrEmpty // what an ok answer granting nothing means
	for _, g := range resp.Leases {
		var raw []byte
		if g.Len >= 0 && g.Len <= len(jobs) {
			raw, jobs = jobs[:g.Len], jobs[g.Len:]
		}
		job, derr := DecodeJob(raw)
		if derr == nil && job.Adopt != "" && (list == nil || list.Digest != job.Adopt) {
			derr = listErr
			if derr == nil {
				derr = fmt.Errorf("adoption list %q not received", job.Adopt)
			}
		}
		if derr != nil {
			_ = c.Nack(g.Lease, "decode: "+derr.Error())
			err = derr
			continue
		}
		ls := Lease{Job: job, ID: g.Lease, Attempt: g.Attempt,
			Deadline: now.Add(time.Duration(g.TTLMs) * time.Millisecond)}
		if job.Adopt != "" {
			ls.Adopt = list
		}
		dst = append(dst, ls)
	}
	if len(dst) == granted {
		return dst, err
	}
	return dst, nil
}

// Settle settles a turn's leases in one round trip: the server records
// each item's result and releases its lease in one critical section
// (Queue.Settle), and the outcomes travel as their bytes. It returns one
// error per item — nil, or ErrUnknownLease when the lease had lapsed but
// the result still landed — or an error for the whole call when a frame
// went unanswered. Outcomes past half the frame cap spill into further
// frames.
func (c *Client) Settle(items []Settlement) ([]error, error) {
	errs := make([]error, 0, len(items))
	for len(items) > 0 {
		hdr := make([]wireItem, 0, len(items))
		var trailer []byte
		for _, it := range items {
			w := wireItem{Lease: it.Lease}
			if it.Result != nil {
				if len(hdr) > 0 && len(trailer)+len(it.Result.Outcome) > maxFrame/2 {
					break
				}
				w.Result, w.Len = it.Result, len(it.Result.Outcome)
				trailer = append(trailer, it.Result.Outcome...)
			}
			hdr = append(hdr, w)
		}
		resp, _, err := c.roundTrip(wireReq{Op: "settle", Items: hdr}, trailer)
		if err == nil && !resp.OK {
			err = respError(resp.Err)
		}
		if err != nil {
			return nil, err
		}
		for i := range hdr {
			var e error
			if i < len(resp.Errs) && resp.Errs[i] != "" {
				e = respError(resp.Errs[i])
			}
			errs = append(errs, e)
		}
		items = items[len(hdr):]
	}
	return errs, nil
}

// settleOne is a one-item Settle.
func (c *Client) settleOne(s Settlement) error {
	errs, err := c.Settle([]Settlement{s})
	if err != nil {
		return err
	}
	return errs[0]
}

// Ack settles a lease with no result. ErrUnknownLease after a successful
// Report is benign: the lease expired (or a retried ack already landed)
// and the coordinator deduplicates any redelivered result.
func (c *Client) Ack(id uint64) error { return c.settleOne(Settlement{Lease: id}) }

// Report sends a result back without settling a lease.
func (c *Client) Report(r JobResult) error { return c.settleOne(Settlement{Result: &r}) }

// Nack hands a lease back for redelivery with a reason.
func (c *Client) Nack(id uint64, reason string) error {
	resp, _, err := c.roundTrip(wireReq{Op: "nack", Lease: id, Reason: reason}, nil)
	if err != nil {
		return err
	}
	if !resp.OK {
		return respError(resp.Err)
	}
	return nil
}

// Extend pushes a lease deadline out by d (the server's lease timeout when
// d <= 0) and returns the new deadline.
func (c *Client) Extend(id uint64, d time.Duration) (time.Time, error) {
	resp, _, err := c.roundTrip(wireReq{Op: "extend", Lease: id, Ms: d.Milliseconds()}, nil)
	if err != nil {
		return time.Time{}, err
	}
	if !resp.OK {
		return time.Time{}, respError(resp.Err)
	}
	return time.Now().Add(time.Duration(resp.TTLMs) * time.Millisecond), nil
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
