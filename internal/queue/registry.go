package queue

import (
	"errors"
	"sync"
)

// ErrUnknownQueue is returned by named-queue operations addressing a queue
// the registry has never opened. Names are opened explicitly (by the
// campaign control plane when a campaign is admitted), so a typo in a
// worker's -queue flag fails loudly instead of silently creating an empty
// queue nobody feeds.
var ErrUnknownQueue = errors.New("queue: unknown queue")

// Registry is a set of named queues sharing one delivery configuration,
// the multi-tenant backbone of the campaign control plane: each campaign
// gets its own named queue ("campaign.<id>"), all of them served over a
// single TCP listener (see ServeRegistry), with per-queue
// "queue.<name>.depth" gauges keeping every tenant's backlog separately
// observable.
type Registry struct {
	template Options

	mu     sync.Mutex
	queues map[string]*Queue
}

// NewRegistry returns an empty registry. template supplies the delivery
// options (lease timeout, max attempts) every opened queue inherits; its
// Name field is ignored — each queue is named by Open.
func NewRegistry(template Options) *Registry {
	return &Registry{template: template, queues: make(map[string]*Queue)}
}

// Open returns the named queue, creating it with the registry's template
// options on first use or when the queue under that name was closed — a
// finished campaign closes its queue, so the same campaign started again
// gets a fresh one.
func (r *Registry) Open(name string) *Queue {
	r.mu.Lock()
	defer r.mu.Unlock()
	if q, ok := r.queues[name]; ok && !q.isClosed() {
		return q
	}
	o := r.template
	o.Name = name
	q := NewWithOptions(o)
	r.queues[name] = q
	return q
}

// Get returns the named queue, or nil if it was never opened.
func (r *Registry) Get(name string) *Queue {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.queues[name]
}

// Close closes every opened queue.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, q := range r.queues {
		q.Close()
	}
}
