// Package pool provides a small persistent worker pool for data-parallel
// loops over mutually independent shards — the concurrency substrate of the
// parallel ingestion engine. The checkpoint frameworks feed one element to
// every live checkpoint's oracle with a single Run call, so the pool
// sits directly on the ingestion hot path: workers stay parked between
// elements, and a steady-state Run performs no heap allocation — run
// descriptors are recycled through a sync.Pool and workers receive a small
// value struct per shard instead of a fresh closure.
package pool

import (
	"runtime"
	"sync"
)

// runState is one Run call's shared descriptor. Workers derive their index
// range from (n, shards, shard index), so submitting a shard costs one
// channel send of a two-word value — no per-shard closure.
type runState struct {
	fn     func(i int)
	n      int
	shards int
	wg     sync.WaitGroup
}

var runStates = sync.Pool{New: func() any { return new(runState) }}

// shardTask is the unit handed to a worker: shard s of the loop described
// by rs.
type shardTask struct {
	rs *runState
	s  int
}

// Pool is a fixed set of persistent worker goroutines that execute parallel
// for-loops submitted through Run. A nil *Pool is valid and runs every loop
// serially on the caller's goroutine, which makes "no pool" the zero-cost
// representation of Parallelism=1.
//
// Run may be called from multiple goroutines, but must not be called from
// inside a function executing on the pool (workers joining on workers can
// deadlock once all workers are occupied).
type Pool struct {
	workers int
	tasks   chan shardTask
	closed  sync.Once
}

// New returns a pool with n persistent workers, or nil — the serial pool —
// when n <= 1 leaves nothing to fan out to. n == 0 selects GOMAXPROCS.
func New(n int) *Pool {
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n <= 1 {
		return nil
	}
	p := &Pool{workers: n, tasks: make(chan shardTask, n)}
	// The submitting goroutine always runs shard 0 itself, so n-1 parked
	// workers saturate n cores.
	for i := 0; i < n-1; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	for t := range p.tasks {
		rs := t.rs
		lo, hi := t.s*rs.n/rs.shards, (t.s+1)*rs.n/rs.shards
		for i := lo; i < hi; i++ {
			rs.fn(i)
		}
		rs.wg.Done()
	}
}

// Workers returns the parallel width loops submitted to p run at (1 for the
// nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Run executes fn(0) … fn(n-1), partitioned into contiguous shards across
// the pool's workers, and returns when every call has completed. The shard
// executed by the calling goroutine means Run makes progress even if all
// workers are busy with loops submitted by other callers. Calls of fn must
// be safe to run concurrently with each other.
//
// Run itself is allocation-free in steady state provided fn does not
// allocate at the call site (pass a cached func value, not a freshly
// captured closure).
func (p *Pool) Run(n int, fn func(i int)) {
	shards := p.Workers()
	if shards > n {
		shards = n
	}
	if shards <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	rs := runStates.Get().(*runState)
	rs.fn, rs.n, rs.shards = fn, n, shards
	rs.wg.Add(shards - 1)
	for s := 1; s < shards; s++ {
		p.tasks <- shardTask{rs: rs, s: s}
	}
	for i := 0; i < n/shards; i++ { // shard 0, on the caller
		fn(i)
	}
	rs.wg.Wait()
	rs.fn = nil // do not retain the caller's func across reuse
	runStates.Put(rs)
}

// Close releases the worker goroutines. Using the pool after Close panics;
// closing a nil or already-closed pool is a no-op.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.closed.Do(func() { close(p.tasks) })
}
