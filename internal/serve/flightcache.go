package serve

import (
	"container/list"
	"context"
	"sync"
	"time"

	"picpredict/internal/obs"
)

// flightCache is the cache under both the model registry and the workload
// build cache: each key's value is built at most once at a time
// (singleflight), built values live in an LRU bounded by the summed size of
// its entries, and builds run on the server's lifecycle context so one
// cancelled request never aborts a build other requests are waiting on.
type flightCache[K comparable, V any] struct {
	life   context.Context
	budget int64
	size   func(V) int64
	// admit, when set, decides whether an absent key gets an entry; it is
	// called with mu held. A refused key is built on its caller's context
	// for that caller alone and never retained.
	admit func(K) bool
	// dropOrphans cancels an in-flight build, and drops its entry, once
	// every caller waiting on it has given up, so no build outlives the
	// requests that asked for it.
	dropOrphans bool
	reg         *obs.Registry
	names       flightNames

	mu      sync.Mutex
	entries map[K]*flight[K, V]
	order   *list.List // front = most recently used
	used    int64
}

// flightNames are the obs instruments a flightCache reports to; an empty
// name is not reported.
type flightNames struct {
	hits, misses, evictions string
	// bytes is a gauge of the resident size, moved by signed Adds.
	bytes string
	// buildNs times every singleflight build.
	buildNs string
}

// flight is one cache entry. ready is closed, with the cache's mu held,
// when the build finishes; before that val, err and buildNs must not be
// read. A failed build is removed from the cache before ready closes, so
// only the waiters already attached see its error.
type flight[K comparable, V any] struct {
	key     K
	elem    *list.Element
	ready   chan struct{}
	cancel  context.CancelFunc
	val     V
	err     error
	buildNs int64

	// mutable under flightCache.mu.
	size    int64 // accounted size, 0 until built
	hits    int64
	waiters int // callers attached before the build finished that have not given up
}

func newFlightCache[K comparable, V any](life context.Context, budget int64, size func(V) int64, reg *obs.Registry, names flightNames) *flightCache[K, V] {
	return &flightCache[K, V]{
		life:    life,
		budget:  budget,
		size:    size,
		reg:     reg,
		names:   names,
		entries: make(map[K]*flight[K, V]),
		order:   list.New(),
	}
}

// get returns the value for key, building it with build on a miss.
// Concurrent callers of one key collapse onto one build; hit reports that
// an entry (built or in flight) already existed. A cancelled ctx abandons
// only this caller's wait.
func (c *flightCache[K, V]) get(ctx context.Context, key K, build func(context.Context) (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		c.joinLocked(e)
		c.mu.Unlock()
		c.add(c.names.hits, 1)
		v, err = c.wait(ctx, e)
		return v, true, err
	}
	if c.admit != nil && !c.admit(key) {
		c.mu.Unlock()
		c.add(c.names.misses, 1)
		v, err = build(ctx)
		return v, false, err
	}
	buildCtx, cancel := context.WithCancel(c.life)
	e := &flight[K, V]{key: key, ready: make(chan struct{}), cancel: cancel, waiters: 1}
	e.elem = c.order.PushFront(e)
	c.entries[key] = e
	c.mu.Unlock()
	c.add(c.names.misses, 1)

	go c.run(buildCtx, e, build)
	v, err = c.wait(ctx, e)
	return v, false, err
}

// peek joins a resident entry (built or in flight) exactly like a hit and
// never starts a build: an absent key reports ok=false immediately.
func (c *flightCache[K, V]) peek(ctx context.Context, key K) (v V, ok bool, err error) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		c.mu.Unlock()
		return v, false, nil
	}
	c.joinLocked(e)
	c.mu.Unlock()
	c.add(c.names.hits, 1)
	v, err = c.wait(ctx, e)
	return v, true, err
}

func (c *flightCache[K, V]) joinLocked(e *flight[K, V]) {
	c.order.MoveToFront(e.elem)
	e.hits++
	if !built(e) {
		e.waiters++
	}
}

// run builds one entry and publishes the result. A value larger than the
// whole budget is handed to its waiters but not retained.
func (c *flightCache[K, V]) run(ctx context.Context, e *flight[K, V], build func(context.Context) (V, error)) {
	t0 := time.Now()
	v, err := build(ctx)
	e.cancel()
	e.buildNs = time.Since(t0).Nanoseconds()
	if c.names.buildNs != "" {
		c.reg.Timer(c.names.buildNs).Observe(time.Duration(e.buildNs))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e.val, e.err = v, err
	if err != nil || c.entries[e.key] != e {
		c.removeLocked(e) // failed, or already dropped by its last waiter
	} else if size := c.size(v); size > c.budget {
		c.removeLocked(e)
	} else {
		e.size = size
		c.used += size
		c.add(c.names.bytes, size)
	}
	close(e.ready)
	c.evictLocked()
}

// wait blocks until e is built or ctx is done.
func (c *flightCache[K, V]) wait(ctx context.Context, e *flight[K, V]) (V, error) {
	select {
	case <-e.ready:
		return e.val, e.err
	case <-ctx.Done():
		c.leave(e)
		var zero V
		return zero, ctx.Err()
	}
}

// leave detaches one waiter that gave up. Under dropOrphans the last one
// to leave an unfinished build cancels it and drops its entry, so a later
// request starts afresh instead of joining a cancelled build.
func (c *flightCache[K, V]) leave(e *flight[K, V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if built(e) {
		return
	}
	if e.waiters--; e.waiters == 0 && c.dropOrphans {
		c.removeLocked(e)
		e.cancel()
	}
}

// built reports whether e's build has finished.
func built[K comparable, V any](e *flight[K, V]) bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// evictLocked drops least-recently-used built entries until the resident
// size fits the budget. In-flight entries are skipped: evicting one would
// let a concurrent request for the same key start a duplicate build,
// exactly what singleflight exists to prevent.
func (c *flightCache[K, V]) evictLocked() {
	for el := c.order.Back(); el != nil && c.used > c.budget; {
		e := el.Value.(*flight[K, V])
		el = el.Prev()
		if !built(e) {
			continue
		}
		c.removeLocked(e)
		c.add(c.names.evictions, 1)
	}
}

// removeLocked drops e from the map, the LRU order and the resident size.
// Idempotent: a failed or orphaned entry may already be gone.
func (c *flightCache[K, V]) removeLocked(e *flight[K, V]) {
	if c.entries[e.key] != e {
		return
	}
	delete(c.entries, e.key)
	c.order.Remove(e.elem)
	c.used -= e.size
	c.add(c.names.bytes, -e.size)
}

func (c *flightCache[K, V]) add(name string, n int64) {
	if name != "" && n != 0 {
		c.reg.Counter(name).Add(n)
	}
}

// flightInfo is one entry frozen for a snapshot.
type flightInfo[K comparable] struct {
	key     K
	built   bool
	hits    int64
	buildNs int64
}

// snapshot lists the entries in most-recently-used-first order, with the
// resident size.
func (c *flightCache[K, V]) snapshot() ([]flightInfo[K], int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]flightInfo[K], 0, len(c.entries))
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*flight[K, V])
		info := flightInfo[K]{key: e.key, built: built(e), hits: e.hits}
		if info.built {
			info.buildNs = e.buildNs
		}
		out = append(out, info)
	}
	return out, c.used
}

// len returns the number of resident entries, builds in flight included.
func (c *flightCache[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
