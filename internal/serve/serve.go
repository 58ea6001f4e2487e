// Package serve is the concurrent assignment engine behind the rockd
// daemon: it wraps a compiled model (internal/model.Assigner) in a
// GOMAXPROCS-sized worker pool for batch assignment, a lock-free
// atomic-pointer model slot for zero-downtime hot reload, and fixed-bucket
// latency/counter metrics.
//
// Consistency model: every batch captures the model pointer once at entry,
// so a hot swap never mixes two models inside one batch — concurrent
// requests during a reload are each served entirely by the old or entirely
// by the new model.
package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"sync/atomic"

	"rock/internal/dataset"
	"rock/internal/label"
	"rock/internal/model"
)

// Assignment is one served labeling decision.
type Assignment struct {
	// Cluster is the assigned cluster index, or label.Outlier (-1).
	Cluster int `json:"cluster"`
	// Score is the normalized neighbor count behind the decision (0 for
	// outliers).
	Score float64 `json:"score"`
}

// Outlier mirrors label.Outlier for callers of this package.
const Outlier = label.Outlier

// chunkSize is the number of transactions per worker-pool job. Small enough
// to spread a batch across the pool, large enough that channel traffic is
// noise next to the O(|batch|·Σ|L_i|) similarity work.
const chunkSize = 64

type job struct {
	a *model.Assigner
	// cache is the answer cache resolved by the submitter for this chunk's
	// assigner (nil bypasses). Resolving at submit time is what lets one
	// engine serve many models: each batch carries its own model's cache
	// instead of the engine's single bound slot.
	cache *Cache
	in    []dataset.Transaction
	out   []Assignment
	wg    *sync.WaitGroup
}

// Engine serves assignments from a hot-swappable model.
type Engine struct {
	cur     atomic.Pointer[model.Assigner]
	jobs    chan job
	workers int
	wg      sync.WaitGroup

	// cache is the answer cache for the current model (nil when disabled).
	// Each instance is bound to one assigner; Swap installs a fresh one, so
	// a batch running on a just-replaced model bypasses it rather than ever
	// reading another model's answers.
	cache    atomic.Pointer[Cache]
	cacheCap int

	requests    atomic.Uint64
	assignments atomic.Uint64
	outliers    atomic.Uint64
	reloads     atomic.Uint64
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	cacheEvicts atomic.Uint64
	lat         Histogram
}

// New starts an engine serving from a, with a worker pool of the given size
// (<= 0 selects GOMAXPROCS). Close releases the pool.
func New(a *model.Assigner, workers int) (*Engine, error) {
	if a == nil {
		return nil, errors.New("serve: nil assigner")
	}
	e := NewIdle(workers)
	e.cur.Store(a)
	return e, nil
}

// NewIdle starts an engine with no model loaded: Model returns nil and the
// serving layer must answer "not ready" until Swap installs one. rockd uses
// this to come up against an empty snapshot directory and turn ready on the
// first successful reload.
func NewIdle(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		jobs:    make(chan job, 4*workers),
		workers: workers,
	}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.jobs {
		e.runChunk(j.a, j.cache, j.in, j.out)
		j.wg.Done()
	}
}

// boundCache resolves the engine's own answer cache for a captured model:
// non-nil only when the cache instance is bound to exactly that assigner.
// During a hot swap, chunks still running on the old model see the new
// model's cache and simply bypass it.
func (e *Engine) boundCache(a *model.Assigner) *Cache {
	if cc := e.cache.Load(); cc.For(a) {
		return cc
	}
	return nil
}

func (e *Engine) runChunk(a *model.Assigner, cache *Cache, in []dataset.Transaction, out []Assignment) {
	if !cache.For(a) {
		// Never read answers computed by a different assigner, no matter
		// what the submitter handed us.
		cache = nil
	}
	outliers, hits, misses := 0, 0, 0
	for i, t := range in {
		if cache != nil && t.IsNormalized() {
			if asg, ok := cache.Get(t); ok {
				out[i] = asg
				hits++
				if asg.Cluster == Outlier {
					outliers++
				}
				continue
			}
			misses++
			c, s := a.Assign(t)
			out[i] = Assignment{Cluster: c, Score: s}
			cache.Put(t, out[i])
			if c == Outlier {
				outliers++
			}
			continue
		}
		c, s := a.Assign(t)
		out[i] = Assignment{Cluster: c, Score: s}
		if c == Outlier {
			outliers++
		}
	}
	if outliers > 0 {
		e.outliers.Add(uint64(outliers))
	}
	if hits > 0 {
		e.cacheHits.Add(uint64(hits))
	}
	if misses > 0 {
		e.cacheMisses.Add(uint64(misses))
	}
}

// EnableCache turns on the answer cache with roughly capacity entries,
// keyed on normalized transaction bytes and invalidated wholesale on every
// model swap. capacity <= 0 disables it. Call before serving traffic;
// enabling mid-flight is safe but the instance only binds to the model
// current at the call.
func (e *Engine) EnableCache(capacity int) {
	if capacity <= 0 {
		e.cacheCap = 0
		e.cache.Store(nil)
		return
	}
	e.cacheCap = capacity
	if a := e.cur.Load(); a != nil {
		e.cache.Store(NewCache(capacity, a, &e.cacheEvicts))
	}
}

// CacheLen returns the number of currently cached answers (0 when the cache
// is disabled).
func (e *Engine) CacheLen() int {
	if c := e.cache.Load(); c != nil {
		return c.Len()
	}
	return 0
}

// Model returns the currently served assigner, or nil when the engine was
// started idle and no model has been swapped in yet.
func (e *Engine) Model() *model.Assigner { return e.cur.Load() }

// Ready reports whether a model is loaded.
func (e *Engine) Ready() bool { return e.cur.Load() != nil }

// Swap atomically installs a new model and returns the previous one (nil
// when the engine was idle). In-flight batches keep using the model they
// started with; new batches see the new model immediately. Swap never
// blocks assignment traffic. A nil assigner is refused — installing it
// would crash every subsequent Assign — so a buggy reload path degrades to
// an error, not an outage.
func (e *Engine) Swap(a *model.Assigner) (*model.Assigner, error) {
	if a == nil {
		return nil, errors.New("serve: refusing to install a nil assigner")
	}
	old := e.cur.Swap(a)
	// A fresh, empty cache bound to the new model — the entire invalidation
	// story. Batches still running on old keep bypassing (instance check).
	if e.cacheCap > 0 {
		e.cache.Store(NewCache(e.cacheCap, a, &e.cacheEvicts))
	}
	e.reloads.Add(1)
	return old, nil
}

// AssignAllContextInto labels a batch with the captured assigner a,
// writing into a caller-provided slice (len(out) must equal len(ts)) so a
// pooled-buffer serving loop — the daemon's binary codec path — can assign
// without allocating. The batch is served entirely by a even if a
// concurrent Swap installs another model, which is what lets rockd encode
// records against a model's schema and then assign them under that same
// model. Batches over one chunk fan out across the worker pool; concurrent
// calls interleave their chunks over the shared pool.
//
// Under a deadline it stops handing chunks to the pool once ctx is done and
// returns ctx's error. Chunks already submitted run to completion (workers
// never abandon a chunk mid-slice), so a cancelled call costs at most one
// chunk per worker of extra latency. On error out holds a partial answer
// and must be discarded: a half-labeled batch is worse than a clean failure.
func (e *Engine) AssignAllContextInto(ctx context.Context, a *model.Assigner, ts []dataset.Transaction, out []Assignment) error {
	return e.assignAllContextInto(ctx, a, e.boundCache(a), ts, out)
}

// AssignAllCachedInto is AssignAllContextInto against an explicitly supplied
// answer cache instead of the engine's own bound slot. This is the
// multi-model entry point: a registry holds one cache per loaded model and
// hands the right one in with each batch, while the pool, histogram and
// counters stay shared. A cache not bound to a (or nil) is bypassed, so a
// reload race can never serve another generation's answers.
func (e *Engine) AssignAllCachedInto(ctx context.Context, a *model.Assigner, cache *Cache, ts []dataset.Transaction, out []Assignment) error {
	return e.assignAllContextInto(ctx, a, cache, ts, out)
}

func (e *Engine) assignAllContextInto(ctx context.Context, a *model.Assigner, cache *Cache, ts []dataset.Transaction, out []Assignment) error {
	if a == nil {
		panic("serve: AssignAllContextInto called with a nil assigner")
	}
	if len(out) != len(ts) {
		panic("serve: AssignAllContextInto output length mismatch")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	if len(ts) <= chunkSize || e.workers == 1 {
		e.runChunk(a, cache, ts, out)
		e.finish(start, len(ts))
		return nil
	}
	var wg sync.WaitGroup
	cancelled := false
	for lo := 0; lo < len(ts) && !cancelled; lo += chunkSize {
		hi := lo + chunkSize
		if hi > len(ts) {
			hi = len(ts)
		}
		select {
		case <-ctx.Done():
			cancelled = true
		default:
			wg.Add(1)
			e.jobs <- job{a: a, cache: cache, in: ts[lo:hi], out: out[lo:hi], wg: &wg}
		}
	}
	wg.Wait()
	if cancelled {
		return ctx.Err()
	}
	e.finish(start, len(ts))
	return nil
}

func (e *Engine) finish(start time.Time, n int) {
	e.requests.Add(1)
	e.assignments.Add(uint64(n))
	e.lat.Observe(time.Since(start))
}

// Metrics returns a point-in-time snapshot of the engine's counters.
func (e *Engine) Metrics() Metrics {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return Metrics{
		Requests:       e.requests.Load(),
		Assignments:    e.assignments.Load(),
		Outliers:       e.outliers.Load(),
		Reloads:        e.reloads.Load(),
		CacheHits:      e.cacheHits.Load(),
		CacheMisses:    e.cacheMisses.Load(),
		CacheEvictions: e.cacheEvicts.Load(),
		CacheEntries:   uint64(e.CacheLen()),
		P50Millis:      ms(e.lat.Quantile(0.50)),
		P99Millis:      ms(e.lat.Quantile(0.99)),
		MeanMillis:     ms(e.lat.Mean()),
	}
}

// Latency returns a point-in-time snapshot of the engine's request-latency
// histogram, for Prometheus exposition.
func (e *Engine) Latency() HistogramSnapshot { return e.lat.Snapshot() }

// Close stops the worker pool. No AssignAll*Into calls may be in flight
// or follow; rockd closes the engine only after the HTTP server has fully
// drained.
func (e *Engine) Close() {
	close(e.jobs)
	e.wg.Wait()
}
