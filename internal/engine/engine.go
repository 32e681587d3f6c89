package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"earlybird/internal/cluster"
	"earlybird/internal/dlb"
	"earlybird/internal/trace"
	"earlybird/internal/workload"
)

// Key is the content address of a generated dataset: the workload model's
// name plus the full geometry including the master seed, plus the
// canonical DLB policy under which the samples were produced — a
// rebalanced run yields different times than a static one, so the two
// must never share a cache entry. Two specs with equal keys receive the
// identical dataset, so custom models must use distinct names for
// distinct parameterisations. DLB must be in canonical (resolved) form;
// the zero Spec is the static policy, keeping pre-DLB keys meaningful.
type Key struct {
	Model    string
	Geometry cluster.Config
	DLB      dlb.Spec
}

// cacheEntry single-flights one dataset generation: the first goroutine
// to reach the entry runs it, everyone else blocks on the Once and reads
// the shared result — one flat sample column plus a small header, with
// the fingerprint already accumulated during the fill.
type cacheEntry struct {
	once sync.Once
	ds   *trace.Dataset
	err  error
	// done flips once the generation has finished; only done entries are
	// eviction candidates (an in-flight entry is about to be read by the
	// goroutines blocked on its Once).
	done atomic.Bool
	// lastUse is the engine's access sequence number at the entry's most
	// recent lookup; the eviction policy removes the smallest. Guarded by
	// the engine mutex.
	lastUse int64
}

// Engine is a dataset cache plus the worker-pool configuration shared by
// the campaigns run on it. The zero value is not usable; call New. An
// Engine is safe for concurrent use and may be shared across campaigns
// so later campaigns reuse earlier datasets.
type Engine struct {
	workers int

	mu          sync.Mutex
	cache       map[Key]*cacheEntry
	seq         int64
	maxDatasets int
	progress    ProgressFactory

	executions atomic.Int64
	inFlight   atomic.Int64
	evictions  atomic.Int64
}

// ProgressFactory creates the live telemetry attachment for one dataset
// generation: the returned sink observes the fill (nil detaches it) and
// done, when non-nil, is called once the generation finishes — success
// or failure — so trackers can be retired. Cache hits and coalesced
// joiners never invoke the factory: one generation, one tracker.
type ProgressFactory func(model string, geom cluster.Config, policy dlb.Spec) (sink cluster.ProgressSink, done func())

// SetProgress installs the generation telemetry factory (the serve
// layer's registry wiring); nil detaches it. Generations already in
// flight keep the factory they started with.
func (e *Engine) SetProgress(f ProgressFactory) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.progress = f
}

// progressFactory reads the installed factory.
func (e *Engine) progressFactory() ProgressFactory {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.progress
}

// New returns an engine whose campaigns run at most workers studies
// concurrently; workers <= 0 means one per usable CPU (GOMAXPROCS).
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers, cache: map[Key]*cacheEntry{}}
}

// Workers returns the campaign concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Executions returns how many dataset generations the engine has actually
// run — cache hits do not count. Tests use this to verify deduplication.
func (e *Engine) Executions() int64 { return e.executions.Load() }

// CachedDatasets returns the number of distinct datasets held.
func (e *Engine) CachedDatasets() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

// EvictedDatasets returns how many datasets the cache bound has evicted
// over the engine's lifetime.
func (e *Engine) EvictedDatasets() int64 { return e.evictions.Load() }

// SetMaxDatasets bounds the dataset cache to at most n completed entries,
// evicting the least recently used when a new generation would exceed the
// bound; n <= 0 removes the bound. In-flight generations are never
// evicted, so the momentary population can exceed n while datasets are
// being produced. Evicted datasets regenerate (and count as executions)
// on their next request.
func (e *Engine) SetMaxDatasets(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.maxDatasets = n
	e.trimLocked()
}

// trimLocked evicts least-recently-used completed entries until the cache
// respects the bound. Callers must hold e.mu.
func (e *Engine) trimLocked() {
	if e.maxDatasets <= 0 {
		return
	}
	for len(e.cache) > e.maxDatasets {
		var victimKey Key
		var victim *cacheEntry
		for k, entry := range e.cache {
			if !entry.done.Load() {
				continue
			}
			if victim == nil || entry.lastUse < victim.lastUse {
				victimKey, victim = k, entry
			}
		}
		if victim == nil {
			return // everything over the bound is still generating
		}
		delete(e.cache, victimKey)
		e.evictions.Add(1)
	}
}

// DatasetDLB returns the dataset for (model, geometry) under a
// rebalancing policy, generating it on first request and serving every
// later — or concurrent — request from the cache; each distinct resolved
// policy is its own cache entry. The second return reports whether this
// call was served from cache without triggering the generation. Callers
// must not mutate the returned dataset.
func (e *Engine) DatasetDLB(model workload.Model, geom cluster.Config, policy dlb.Spec) (*trace.Dataset, bool, error) {
	return e.dataset(model, geom, policy, 1)
}

// Columnar is DatasetDLB under the static policy.
//
// Deprecated: the service benchmark module (servicebench) calls it, so it
// stays until that module changes; new code should call DatasetDLB.
func (e *Engine) Columnar(model workload.Model, geom cluster.Config) (*trace.Dataset, bool, error) {
	return e.DatasetDLB(model, geom, dlb.Spec{})
}

// ColumnarDLB is DatasetDLB.
//
// Deprecated: the service benchmark module (servicebench) calls it, so it
// stays until that module changes; new code should call DatasetDLB.
func (e *Engine) ColumnarDLB(model workload.Model, geom cluster.Config, policy dlb.Spec) (*trace.Dataset, bool, error) {
	return e.DatasetDLB(model, geom, policy)
}

// PrefetchDLB generates the datasets of several models at one geometry
// and policy concurrently — dataset generation only, no analysis —
// dividing the machine fairly between them. Already-cached datasets
// cost nothing.
func (e *Engine) PrefetchDLB(models []workload.Model, geom cluster.Config, policy dlb.Spec) error {
	concurrent := e.workers
	if concurrent > len(models) {
		concurrent = len(models)
	}
	sem := make(chan struct{}, concurrent)
	var wg sync.WaitGroup
	errs := make([]error, len(models))
	for i, m := range models {
		wg.Add(1)
		go func(i int, m workload.Model) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			_, _, errs[i] = e.dataset(m, geom, policy, concurrent)
		}(i, m)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// dataset is DatasetDLB with an expected-concurrency hint from callers
// that know their fan-out up front (campaigns, PrefetchDLB), so every
// generation in a batch gets its fair share of CPUs from the start
// instead of early starters over-allocating. The policy is canonicalised
// before keying so spelled-out defaults and bare policy names share an
// entry.
func (e *Engine) dataset(model workload.Model, geom cluster.Config, policy dlb.Spec, hint int) (*trace.Dataset, bool, error) {
	policy, err := policy.Resolve()
	if err != nil {
		return nil, false, err
	}
	if err := geom.Validate(); err != nil {
		return nil, false, err
	}
	key := Key{Model: model.Name(), Geometry: geom, DLB: policy}
	e.mu.Lock()
	entry, ok := e.cache[key]
	if !ok {
		entry = &cacheEntry{}
		e.cache[key] = entry
	}
	e.seq++
	entry.lastUse = e.seq
	if !ok {
		e.trimLocked()
	}
	e.mu.Unlock()

	hit := true
	entry.once.Do(func() {
		hit = false
		e.executions.Add(1)
		concurrent := int(e.inFlight.Add(1))
		defer func() {
			e.inFlight.Add(-1)
			entry.done.Store(true)
		}()
		if hint > concurrent {
			concurrent = hint
		}
		var progress cluster.ProgressSink
		if f := e.progressFactory(); f != nil {
			var done func()
			progress, done = f(model.Name(), geom, key.DLB)
			if done != nil {
				defer done()
			}
		}
		sink := trace.NewSink(model.Name(), geom.Trials, geom.Ranks, geom.Iterations, geom.Threads)
		_, entry.err = cluster.Fill(cluster.Job{Model: model, Config: geom, Policy: key.DLB,
			Workers: e.innerWorkers(concurrent), Sink: sink, Progress: progress})
		if entry.err == nil {
			entry.ds, entry.err = sink.Seal()
		}
	})
	return entry.ds, hit, entry.err
}

// innerWorkers divides the CPUs between concurrent generations so a lone
// DatasetDLB call still uses the whole machine while a fan-out of N studies
// does not run N x GOMAXPROCS fill goroutines.
func (e *Engine) innerWorkers(concurrent int) int {
	if concurrent < 1 {
		concurrent = 1
	}
	inner := runtime.GOMAXPROCS(0) / concurrent
	if inner < 1 {
		inner = 1
	}
	return inner
}
