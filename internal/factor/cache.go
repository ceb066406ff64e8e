package factor

import (
	"container/list"
	"math"
	"sync"

	"repro/internal/sparse"
)

// Factor cache: the factor-once/serve-many half of the solve service. A
// service-shaped workload (repeated dtmsolve invocations in one process,
// crash-restart refactorisations, preconditioner reuse, many solver
// goroutines sharing a matrix) keeps asking for the factor of the same
// matrix; the cache keys factors by a hash of the matrix pattern AND values
// (same pattern with different values is a different system and must miss),
// plus the backend name, the ordering and the port count — all three change
// what New would build. Entries are LRU-evicted against a byte budget sized by
// the factors' real memory footprint.
//
// Hits return the cached LocalSolver. That is safe to share across
// goroutines because every backend's SolveTo/SolveBatchTo is reentrant —
// the PR-5 guarantee the cache turns into throughput. The cache retains a
// reference to the keying matrix to verify hits entry-by-entry (a hash
// collision must not hand back the wrong factor); callers must treat
// matrices as immutable once factored, which every caller in this
// repository already does.

// CacheStats is a snapshot of a cache's counters.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
	UsedBytes int64
}

type cacheEntry struct {
	key     uint64
	backend string
	order   Ordering
	ports   int
	a       *sparse.CSR // retained for exact verification of hash hits
	solver  LocalSolver
	bytes   int64
}

// Cache is a concurrency-safe LRU factor cache with a byte budget.
type Cache struct {
	mu        sync.Mutex
	budget    int64
	used      int64
	ll        *list.List               // front = most recently used; values are *cacheEntry
	byKey     map[uint64]*list.Element // hash -> entry (collisions verified, then chained by eviction)
	hits      uint64
	misses    uint64
	evictions uint64
}

// NewCache returns a factor cache that holds at most budget bytes of factors
// (plus their keying matrices). A non-positive budget means unbounded.
func NewCache(budget int64) *Cache {
	return &Cache{budget: budget, ll: list.New(), byKey: make(map[uint64]*list.Element)}
}

// GetOrFactor returns the cached factor of a under the named backend (empty
// for Auto) and the default ordering, factoring and inserting on a miss. The
// boolean reports whether the call was a hit. Factorisation errors are
// returned unchained and never cached. Settings.New is the route for a
// non-default ordering.
func (c *Cache) GetOrFactor(backend string, a *sparse.CSR) (LocalSolver, bool, error) {
	return c.getOrFactor(Settings{Backend: backend}.backend(), OrderAuto, 0, a)
}

func (c *Cache) getOrFactor(backend string, order Ordering, ports int, a *sparse.CSR) (LocalSolver, bool, error) {
	key := cacheKey(backend, order, ports, a)
	same := func(e *cacheEntry) bool {
		return e.backend == backend && e.order == order && e.ports == ports && sameMatrix(e.a, a)
	}

	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		if same(e) {
			c.ll.MoveToFront(el)
			c.hits++
			sol := e.solver
			c.mu.Unlock()
			return sol, true, nil
		}
		// True hash collision: evict the stale entry and refactor below.
		c.removeLocked(el)
	}
	c.misses++
	c.mu.Unlock()

	// Factor outside the lock — a large factorisation must not serialise
	// every concurrent cache user behind it.
	sol, err := newRaw(backend, order, ports, a)
	if err != nil {
		return nil, false, err
	}
	e := &cacheEntry{key: key, backend: backend, order: order, ports: ports, a: a, solver: sol, bytes: entryBytes(sol, a)}

	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		// Another goroutine factored the same system while we did: keep the
		// canonical entry, drop ours.
		prev := el.Value.(*cacheEntry)
		if same(prev) {
			c.ll.MoveToFront(el)
			sol := prev.solver
			c.mu.Unlock()
			return sol, false, nil
		}
		c.removeLocked(el)
	}
	c.byKey[key] = c.ll.PushFront(e)
	c.used += e.bytes
	for c.budget > 0 && c.used > c.budget && c.ll.Len() > 1 {
		c.evictions++
		c.removeLocked(c.ll.Back())
	}
	c.mu.Unlock()
	return sol, false, nil
}

// removeLocked unlinks an entry; the caller holds c.mu.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.byKey, e.key)
	c.used -= e.bytes
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.ll.Len(), UsedBytes: c.used}
}

// cacheKey hashes the backend name, the requested ordering, the port count
// and the matrix — dimensions, pattern and value bits — with FNV-1a. Values
// are part of the key by design: a refreshed system with the same sparsity
// must refactor.
func cacheKey(backend string, order Ordering, ports int, a *sparse.CSR) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for i := 0; i < len(backend); i++ {
		h ^= uint64(backend[i])
		h *= prime64
	}
	mix(uint64(order))
	mix(uint64(ports))
	mix(uint64(a.Rows()))
	mix(uint64(a.Cols()))
	for i := 0; i < a.Rows(); i++ {
		cols, vals := a.RowView(i)
		mix(uint64(len(cols)))
		for t, j := range cols {
			mix(uint64(j))
			mix(math.Float64bits(vals[t]))
		}
	}
	return h
}

// sameMatrix reports exact equality of dimensions, pattern and values — the
// collision-proof verification behind every hash hit.
func sameMatrix(a, b *sparse.CSR) bool {
	if a == b {
		return true
	}
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.NNZ() != b.NNZ() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		ca, va := a.RowView(i)
		cb, vb := b.RowView(i)
		if len(ca) != len(cb) {
			return false
		}
		for t := range ca {
			if ca[t] != cb[t] || math.Float64bits(va[t]) != math.Float64bits(vb[t]) {
				return false
			}
		}
	}
	return true
}

// factorSizer is implemented by backends that know their factor's memory
// footprint; entryBytes falls back to a dense-model estimate for the rest.
type factorSizer interface{ FactorBytes() int64 }

// entryBytes is the budget charge of a cache entry: the factor's footprint
// plus the retained keying matrix (~16 bytes per stored entry + row
// pointers).
func entryBytes(s LocalSolver, a *sparse.CSR) int64 {
	matrix := int64(a.NNZ())*16 + int64(a.Rows()+1)*8
	if fs, ok := s.(factorSizer); ok {
		return fs.FactorBytes() + matrix
	}
	n := int64(s.Dim())
	return 8*n*n + matrix
}
