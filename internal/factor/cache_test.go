package factor

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/sparse"
)

// TestCacheHitMiss pins the basic contract: the first GetOrFactor factors,
// the second returns the identical solver instance without refactoring.
func TestCacheHitMiss(t *testing.T) {
	sys := sparse.Poisson2D(16, 16, 0.05)
	c := NewCache(0) // unbounded
	s1, hit, err := c.GetOrFactor(SparseCholesky, sys.A)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("cold cache reported a hit")
	}
	s2, hit, err := c.GetOrFactor(SparseCholesky, sys.A)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("warm cache reported a miss")
	}
	if s1 != s2 {
		t.Fatal("hit returned a different solver instance")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if st.UsedBytes <= 0 {
		t.Fatalf("UsedBytes = %d, want > 0", st.UsedBytes)
	}
}

// TestCacheKeying pins the keying rules the issue calls out: the same
// pattern with different values MUST miss, a different backend on the same
// matrix MUST miss, and a value-identical copy of the matrix MUST hit.
func TestCacheKeying(t *testing.T) {
	sys := sparse.Poisson2D(12, 12, 0.05)
	c := NewCache(0)
	if _, hit, err := c.GetOrFactor(SparseCholesky, sys.A); err != nil || hit {
		t.Fatalf("seed insert: hit=%v err=%v", hit, err)
	}

	// Same pattern, one value perturbed: must miss (and insert a new entry).
	bumped := sparse.Poisson2D(12, 12, 0.06)
	if _, hit, err := c.GetOrFactor(SparseCholesky, bumped.A); err != nil || hit {
		t.Fatalf("same-pattern different-values: hit=%v err=%v, want miss", hit, err)
	}

	// Different backend, same matrix: must miss.
	if _, hit, err := c.GetOrFactor(SparseSupernodal, sys.A); err != nil || hit {
		t.Fatalf("different backend: hit=%v err=%v, want miss", hit, err)
	}

	// A freshly built but value-identical matrix: must hit.
	clone := sparse.Poisson2D(12, 12, 0.05)
	if _, hit, err := c.GetOrFactor(SparseCholesky, clone.A); err != nil || !hit {
		t.Fatalf("value-identical rebuild: hit=%v err=%v, want hit", hit, err)
	}

	if st := c.Stats(); st.Entries != 3 {
		t.Fatalf("entries = %d, want 3", st.Entries)
	}
}

// TestCacheEviction pins the LRU byte budget: with room for roughly two of
// three factors, the least-recently-used entry is evicted, and touching an
// entry protects it.
func TestCacheEviction(t *testing.T) {
	sysA := sparse.Poisson2D(20, 20, 0.05)
	sysB := sparse.Poisson2D(20, 20, 0.07)
	sysC := sparse.Poisson2D(20, 20, 0.09)

	// Measure one entry's footprint with an unbounded cache first.
	probe := NewCache(0)
	if _, _, err := probe.GetOrFactor(SparseCholesky, sysA.A); err != nil {
		t.Fatal(err)
	}
	per := probe.Stats().UsedBytes

	c := NewCache(2*per + per/2) // fits two entries, not three
	for _, a := range []*sparse.CSR{sysA.A, sysB.A} {
		if _, _, err := c.GetOrFactor(SparseCholesky, a); err != nil {
			t.Fatal(err)
		}
	}
	// Touch A so B becomes the LRU victim.
	if _, hit, _ := c.GetOrFactor(SparseCholesky, sysA.A); !hit {
		t.Fatal("A should still be cached")
	}
	if _, _, err := c.GetOrFactor(SparseCholesky, sysC.A); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget holding %d bytes/entry", 2*per+per/2, per)
	}
	if st.UsedBytes > 2*per+per/2 {
		t.Fatalf("used %d bytes exceeds budget %d", st.UsedBytes, 2*per+per/2)
	}
	if _, hit, _ := c.GetOrFactor(SparseCholesky, sysA.A); !hit {
		t.Fatal("recently-touched A was evicted before LRU B")
	}
	if _, hit, _ := c.GetOrFactor(SparseCholesky, sysC.A); !hit {
		t.Fatal("newest entry C was evicted")
	}
}

// TestCacheTinyBudget pins the keep-one rule: a budget smaller than a single
// factor still caches (and serves) that one factor rather than thrashing.
func TestCacheTinyBudget(t *testing.T) {
	sys := sparse.Poisson2D(16, 16, 0.05)
	c := NewCache(1) // absurdly small
	if _, hit, err := c.GetOrFactor(SparseCholesky, sys.A); err != nil || hit {
		t.Fatalf("hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.GetOrFactor(SparseCholesky, sys.A); err != nil || !hit {
		t.Fatalf("hit=%v err=%v; a lone entry must survive any budget", hit, err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// TestCacheConcurrent hammers one cache from many goroutines over a small
// working set under -race: every returned solver must produce correct
// solutions, and the cache must end internally consistent.
func TestCacheConcurrent(t *testing.T) {
	systems := []sparse.System{
		sparse.Poisson2D(16, 16, 0.05),
		sparse.Poisson2D(16, 16, 0.07),
		sparse.SaddlePoisson2D(8, 8, 1e-2),
	}
	backends := []string{SparseCholesky, SparseSupernodal}
	c := NewCache(0)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				sys := systems[(g+i)%len(systems)]
				be := backends[(g+i)%len(backends)]
				if be == SparseCholesky && sys.Name == systems[2].Name {
					be = SparseSupernodal // the saddle system is indefinite
				}
				s, _, err := c.GetOrFactor(be, sys.A)
				if err != nil {
					errs <- err
					return
				}
				n := s.Dim()
				x := sparse.NewVec(n)
				s.SolveTo(x, sys.B)
				if r := sys.A.Residual(x, sys.B).NormInf(); r > 1e-8 {
					errs <- errResidual(sys.Name, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Entries == 0 || st.Entries > len(systems)*len(backends) {
		t.Fatalf("inconsistent entry count: %+v", st)
	}
}

func errResidual(name string, r float64) error {
	return fmt.Errorf("%s: residual %g after cached solve", name, r)
}

// TestCacheHandlesAreIndependent pins configuration-by-value for the cache: Settings that
// share a Cache handle share its factors, a Settings without one factors
// afresh, two handles in one process never see each other's entries, and the
// ordering is part of the key.
func TestCacheHandlesAreIndependent(t *testing.T) {
	sys := sparse.Poisson2D(16, 16, 0.05)
	c1, c2 := NewCache(0), NewCache(0)
	with1 := Settings{Backend: SparseCholesky, Cache: c1}
	s1, err := with1.New(sys.A)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := with1.New(sys.A)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("Settings.New did not serve the cached instance from its Cache handle")
	}
	if st := c1.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("first cache saw %+v, want 1 hit and 1 miss", st)
	}

	other, err := Settings{Backend: SparseCholesky, Cache: c2}.New(sys.A)
	if err != nil {
		t.Fatal(err)
	}
	if other == s1 {
		t.Fatal("a second Cache handle served the first handle's entry")
	}
	if st := c2.Stats(); st.Hits != 0 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("second cache saw %+v, want a lone miss", st)
	}
	if st := c1.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("a factorisation through the second handle touched the first: %+v", st)
	}

	uncached, err := New(SparseCholesky, sys.A)
	if err != nil {
		t.Fatal(err)
	}
	if uncached == s1 || uncached == other {
		t.Fatal("factor.New without a Cache handle served a cached instance")
	}

	nd, err := Settings{Backend: SparseCholesky, Ordering: OrderND, Cache: c1}.New(sys.A)
	if err != nil {
		t.Fatal(err)
	}
	if nd == s1 {
		t.Fatal("a different ordering hit the auto-ordered entry")
	}
	if ord := nd.(*Cholesky).Ordering(); ord != OrderND {
		t.Errorf("cached factorisation ran under %v, want nd", ord)
	}
}
