package solvers

import (
	"sync"
	"testing"
)

// TestRecycleCacheDeepCopy verifies the aliasing contract: a loaded
// space is the loader's own storage, so neither mutating it nor a later
// store can corrupt what another solve reads.
func TestRecycleCacheDeepCopy(t *testing.T) {
	var c RecycleCache
	if len(c.load()) != 0 {
		t.Error("empty cache should load no space")
	}
	orig := [][]float64{{1, 2}, {3, 4}}
	c.store(orig)

	// Mutating the caller's slice after store must not reach the cache.
	orig[0][0] = -99
	got := c.load()
	if got[0][0] != 1 {
		t.Errorf("store aliased caller storage: got %g, want 1", got[0][0])
	}

	// Mutating a loaded copy must not reach the cache either.
	got[1][1] = -77
	again := c.load()
	if again[1][1] != 4 {
		t.Errorf("load returned shared storage: got %g, want 4", again[1][1])
	}

	if (*RecycleCache)(nil).load() != nil {
		t.Error("nil cache should load nil")
	}
	(*RecycleCache)(nil).store(orig) // must not panic
}

// TestRecycleCacheConcurrent hammers one cache from many goroutines
// under -race: an unguarded space races here.
func TestRecycleCacheConcurrent(t *testing.T) {
	var c RecycleCache
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.store([][]float64{{float64(g), float64(i)}})
				if u := c.load(); len(u) != 0 {
					u[0][0]++ // private copy: mutation must be safe
				}
			}
		}(g)
	}
	wg.Wait()
	if len(c.load()) != 1 {
		t.Error("cache empty after concurrent stores")
	}
}
