package trace

import (
	"reflect"
	"sync"
	"testing"
)

// TestCacheMatchesBuild: a cached workload must be exactly what Build
// produces, for both suites.
func TestCacheMatchesBuild(t *testing.T) {
	c := NewCache()
	for _, name := range []string{"barnes", "505.mcf"} {
		p, ok := Lookup(name)
		if !ok {
			t.Fatalf("unknown profile %q", name)
		}
		got := c.Workload(p, 8, 2000, 42)
		want := Build(p, 8, 2000, 42)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: cached workload differs from Build", name)
		}
	}
}

// TestCacheHitsAndMisses: the same key generates once; distinct keys (any
// coordinate differing) generate separately.
func TestCacheHitsAndMisses(t *testing.T) {
	c := NewCache()
	p, _ := Lookup("swaptions")
	w1 := c.Workload(p, 8, 500, 1)
	w2 := c.Workload(p, 8, 500, 1)
	if &w1.Programs[0][0] != &w2.Programs[0][0] {
		t.Error("same key did not return the shared trace")
	}
	c.Workload(p, 8, 500, 2) // different seed
	c.Workload(p, 8, 600, 1) // different length
	c.Workload(p, 4, 500, 1) // different cores
	hits, misses := c.Stats()
	if hits != 1 || misses != 4 {
		t.Errorf("hits/misses = %d/%d, want 1/4", hits, misses)
	}
	if c.Len() != 4 {
		t.Errorf("cache holds %d entries, want 4", c.Len())
	}
}

// TestCacheConcurrentReaders hammers one cache from many goroutines mixing
// first-touch generation with replay of hot keys; run under -race this is
// the trace cache's concurrency certificate. Every reader must observe a
// workload identical to a fresh Build.
func TestCacheConcurrentReaders(t *testing.T) {
	c := NewCache()
	profiles := []string{"barnes", "x264", "radix", "505.mcf", "swaptions"}
	want := make(map[string]Workload, len(profiles))
	for _, name := range profiles {
		p, _ := Lookup(name)
		want[name] = Build(p, 8, 400, 99)
	}

	const goroutines = 16
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				name := profiles[(g+r)%len(profiles)]
				p, _ := Lookup(name)
				w := c.Workload(p, 8, 400, 99)
				if !reflect.DeepEqual(w, want[name]) {
					errs <- name
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Errorf("concurrent reader observed a corrupted workload for %q", name)
	}
	hits, misses := c.Stats()
	if misses != uint64(len(profiles)) {
		t.Errorf("generated %d times, want once per profile (%d)", misses, len(profiles))
	}
	if hits+misses != goroutines*rounds {
		t.Errorf("hits+misses = %d, want %d requests", hits+misses, goroutines*rounds)
	}
}
