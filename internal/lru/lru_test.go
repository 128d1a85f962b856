package lru

import (
	"strconv"
	"sync"
	"testing"
)

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	if ev := c.Put("a", 1); ev != 0 {
		t.Fatalf("first Put evicted %d", ev)
	}
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	// "a" was just used, so "b" is the victim.
	if ev := c.Put("c", 3); ev != 1 {
		t.Fatalf("Put over capacity evicted %d, want 1", ev)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived; it was the least recently used")
	}
	for k, want := range map[string]int{"a": 1, "c": 3} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Errorf("Get(%s) = %d, %v; want %d, true", k, v, ok, want)
		}
	}
	if n := c.Len(); n != 2 {
		t.Errorf("Len = %d, want 2", n)
	}
}

func TestPutReplacesAndPromotes(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if ev := c.Put("a", 10); ev != 0 {
		t.Fatalf("re-Put evicted %d", ev)
	}
	c.Put("c", 3) // "b" is now the least recently used
	if _, ok := c.Get("b"); ok {
		t.Error("b survived a re-Put of a")
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Errorf("Get(a) = %d, want the replacement 10", v)
	}
}

func TestDelete(t *testing.T) {
	c := New[int, string](4)
	c.Put(1, "x")
	c.Put(2, "y")
	c.Delete(1)
	c.Delete(99) // absent: a no-op
	if _, ok := c.Get(1); ok {
		t.Error("deleted key still present")
	}
	if v, ok := c.Get(2); !ok || v != "y" {
		t.Errorf("Get(2) = %q, %v; want y, true", v, ok)
	}
	if n := c.Len(); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
}

func TestDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := New[string, int](capacity)
		if ev := c.Put("a", 1); ev != 0 {
			t.Errorf("cap %d: Put evicted %d", capacity, ev)
		}
		if _, ok := c.Get("a"); ok {
			t.Errorf("cap %d: disabled cache returned a hit", capacity)
		}
		if n := c.Len(); n != 0 {
			t.Errorf("cap %d: Len = %d", capacity, n)
		}
	}
}

// TestConcurrentUse drives one small cache from several goroutines with
// interleaved Get, Put and Delete on overlapping keys. Run under -race it
// checks the locking; afterwards the bound must hold and every entry must
// carry the value its key was always written with.
func TestConcurrentUse(t *testing.T) {
	const capacity, workers, ops = 8, 8, 2000
	c := New[string, int](capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				n := (i*7 + w) % 20
				k := strconv.Itoa(n)
				switch i % 3 {
				case 0:
					c.Put(k, n)
				case 1:
					if v, ok := c.Get(k); ok && v != n {
						t.Errorf("Get(%s) = %d", k, v)
					}
				default:
					c.Delete(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n > capacity {
		t.Fatalf("Len = %d after concurrent use, capacity %d", n, capacity)
	}
	// The recency list and the map must still describe the same entries.
	listed := 0
	for e := c.root.next; e != &c.root; e = e.next {
		if c.items[e.key] != e {
			t.Fatalf("listed entry %q is not the map's", e.key)
		}
		listed++
	}
	if listed != c.Len() {
		t.Fatalf("list holds %d entries, map %d", listed, c.Len())
	}
	for n := 0; n < 20; n++ {
		if v, ok := c.Get(strconv.Itoa(n)); ok && v != n {
			t.Errorf("Get(%d) = %d", n, v)
		}
	}
}
