package cluster

import (
	"fmt"
	"testing"
)

// testKeys fabricates a deterministic keyspace shaped like the real
// routing keys (hex digests).
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i*2654435761)
	}
	return keys
}

func assign(r *Ring, keys []string, alive func(string) bool) map[string]string {
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		b, ok := r.Pick(k, alive)
		if !ok {
			b = ""
		}
		out[k] = b
	}
	return out
}

// TestRingDeterministic proves the assignment is a pure function of the
// backend set: rebuilding the ring — in this process or after a restart,
// and regardless of configuration order — yields the identical mapping.
func TestRingDeterministic(t *testing.T) {
	keys := testKeys(2000)
	cases := [][]string{
		{"a:1", "b:1", "c:1"},
		{"c:1", "a:1", "b:1"},        // shuffled configuration order
		{"b:1", "c:1", "a:1", "a:1"}, // duplicates collapse
	}
	base := assign(NewRing(cases[0]), keys, nil)
	for _, names := range cases[1:] {
		got := assign(NewRing(names), keys, nil)
		for k, want := range base {
			if got[k] != want {
				t.Fatalf("ring built from %v: key %s → %s, want %s", names, k[:12], got[k], want)
			}
		}
	}
}

// TestRingRebalance is the failover contract, table-driven over cluster
// sizes: ejecting one of N backends remaps only that backend's keys
// (~1/N of the keyspace, within loose statistical bounds), never touches
// a surviving backend's keys, and readmission restores the original
// assignment exactly.
func TestRingRebalance(t *testing.T) {
	keys := testKeys(10000)
	for _, n := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var names []string
			for i := 0; i < n; i++ {
				names = append(names, fmt.Sprintf("replica-%d:8080", i))
			}
			r := NewRing(names)
			before := assign(r, keys, nil)

			dead := names[n/2]
			aliveFn := func(b string) bool { return b != dead }
			after := assign(r, keys, aliveFn)

			moved := 0
			for _, k := range keys {
				switch {
				case before[k] == dead:
					moved++
					if after[k] == dead || after[k] == "" {
						t.Fatalf("key %s still assigned to dead backend %q", k[:12], dead)
					}
				case after[k] != before[k]:
					t.Fatalf("key %s moved %s → %s although its backend survived",
						k[:12], before[k], after[k])
				}
			}
			frac := float64(moved) / float64(len(keys))
			want := 1.0 / float64(n)
			if frac < want*0.5 || frac > want*1.8 {
				t.Fatalf("ejecting 1 of %d remapped %.1f%% of keys, want ~%.1f%%",
					n, 100*frac, 100*want)
			}

			restored := assign(r, keys, nil)
			for _, k := range keys {
				if restored[k] != before[k] {
					t.Fatalf("after readmission key %s → %s, want original %s",
						k[:12], restored[k], before[k])
				}
			}
		})
	}
}

// TestRingOrder checks the failover preference order: it starts with the
// owner, covers every backend exactly once, and is itself stable.
func TestRingOrder(t *testing.T) {
	names := []string{"a:1", "b:1", "c:1", "d:1"}
	r := NewRing(names)
	for _, k := range testKeys(100) {
		order := r.Order(k)
		if len(order) != len(names) {
			t.Fatalf("Order(%s) covered %d backends, want %d", k[:12], len(order), len(names))
		}
		seen := map[string]bool{}
		for _, b := range order {
			if seen[b] {
				t.Fatalf("Order(%s) repeats backend %s", k[:12], b)
			}
			seen[b] = true
		}
		owner, _ := r.Pick(k, nil)
		if order[0] != owner {
			t.Fatalf("Order(%s)[0] = %s, want owner %s", k[:12], order[0], owner)
		}
		// With the owner dead, Pick must return the second preference.
		next, ok := r.Pick(k, func(b string) bool { return b != owner })
		if !ok || next != order[1] {
			t.Fatalf("Pick with dead owner = %s, want Order[1] = %s", next, order[1])
		}
	}
}

// TestRingEmpty pins the degenerate cases.
func TestRingEmpty(t *testing.T) {
	r := NewRing(nil)
	if _, ok := r.Pick("k", nil); ok {
		t.Fatal("empty ring produced an assignment")
	}
	r = NewRing([]string{"only:1"})
	if b, ok := r.Pick("k", nil); !ok || b != "only:1" {
		t.Fatalf("single-backend ring → %q, %v", b, ok)
	}
	if _, ok := r.Pick("k", func(string) bool { return false }); ok {
		t.Fatal("all-dead ring produced an assignment")
	}
}
