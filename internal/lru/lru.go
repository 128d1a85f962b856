// Package lru is the one bounded least-recently-used map behind the
// service's caches: the replica's result cache and upload-key memo, and
// the coordinator's id-affinity maps and route-key memo. A Cache is safe
// for concurrent use; every operation takes one mutex for O(1) work.
package lru

import "sync"

// Cache maps keys to values, holding at most its capacity of entries and
// evicting the least recently used one to make room. Get and Put both
// count as a use. A Cache with capacity <= 0 is disabled: Get always
// misses and Put stores nothing.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	items map[K]*entry[K, V]
	// root is the sentinel of a circular list: root.next is the most
	// recently used entry, root.prev the least.
	root entry[K, V]
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// New returns an empty Cache holding up to capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{cap: capacity, items: make(map[K]*entry[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.val, true
}

// Put stores v under k, replacing any value already there, marks it most
// recently used, and returns how many entries it evicted (0 or 1).
func (c *Cache[K, V]) Put(k K, v V) (evicted int) {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		e.val = v
		c.unlink(e)
		c.pushFront(e)
		return 0
	}
	e := &entry[K, V]{key: k, val: v}
	c.items[k] = e
	c.pushFront(e)
	if len(c.items) > c.cap {
		last := c.root.prev
		c.unlink(last)
		delete(c.items, last.key)
		evicted = 1
	}
	return evicted
}

// Delete removes k's entry, if any.
func (c *Cache[K, V]) Delete(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		c.unlink(e)
		delete(c.items, k)
	}
}

// Len returns the number of entries held.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev = &c.root
	e.next = c.root.next
	c.root.next.prev = e
	c.root.next = e
}
