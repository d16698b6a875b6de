package sqldb

import "container/list"

// lruCache is a fixed-capacity least-recently-used cache. Eviction is
// deterministic, so cache behavior reproduces run to run and the
// hottest statements of a workload stay resident. The zero value is
// not usable; construct with newLRU.
//
// lruCache is not safe for concurrent use; the statement caches guard
// it with stmtMu.
type lruCache[K comparable, V any] struct {
	max   int
	ll    *list.List
	items map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](max int) *lruCache[K, V] {
	return &lruCache[K, V]{
		max:   max,
		ll:    list.New(),
		items: make(map[K]*list.Element),
	}
}

// get returns the value for key and marks it most recently used.
func (c *lruCache[K, V]) get(key K) (V, bool) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// put inserts or refreshes key, evicting the least recently used
// entries while over capacity.
func (c *lruCache[K, V]) put(key K, val V) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry[K, V]).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.items, el.Value.(*lruEntry[K, V]).key)
	}
}

func (c *lruCache[K, V]) len() int { return c.ll.Len() }
