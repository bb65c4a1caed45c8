package kv

import (
	"bytes"
	"container/heap"
	"sort"
)

// Iterator walks live keys in ascending order over a consistent view of
// the store (memtable + every table at creation time).
type Iterator struct {
	h       iterHeap
	current struct {
		key []byte
		val []byte
		ok  bool
	}
}

// source is one sorted input to the merge: the memtable's skiplist, or
// a cursor over one read of a table's data section.
type source struct {
	cursor
	prio int       // lower wins ties (newer data)
	node *skipNode // memtable source: the next node to yield
	mem  bool
}

// next advances; false at exhaustion.
func (s *source) next() bool {
	if !s.mem {
		return s.cursor.next()
	}
	if s.node == nil {
		return false
	}
	s.key, s.val, s.del = s.node.key, s.node.val, s.node.del
	s.node = s.node.next[0]
	return true
}

type iterHeap []*source

func (h iterHeap) Len() int { return len(h) }
func (h iterHeap) Less(i, j int) bool {
	if c := bytes.Compare(h[i].key, h[j].key); c != 0 {
		return c < 0
	}
	return h[i].prio < h[j].prio
}
func (h iterHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *iterHeap) Push(x any)   { *h = append(*h, x.(*source)) }
func (h *iterHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h iterHeap) Peek() *source { return h[0] }

// NewIterator creates a merged iterator positioned before the first key.
func (db *DB) NewIterator() (*Iterator, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	it := &Iterator{}
	prio := 0

	// Memtable source.
	s := &source{prio: prio, node: db.mem.first(), mem: true}
	if s.next() {
		it.h = append(it.h, s)
	}
	prio++

	// Table sources: one read of each table's data (tables are
	// immutable; this snapshot stays consistent after the lock drops).
	db.tmu.Lock()
	defer db.tmu.Unlock()
	for _, tables := range db.levels {
		for _, meta := range tables {
			r := db.readers[meta.file]
			if r == nil {
				continue
			}
			c, err := r.readData(nil)
			if err != nil {
				return nil, err
			}
			s := &source{cursor: c, prio: prio}
			if s.next() {
				it.h = append(it.h, s)
			}
			prio++
		}
	}
	heap.Init(&it.h)
	return it, nil
}

// Next advances to the next live key and reports whether one exists.
func (it *Iterator) Next() bool {
	var lastKey []byte
	for it.h.Len() > 0 {
		s := it.h.Peek()
		key := append([]byte(nil), s.key...)
		val := append([]byte(nil), s.val...)
		del := s.del
		if s.next() {
			heap.Fix(&it.h, 0)
		} else {
			heap.Pop(&it.h)
		}
		if lastKey != nil && bytes.Equal(key, lastKey) {
			continue // shadowed older version
		}
		lastKey = key
		// Skip older versions of this key still in the heap.
		for it.h.Len() > 0 && bytes.Equal(it.h.Peek().key, key) {
			shadow := it.h.Peek()
			if shadow.next() {
				heap.Fix(&it.h, 0)
			} else {
				heap.Pop(&it.h)
			}
		}
		if del {
			continue
		}
		it.current.key, it.current.val, it.current.ok = key, val, true
		return true
	}
	it.current.ok = false
	return false
}

// Key returns the current key (valid after Next reported true).
func (it *Iterator) Key() []byte { return it.current.key }

// Value returns the current value.
func (it *Iterator) Value() []byte { return it.current.val }

// Keys collects every live key (tests and sanity checks).
func (db *DB) Keys() ([]string, error) {
	it, err := db.NewIterator()
	if err != nil {
		return nil, err
	}
	var keys []string
	for it.Next() {
		keys = append(keys, string(it.Key()))
	}
	sort.Strings(keys)
	return keys, nil
}
