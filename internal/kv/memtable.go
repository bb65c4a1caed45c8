package kv

import (
	"bytes"
	"math/rand"
)

// memtable is a skiplist-backed sorted in-memory buffer, the structure
// LevelDB uses. Tombstones are entries with nil values and del set.
type memtable struct {
	head    *skipNode
	maxLvl  int
	rng     *rand.Rand
	size    int // approximate bytes
	entries int
}

type skipNode struct {
	key  []byte
	val  []byte
	del  bool
	next []*skipNode
}

const skipMaxLevel = 12

func newMemtable() *memtable {
	return &memtable{
		head:   &skipNode{next: make([]*skipNode, skipMaxLevel)},
		maxLvl: 1,
		rng:    rand.New(rand.NewSource(42)),
	}
}

func (m *memtable) randomLevel() int {
	lvl := 1
	for lvl < skipMaxLevel && m.rng.Intn(4) == 0 {
		lvl++
	}
	return lvl
}

// put inserts or overwrites key. It stores copies of key and val; a new
// node's copies share one allocation.
func (m *memtable) put(key, val []byte, del bool) {
	var update [skipMaxLevel]*skipNode
	x := m.head
	for i := m.maxLvl - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
			x = x.next[i]
		}
		update[i] = x
	}
	if n := x.next[0]; n != nil && bytes.Equal(n.key, key) {
		m.size += len(val) - len(n.val)
		n.val = append([]byte(nil), val...)
		n.del = del
		return
	}
	kv := make([]byte, len(key)+len(val))
	copy(kv, key)
	copy(kv[len(key):], val)
	key, val = kv[:len(key):len(key)], kv[len(key):]
	lvl := m.randomLevel()
	if lvl > m.maxLvl {
		for i := m.maxLvl; i < lvl; i++ {
			update[i] = m.head
		}
		m.maxLvl = lvl
	}
	n := &skipNode{key: key, val: val, del: del, next: make([]*skipNode, lvl)}
	for i := 0; i < lvl; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
	m.size += len(key) + len(val) + 32
	m.entries++
}

// get returns (value, tombstone, found).
func (m *memtable) get(key []byte) ([]byte, bool, bool) {
	x := m.head
	for i := m.maxLvl - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
			x = x.next[i]
		}
	}
	if n := x.next[0]; n != nil && bytes.Equal(n.key, key) {
		return n.val, n.del, true
	}
	return nil, false, false
}

// iter walks entries in key order.
func (m *memtable) iter(fn func(key, val []byte, del bool) bool) {
	for n := m.head.next[0]; n != nil; n = n.next[0] {
		if !fn(n.key, n.val, n.del) {
			return
		}
	}
}

// first returns the smallest node (nil if empty), for merge iterators.
func (m *memtable) first() *skipNode { return m.head.next[0] }

// seek returns the first node with key >= target.
func (m *memtable) seek(target []byte) *skipNode {
	x := m.head
	for i := m.maxLvl - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, target) < 0 {
			x = x.next[i]
		}
	}
	return x.next[0]
}
