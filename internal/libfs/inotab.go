package libfs

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// inoChunkBits sets the inode table's chunk size: 512 slots, 4 KiB of
// pointers, so a LibFS that touches a few inodes pays for one chunk.
const (
	inoChunkBits = 9
	inoChunkSize = 1 << inoChunkBits
)

type inoChunk [inoChunkSize]atomic.Pointer[minode]

// inoTable maps inode numbers to in-memory inodes. Inode numbers are
// dense in [0, size), so the table is a two-level array indexed by the
// number itself: a top level of size/512 chunk pointers and 512-slot
// chunks. Both levels are allocated on the first store that needs them,
// under mu; a LibFS that never touches an inode allocates nothing.
// Lookups take no lock and do no hashing — they are plain atomic loads,
// which is what the lock-free data plane's readers require.
type inoTable struct {
	size uint64     // inode numbers are below size (Geometry.InodeCap)
	mu   sync.Mutex // serializes allocation of top and chunks
	top  atomic.Pointer[[]atomic.Pointer[inoChunk]]
}

// find returns ino's slot, or nil if its chunk was never allocated.
func (t *inoTable) find(ino uint64) *atomic.Pointer[minode] {
	top := t.top.Load()
	if top == nil || ino>>inoChunkBits >= uint64(len(*top)) {
		return nil
	}
	if c := (*top)[ino>>inoChunkBits].Load(); c != nil {
		return &c[ino&(inoChunkSize-1)]
	}
	return nil
}

// Load returns the minode for ino, or nil.
func (t *inoTable) Load(ino uint64) *minode {
	if s := t.find(ino); s != nil {
		return s.Load()
	}
	return nil
}

// slot returns ino's slot, allocating its chunk (and the top level) on
// first use. An inode number beyond the table's capacity is a bug: every
// stored number came from the kernel's grant or a verified acquire.
func (t *inoTable) slot(ino uint64) *atomic.Pointer[minode] {
	if s := t.find(ino); s != nil {
		return s
	}
	if ino >= t.size {
		panic(fmt.Sprintf("libfs: inode %d beyond table capacity %d", ino, t.size))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	top := t.top.Load()
	if top == nil {
		chunks := make([]atomic.Pointer[inoChunk], (t.size+inoChunkSize-1)>>inoChunkBits)
		top = &chunks
		t.top.Store(top)
	}
	cp := &(*top)[ino>>inoChunkBits]
	c := cp.Load()
	if c == nil {
		c = new(inoChunk)
		cp.Store(c)
	}
	return &c[ino&(inoChunkSize-1)]
}

// Store sets the minode for ino.
func (t *inoTable) Store(ino uint64, mi *minode) { t.slot(ino).Store(mi) }

// LoadOrStore returns the minode already stored for ino, or stores mi
// and returns it.
func (t *inoTable) LoadOrStore(ino uint64, mi *minode) *minode {
	s := t.slot(ino)
	for {
		if s.CompareAndSwap(nil, mi) {
			return mi
		}
		if cur := s.Load(); cur != nil {
			return cur
		}
	}
}

// Delete clears ino's entry.
func (t *inoTable) Delete(ino uint64) {
	if s := t.find(ino); s != nil {
		s.Store(nil)
	}
}

// Range calls fn for every stored entry in inode order until fn returns
// false. Entries stored or deleted concurrently may or may not be seen.
func (t *inoTable) Range(fn func(mi *minode) bool) {
	top := t.top.Load()
	if top == nil {
		return
	}
	for ci := range *top {
		c := (*top)[ci].Load()
		if c == nil {
			continue
		}
		for i := range c {
			if mi := c[i].Load(); mi != nil && !fn(mi) {
				return
			}
		}
	}
}
