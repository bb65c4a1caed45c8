package libfs

import (
	"sync"
	"testing"
)

// Racing LoadOrStores of the same inodes, spread over several chunks so
// chunk allocation races too, agree on one minode per inode; Range then
// visits every entry once, in inode order, and Delete removes it.
func TestInoTableConcurrent(t *testing.T) {
	const n = 3 * inoChunkSize
	tab := inoTable{size: n + 7}
	var wg sync.WaitGroup
	got := make([][]*minode, 4)
	for g := range got {
		got[g] = make([]*minode, n)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := uint64(1); i < n; i++ {
				got[g][i] = tab.LoadOrStore(i, &minode{ino: i})
			}
		}(g)
	}
	wg.Wait()
	for i := uint64(1); i < n; i++ {
		want := tab.Load(i)
		if want == nil || want.ino != i {
			t.Fatalf("Load(%d) = %v", i, want)
		}
		for g := range got {
			if got[g][i] != want {
				t.Fatalf("goroutine %d got a different minode for inode %d", g, i)
			}
		}
	}
	next := uint64(1)
	tab.Range(func(mi *minode) bool {
		if mi.ino != next {
			t.Fatalf("Range visited inode %d, want %d", mi.ino, next)
		}
		next++
		return true
	})
	if next != n {
		t.Fatalf("Range visited %d entries, want %d", next-1, n-1)
	}
	tab.Delete(5)
	if tab.Load(5) != nil {
		t.Fatal("Load after Delete returned a minode")
	}
	if tab.Load(n+6) != nil || tab.Load(1<<40) != nil {
		t.Fatal("Load of a never-stored inode returned a minode")
	}
}
