package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"arckfs/internal/fsapi"
)

// oracleMerge is the materialized merge that compaction used before it
// streamed: every source entry goes into a map, newest-first so an older
// version never overwrites a newer one, then the keys are sorted. It
// returns the image of the table it builds.
func oracleMerge(t *testing.T, db *DB, srcs []*tableMeta, dropTombstones bool) []byte {
	t.Helper()
	type rec struct {
		val []byte
		del bool
	}
	entries := map[string]rec{}
	for _, meta := range srcs {
		c, err := db.readers[meta.file].readData(nil)
		if err != nil {
			t.Fatal(err)
		}
		for c.next() {
			if _, seen := entries[string(c.key)]; !seen {
				entries[string(c.key)] = rec{val: append([]byte(nil), c.val...), del: c.del}
			}
		}
	}
	keys := make([]string, 0, len(entries))
	for k := range entries {
		if dropTombstones && entries[k].del {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b tableBuilder
	for _, k := range keys {
		b.add([]byte(k), entries[k].val, entries[k].del)
	}
	return b.finish()
}

// readImage returns the whole content of a file through the store's
// maintenance Thread.
func readImage(t *testing.T, db *DB, path string) []byte {
	t.Helper()
	st, err := db.t.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := db.t.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.t.Close(fd)
	buf := make([]byte, st.Size)
	if _, err := db.t.ReadAt(fd, buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestCompactionMatchesMaterializedMerge checks, on seeded random
// Put/Delete streams, that every compaction writes exactly the table the
// materialized merge would. Each round flushes three overlapping L0
// tables and compacts them with L1.
func TestCompactionMatchesMaterializedMerge(t *testing.T) {
	cases := []struct {
		name      string
		maxLevels int  // 2 makes L1 the bottom level, which drops tombstones
		deleteAll bool // the last round deletes every key
	}{
		{"overlapping-l0-keeps-tombstones", 3, false},
		{"bottom-level-drops-tombstones", 2, false},
		{"everything-compacts-away", 2, true},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				// No automatic flush or compaction: the test places both.
				db, _ := newStore(t, Options{MemtableBytes: 1 << 30, L0Tables: 1 << 20, MaxLevels: tc.maxLevels})
				rng := rand.New(rand.NewSource(seed))
				const rounds, keys = 4, 400
				for round := 0; round < rounds; round++ {
					for f := 0; f < 3; f++ {
						for i := 0; i < 300; i++ {
							k := []byte(fmt.Sprintf("m%05d", rng.Intn(keys)))
							var err error
							if rng.Intn(4) == 0 {
								err = db.Delete(k)
							} else {
								err = db.Put(k, bytes.Repeat([]byte{byte(i)}, rng.Intn(200)))
							}
							if err != nil {
								t.Fatal(err)
							}
						}
						if tc.deleteAll && round == rounds-1 {
							for k := 0; k < keys; k++ {
								if err := db.Delete([]byte(fmt.Sprintf("m%05d", k))); err != nil {
									t.Fatal(err)
								}
							}
						}
						if err := db.Flush(); err != nil {
							t.Fatal(err)
						}
					}
					db.mu.Lock()
					srcs := append(append([]*tableMeta{}, db.levels[0]...), db.levels[1]...)
					want := oracleMerge(t, db, srcs, tc.maxLevels == 2)
					if err := db.compactLocked(0); err != nil {
						t.Fatal(err)
					}
					out := db.tablePath(db.nextNum - 1)
					if len(db.levels[0]) != 0 || len(db.levels[1]) > 1 {
						t.Fatalf("levels after compaction: %v", db.levels)
					}
					if len(db.levels[1]) == 0 {
						if n := binaryEntries(want); n != 0 {
							t.Fatalf("round %d: compaction left nothing, oracle kept %d entries", round, n)
						}
						if _, err := db.t.Stat(out); !errors.Is(err, fsapi.ErrNotExist) {
							t.Fatalf("empty output %s not removed: %v", out, err)
						}
					} else if got := readImage(t, db, db.levels[1][0].file); !bytes.Equal(got, want) {
						t.Fatalf("round %d: compaction wrote %d bytes, oracle %d, differing", round, len(got), len(want))
					}
					db.mu.Unlock()
				}
				if tc.deleteAll && len(db.levels[1]) != 0 {
					t.Fatalf("deleting every key left L1 = %v", db.levels[1])
				}
			})
		}
	}
}

// binaryEntries reads the entry count from a table image's footer.
func binaryEntries(img []byte) int {
	return int(binary.LittleEndian.Uint32(img[len(img)-footerSize+12:]))
}

// TestTableGetAllocs pins a Get served from a table at one allocation:
// the copy of the value it returns.
func TestTableGetAllocs(t *testing.T) {
	db, _ := newStore(t, Options{})
	for k := 0; k < 500; k++ {
		if err := db.Put([]byte(fmt.Sprintf("g%04d", k)), bytes.Repeat([]byte{byte(k)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	key := []byte("g0321")
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := db.Get(key); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("table Get: %v allocs, want <= 1", allocs)
	}
}

// TestPutAllocs pins a Put that does not flush at five allocations:
// three in the memtable (a new key's node, its next pointers and one
// copy of key and value) and two in LibFS's WAL append (the inode's
// attribute cache and its encoded record). The WAL record itself is
// encoded into a reused buffer.
func TestPutAllocs(t *testing.T) {
	db, _ := newStore(t, Options{MemtableBytes: 1 << 30})
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("p%05d", i))
	}
	val := bytes.Repeat([]byte("v"), 100)
	i := 0
	allocs := testing.AllocsPerRun(len(keys)-1, func() {
		if err := db.Put(keys[i], val); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 5 {
		t.Fatalf("Put: %v allocs, want <= 5", allocs)
	}
}
