package verifier

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"arckfs/internal/layout"
	"arckfs/internal/pmem"
)

// fakeKV is a scriptable KernelView.
type fakeKV struct {
	shadows    map[uint64]ShadowInfo
	granted    map[uint64]bool
	pagesOK    bool
	owned      map[uint64]bool
	ownedOther map[uint64]bool
	renameLock bool
}

func (f *fakeKV) Shadow(ino uint64) (ShadowInfo, bool) {
	s, ok := f.shadows[ino]
	return s, ok
}
func (f *fakeKV) InodeGrantedTo(_ int64, ino uint64) bool { return f.granted[ino] }
func (f *fakeKV) PageUsableBy(int64, uint64, uint64) bool { return f.pagesOK }
func (f *fakeKV) OwnedBy(_ int64, ino uint64) bool        { return f.owned[ino] }
func (f *fakeKV) OwnedByOther(_ int64, ino uint64) bool   { return f.ownedOther[ino] }
func (f *fakeKV) HoldsRenameLock(int64) bool              { return f.renameLock }
func (f *fakeKV) IsDescendant(node, anc uint64) bool {
	// Walk the fake shadow parents.
	cur := node
	for i := 0; i < 64; i++ {
		if cur == anc {
			return true
		}
		s, ok := f.shadows[cur]
		if !ok || cur == layout.RootIno {
			return false
		}
		cur = s.Parent
	}
	return true
}

// buildDir writes a directory with the given committed entries on a fresh
// device and returns the verifier and dir ino.
func buildDir(t *testing.T, entries map[string]uint64) (*V, *pmem.Device, layout.Geometry, uint64) {
	t.Helper()
	dev := pmem.New(256*layout.PageSize, nil)
	g, err := layout.Mkfs(dev, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	const dirIno = 2
	tailset := g.DataStart + 1
	logPage := g.DataStart + 2
	layout.InitTailSet(dev, tailset, 2)
	layout.ZeroPage(dev, logPage)
	layout.SetTailHead(dev, tailset, 0, logPage)
	in := layout.Inode{Type: layout.TypeDir, Perm: layout.PermRead | layout.PermWrite, Nlink: 2, DataRoot: tailset, NTails: 2, Parent: layout.RootIno}
	layout.WriteInode(dev, g, dirIno, &in)
	off := 0
	for name, ino := range entries {
		r := layout.MakeDentryRef(logPage, off)
		layout.WriteDentryBody(dev, r, ino, name)
		layout.CommitDentry(dev, r, len(name))
		off += layout.DentryRecLen(len(name))
	}
	v := &V{Mode: Enhanced, Dev: dev, Geo: g}
	return v, dev, g, dirIno
}

func TestParseDirHappyPath(t *testing.T) {
	v, _, _, dir := buildDir(t, map[string]uint64{"a": 10, "b": 11})
	dv, err := v.ParseDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dv.Entries) != 2 || dv.Entries["a"].Ino != 10 {
		t.Fatalf("entries: %+v", dv.Entries)
	}
	if len(dv.Pages) != 1 {
		t.Fatalf("pages: %v", dv.Pages)
	}
}

func TestParseDirRejectsDuplicateNames(t *testing.T) {
	v, dev, _, dir := buildDir(t, map[string]uint64{"a": 10})
	// Append a second live "a" by hand.
	dv, _ := v.ParseDir(dir)
	page := dv.Pages[0]
	off := layout.DentryRecLen(1)
	r := layout.MakeDentryRef(page, off)
	layout.WriteDentryBody(dev, r, 11, "a")
	layout.CommitDentry(dev, r, 1)
	if _, err := v.ParseDir(dir); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate name accepted: %v", err)
	}
}

func TestParseDirRejectsDoubleLink(t *testing.T) {
	v, dev, _, dir := buildDir(t, map[string]uint64{"a": 10})
	dv, _ := v.ParseDir(dir)
	page := dv.Pages[0]
	r := layout.MakeDentryRef(page, layout.DentryRecLen(1))
	layout.WriteDentryBody(dev, r, 10, "alias")
	layout.CommitDentry(dev, r, 5)
	if _, err := v.ParseDir(dir); err == nil || !strings.Contains(err.Error(), "linked as both") {
		t.Fatalf("double link accepted: %v", err)
	}
}

func TestParseDirRejectsTornDentry(t *testing.T) {
	v, dev, _, dir := buildDir(t, map[string]uint64{"somewhat-long-name-here": 10})
	dv, _ := v.ParseDir(dir)
	// Tear the name.
	for _, d := range dv.Entries {
		dev.Zero(d.Ref.DevOff()+layout.DentryHeaderSize, 4)
	}
	// The tear is caught either by the hash check ("torn commit") or by
	// name validation of the zeroed bytes; any rejection is correct.
	if _, err := v.ParseDir(dir); err == nil {
		t.Fatal("torn dentry accepted")
	}
}

func TestVerifyDirDetectsImmutableFieldChange(t *testing.T) {
	v, dev, g, dir := buildDir(t, nil)
	in, _, _ := layout.ReadInode(dev, g, dir)
	kv := &fakeKV{
		shadows: map[uint64]ShadowInfo{
			dir: {Ino: dir, Type: layout.TypeDir, Perm: in.Perm, Parent: layout.RootIno,
				DataRoot: in.DataRoot, NTails: in.NTails, Committed: true},
		},
		pagesOK: true,
	}
	// Tamper with the permission bits.
	in.Perm = 0
	layout.WriteInode(dev, g, dir, &in)
	old := &DirOld{Entries: map[string]uint64{}, Pages: map[uint64]bool{}}
	_, err := v.VerifyDir(1, dir, old, kv)
	if err == nil || !strings.Contains(err.Error(), "permission") {
		t.Fatalf("perm change accepted: %v", err)
	}
}

func TestVerifyDirClassifiesChanges(t *testing.T) {
	v, dev, g, dir := buildDir(t, map[string]uint64{"newfile": 10, "keep": 11})
	in, _, _ := layout.ReadInode(dev, g, dir)
	// The new child's inode record must exist and point at dir.
	child := layout.Inode{Type: layout.TypeFile, Perm: layout.PermRead, Nlink: 1, Parent: dir}
	layout.WriteInode(dev, g, 10, &child)
	kv := &fakeKV{
		shadows: map[uint64]ShadowInfo{
			dir: {Ino: dir, Type: layout.TypeDir, Perm: in.Perm, Parent: layout.RootIno,
				DataRoot: in.DataRoot, NTails: in.NTails, Committed: true},
			11: {Ino: 11, Type: layout.TypeFile, Parent: dir, Committed: true},
			12: {Ino: 12, Type: layout.TypeFile, Parent: dir, Committed: true},
		},
		granted: map[uint64]bool{10: true},
		pagesOK: true,
	}
	// Old state had "keep" and "gone" (a removed file).
	old := &DirOld{
		Entries: map[string]uint64{"keep": 11, "gone": 12},
		Pages:   map[uint64]bool{},
	}
	res, err := v.VerifyDir(1, dir, old, kv)
	if err != nil {
		t.Fatal(err)
	}
	var adds, removes int
	for _, ch := range res.Changes {
		switch ch.Action {
		case AddNew:
			adds++
			if ch.Ino != 10 {
				t.Fatalf("AddNew ino %d", ch.Ino)
			}
		case RemoveFile:
			removes++
			if ch.Ino != 12 {
				t.Fatalf("RemoveFile ino %d", ch.Ino)
			}
		}
	}
	if adds != 1 || removes != 1 {
		t.Fatalf("adds=%d removes=%d changes=%+v", adds, removes, res.Changes)
	}
	if len(res.NewPages) != 1 {
		t.Fatalf("new pages: %v", res.NewPages)
	}
}

func TestVerifyDirRejectsRemovalOfHeldInode(t *testing.T) {
	v, dev, g, dir := buildDir(t, nil)
	in, _, _ := layout.ReadInode(dev, g, dir)
	kv := &fakeKV{
		shadows: map[uint64]ShadowInfo{
			dir: {Ino: dir, Type: layout.TypeDir, Perm: in.Perm, Parent: layout.RootIno,
				DataRoot: in.DataRoot, NTails: in.NTails, Committed: true},
			12: {Ino: 12, Type: layout.TypeFile, Parent: dir, Committed: true},
		},
		ownedOther: map[uint64]bool{12: true},
		pagesOK:    true,
	}
	old := &DirOld{Entries: map[string]uint64{"theirs": 12}, Pages: map[uint64]bool{}}
	_, err := v.VerifyDir(1, dir, old, kv)
	if err == nil || !strings.Contains(err.Error(), "another application") {
		t.Fatalf("removal of held inode accepted: %v", err)
	}
}

func TestVerifyDirI3ByMode(t *testing.T) {
	for _, mode := range []Mode{Original, Enhanced} {
		v, dev, g, dir := buildDir(t, nil)
		v.Mode = mode
		in, _, _ := layout.ReadInode(dev, g, dir)
		kv := &fakeKV{
			shadows: map[uint64]ShadowInfo{
				dir: {Ino: dir, Type: layout.TypeDir, Perm: in.Perm, Parent: layout.RootIno,
					DataRoot: in.DataRoot, NTails: in.NTails, Committed: true},
				// The removed child is a non-empty dir whose verified
				// parent already moved to 99.
				20: {Ino: 20, Type: layout.TypeDir, Parent: 99, ChildCount: 3, Committed: true},
			},
			pagesOK: true,
		}
		old := &DirOld{Entries: map[string]uint64{"moved": 20}, Pages: map[uint64]bool{}}
		res, err := v.VerifyDir(1, dir, old, kv)
		if mode == Enhanced {
			if err != nil {
				t.Fatalf("enhanced rejected a renamed-away dir: %v", err)
			}
			if len(res.Changes) != 1 || res.Changes[0].Action != RenamedAway {
				t.Fatalf("changes: %+v", res.Changes)
			}
		} else {
			// Original cannot tell rename from deletion: I3 failure.
			if err == nil || !strings.Contains(err.Error(), "I3") {
				t.Fatalf("original accepted non-empty dir removal: %v", err)
			}
		}
	}
}

func TestVerifyDirRelocationChecks(t *testing.T) {
	mk := func() (*V, *fakeKV, *DirOld, uint64) {
		v, dev, g, dir := buildDir(t, map[string]uint64{"stolen": 30})
		in, _, _ := layout.ReadInode(dev, g, dir)
		kv := &fakeKV{
			shadows: map[uint64]ShadowInfo{
				dir: {Ino: dir, Type: layout.TypeDir, Perm: in.Perm, Parent: layout.RootIno,
					DataRoot: in.DataRoot, NTails: in.NTails, Committed: true},
				30: {Ino: 30, Type: layout.TypeDir, Parent: 40, ChildCount: 1, Committed: true},
				40: {Ino: 40, Type: layout.TypeDir, Parent: layout.RootIno, Committed: true},
			},
			pagesOK: true,
		}
		return v, kv, &DirOld{Entries: map[string]uint64{}, Pages: map[uint64]bool{}}, dir
	}

	// Missing: old parent not held.
	v, kv, old, dir := mk()
	kv.renameLock = true
	if _, err := v.VerifyDir(1, dir, old, kv); err == nil || !strings.Contains(err.Error(), "old parent") {
		t.Fatalf("relocation without old parent held: %v", err)
	}
	// Missing: rename lock.
	v, kv, old, dir = mk()
	kv.owned = map[uint64]bool{40: true}
	if _, err := v.VerifyDir(1, dir, old, kv); err == nil || !strings.Contains(err.Error(), "rename lock") {
		t.Fatalf("relocation without rename lock: %v", err)
	}
	// All requirements met.
	v, kv, old, dir = mk()
	kv.owned = map[uint64]bool{40: true}
	kv.renameLock = true
	res, err := v.VerifyDir(1, dir, old, kv)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) != 1 || res.Changes[0].Action != RelocateIn {
		t.Fatalf("changes: %+v", res.Changes)
	}
}

func TestVerifyDirRejectsUngrantedPages(t *testing.T) {
	v, dev, g, dir := buildDir(t, map[string]uint64{"a": 10})
	in, _, _ := layout.ReadInode(dev, g, dir)
	child := layout.Inode{Type: layout.TypeFile, Perm: layout.PermRead, Nlink: 1, Parent: dir}
	layout.WriteInode(dev, g, 10, &child)
	kv := &fakeKV{
		shadows: map[uint64]ShadowInfo{
			dir: {Ino: dir, Type: layout.TypeDir, Perm: in.Perm, Parent: layout.RootIno,
				DataRoot: in.DataRoot, NTails: in.NTails, Committed: true},
		},
		granted: map[uint64]bool{10: true},
		pagesOK: false, // nothing granted
	}
	old := &DirOld{Entries: map[string]uint64{}, Pages: map[uint64]bool{}}
	if _, err := v.VerifyDir(1, dir, old, kv); err == nil || !strings.Contains(err.Error(), "not granted") {
		t.Fatalf("ungranted page accepted: %v", err)
	}
}

func TestParseFileChecks(t *testing.T) {
	dev := pmem.New(256*layout.PageSize, nil)
	g, err := layout.Mkfs(dev, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	v := &V{Mode: Enhanced, Dev: dev, Geo: g}
	const ino = 3
	mapPage := g.DataStart + 1
	data1 := g.DataStart + 2
	layout.ZeroPage(dev, mapPage)
	layout.SetMapEntry(dev, mapPage, 0, data1)
	in := layout.Inode{Type: layout.TypeFile, Perm: layout.PermRead, Nlink: 1, Size: 100, DataRoot: mapPage, Parent: layout.RootIno}
	layout.WriteInode(dev, g, ino, &in)

	fv, err := v.ParseFile(ino)
	if err != nil {
		t.Fatal(err)
	}
	if len(fv.Blocks) != 1 || fv.Blocks[0] != data1 {
		t.Fatalf("blocks: %v", fv.Blocks)
	}

	// A pointer beyond the size is rejected.
	layout.SetMapEntry(dev, mapPage, 1, data1+1)
	if _, err := v.ParseFile(ino); err == nil || !strings.Contains(err.Error(), "beyond size") {
		t.Fatalf("trailing pointer accepted: %v", err)
	}
	layout.SetMapEntry(dev, mapPage, 1, 0)

	// A doubly-referenced block is rejected.
	in.Size = 8192
	layout.WriteInode(dev, g, ino, &in)
	layout.SetMapEntry(dev, mapPage, 1, data1)
	if _, err := v.ParseFile(ino); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("double block accepted: %v", err)
	}

	// A map-chain cycle is rejected.
	layout.SetMapEntry(dev, mapPage, 1, 0)
	layout.SetNextPage(dev, mapPage, mapPage)
	if _, err := v.ParseFile(ino); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("map cycle accepted: %v", err)
	}
	layout.SetNextPage(dev, mapPage, 0)

	// A map page also listed as a data block is a block referenced twice.
	layout.SetMapEntry(dev, mapPage, 1, mapPage)
	want := fmt.Sprintf("inode %d: block %d referenced twice", ino, mapPage)
	if _, err := v.ParseFile(ino); err == nil || err.Error() != want {
		t.Fatalf("map page listed as a block: %v, want %q", err, want)
	}
	// A data block that the chain then reaches as a map page closes a
	// cycle.
	layout.SetMapEntry(dev, mapPage, 1, data1+1)
	layout.ZeroPage(dev, data1+1)
	layout.SetNextPage(dev, mapPage, data1+1)
	want = fmt.Sprintf("inode %d: map chain cycle at page %d", ino, data1+1)
	if _, err := v.ParseFile(ino); err == nil || err.Error() != want {
		t.Fatalf("block reached as a map page: %v, want %q", err, want)
	}
}

// seenSetParse is ParseFile's specification: a chain-order walk that
// remembers every page it has met and stops at the first structural
// error.
func seenSetParse(v *V, ino uint64) (blocks, mapPages []uint64, err error) {
	in, _, _ := layout.ReadInode(v.Dev, v.Geo, ino)
	need := layout.BlocksForSize(in.Size)
	seen := map[uint64]bool{}
	idx := 0
	for page := in.DataRoot; page != 0; page = layout.NextPage(v.Dev, page) {
		if page < v.Geo.DataStart || page >= v.Geo.PageCount {
			return nil, nil, fmt.Errorf("inode %d: map page %d out of range", ino, page)
		}
		if seen[page] {
			return nil, nil, fmt.Errorf("inode %d: map chain cycle at page %d", ino, page)
		}
		seen[page] = true
		mapPages = append(mapPages, page)
		for i := 0; i < layout.MapEntriesPerPage; i++ {
			b := layout.MapEntry(v.Dev, page, i)
			if idx < need {
				if b != 0 {
					if b < v.Geo.DataStart || b >= v.Geo.PageCount {
						return nil, nil, fmt.Errorf("inode %d: block %d out of range", ino, b)
					}
					if seen[b] {
						return nil, nil, fmt.Errorf("inode %d: block %d referenced twice", ino, b)
					}
					seen[b] = true
				}
				blocks = append(blocks, b)
			} else if b != 0 {
				return nil, nil, fmt.Errorf("inode %d: block pointer beyond size at index %d", ino, idx)
			}
			idx++
		}
	}
	if len(blocks) < need {
		return nil, nil, fmt.Errorf("inode %d: map chain too short for size %d", ino, in.Size)
	}
	return blocks, mapPages, nil
}

// TestParseFileMatchesSeenSetWalk runs ParseFile on random map chains —
// cycles, repeated and out-of-range pages, pointers beyond the size —
// and requires the verdict, error text and page lists of the seen-set
// walk, and baseline sets that are the sorted page lists.
func TestParseFileMatchesSeenSetWalk(t *testing.T) {
	dev := pmem.New(256*layout.PageSize, nil)
	g, err := layout.Mkfs(dev, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	v := &V{Mode: Enhanced, Dev: dev, Geo: g}
	const ino = 3
	rng := rand.New(rand.NewPCG(1, 2))
	const E = layout.MapEntriesPerPage
	// page draws a page number. A clean case draws distinct pages; the
	// others draw mostly from a small pool (so repeats are common),
	// sometimes anywhere on the device or out of range.
	var clean []uint64
	page := func(pool uint64) uint64 {
		if clean != nil {
			p := clean[0]
			clean = clean[1:]
			return p
		}
		switch r := rng.IntN(20); {
		case r == 0:
			return 1 + rng.Uint64N(g.DataStart-1)
		case r == 1:
			return g.PageCount + rng.Uint64N(4)
		case r < 8:
			return g.DataStart + rng.Uint64N(g.PageCount-g.DataStart)
		}
		return g.DataStart + rng.Uint64N(pool)
	}
	var accepted, rejected int
	kinds := map[string]int{}
	for c := 0; c < 3000; c++ {
		pool := 4 + rng.Uint64N(60)
		sparse := 1 + rng.IntN(300) // one entry in sparse is a page, the rest holes
		need := rng.IntN(2*E + 2)
		clean = nil
		if c%2 == 0 {
			clean = make([]uint64, g.PageCount-g.DataStart)
			for i := range clean {
				clean[i] = g.DataStart + uint64(i)
			}
			rng.Shuffle(len(clean), func(i, j int) { clean[i], clean[j] = clean[j], clean[i] })
			need = rng.IntN(len(clean) - 4)
		}
		var chain []uint64
		links := 1 + rng.IntN(3)
		if clean != nil {
			links = need/E + 1
		}
		for p := page(pool); len(chain) < links; p = page(pool) {
			chain = append(chain, p)
			if p < g.DataStart || p >= g.PageCount {
				break // never written: it is an out-of-range pointer
			}
		}
		for _, p := range chain {
			if p >= g.DataStart && p < g.PageCount {
				layout.ZeroPage(dev, p)
			}
		}
		idx := 0
		for i, p := range chain {
			if p < g.DataStart || p >= g.PageCount {
				break
			}
			for e := 0; e < E && e < need-idx; e++ {
				if rng.IntN(sparse) == 0 {
					layout.SetMapEntry(dev, p, e, page(pool))
				}
			}
			if beyond := need - idx; clean == nil && beyond >= 0 && beyond < E && rng.IntN(4) == 0 {
				layout.SetMapEntry(dev, p, beyond, page(pool))
			}
			idx += E
			if i+1 < len(chain) {
				layout.SetNextPage(dev, p, chain[i+1])
			}
		}
		var root uint64
		if len(chain) > 0 && rng.IntN(30) != 0 {
			root = chain[0]
		}
		in := layout.Inode{Type: layout.TypeFile, Perm: layout.PermRead, Nlink: 1, Size: uint64(need)*layout.PageSize - uint64(rng.IntN(2)), DataRoot: root, Parent: layout.RootIno}
		if need == 0 {
			in.Size = 0
		}
		layout.WriteInode(dev, g, ino, &in)

		wantBlocks, wantMap, wantErr := seenSetParse(v, ino)
		fv, err := v.ParseFile(ino)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("case %d (chain %v, size %d): ParseFile error %v, seen-set walk %v", c, chain, in.Size, err, wantErr)
		}
		if err != nil {
			rejected++
			for _, k := range []string{"cycle", "twice", "beyond size"} {
				if strings.Contains(err.Error(), k) {
					kinds[k]++
				}
			}
			continue
		}
		accepted++
		if !slices.Equal(fv.Blocks, wantBlocks) || !slices.Equal(fv.MapPages, wantMap) {
			t.Fatalf("case %d: pages %v %v, want %v %v", c, fv.MapPages, fv.Blocks, wantMap, wantBlocks)
		}
		var nonzero []uint64
		for _, b := range wantBlocks {
			if b != 0 {
				nonzero = append(nonzero, b)
			}
		}
		old := fv.Old()
		if !slices.Equal(old.Blocks, slices.Sorted(slices.Values(nonzero))) || !slices.Equal(old.MapPages, slices.Sorted(slices.Values(wantMap))) || old.Size != in.Size {
			t.Fatalf("case %d: baseline %+v from pages %v %v", c, old, wantMap, wantBlocks)
		}
	}
	if accepted < 100 || rejected < 100 || len(kinds) < 3 {
		t.Fatalf("cases: %d accepted, %d rejected (%v); want both >= 100 and every repeat kind", accepted, rejected, kinds)
	}
}

func TestVerifyNewInodeParentMismatch(t *testing.T) {
	dev := pmem.New(256*layout.PageSize, nil)
	g, _ := layout.Mkfs(dev, 64, 2)
	v := &V{Mode: Enhanced, Dev: dev, Geo: g}
	in := layout.Inode{Type: layout.TypeFile, Perm: layout.PermRead, Nlink: 1, Parent: 7}
	layout.WriteInode(dev, g, 5, &in)
	kv := &fakeKV{pagesOK: true}
	if _, err := v.VerifyNewInode(1, 5, 9, kv); err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("parent mismatch accepted: %v", err)
	}
	if _, err := v.VerifyNewInode(1, 5, 7, kv); err != nil {
		t.Fatalf("valid new inode rejected: %v", err)
	}
}
