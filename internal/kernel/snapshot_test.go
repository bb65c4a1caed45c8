package kernel

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"arckfs/internal/fsapi"
	"arckfs/internal/layout"
	"arckfs/internal/verifier"
)

// fill gives file ino n fresh data blocks behind one fresh map page, the
// way a LibFS rewrites a file: any previous map page and blocks drop out
// of its structure.
func (h *harness) fill(app AppID, ino uint64, n int) {
	h.t.Helper()
	pages, err := h.c.GrantPages(app, 0, n+1)
	if err != nil {
		h.t.Fatal(err)
	}
	mp := pages[0]
	layout.ZeroPage(h.dev, mp)
	for i, b := range pages[1:] {
		layout.SetMapEntry(h.dev, mp, i, b)
	}
	h.dev.Persist(int64(mp*layout.PageSize), layout.PageSize)
	in, _, _ := layout.ReadInode(h.dev, h.g, ino)
	in.DataRoot, in.Size = mp, uint64(n*layout.PageSize)
	layout.WriteInode(h.dev, h.g, ino, &in)
	h.dev.Persist(layout.InodeOff(h.g, ino), layout.InodeSize)
}

// sharedFile creates /f with n data blocks, committed and lease-released
// by app; the root directory is fully released.
func sharedFile(h *harness, app AppID, n int) uint64 {
	h.t.Helper()
	if _, err := h.c.Acquire(app, layout.RootIno, true); err != nil {
		h.t.Fatal(err)
	}
	ino := h.mkfile(app, layout.RootIno, "f")
	for _, i := range []uint64{layout.RootIno, ino} {
		if err := h.c.Commit(app, i); err != nil {
			h.t.Fatal(err)
		}
	}
	h.fill(app, ino, n)
	if err := h.c.Release(app, layout.RootIno); err != nil {
		h.t.Fatal(err)
	}
	if _, err := h.c.ReleaseLeased(app, ino); err != nil {
		h.t.Fatal(err)
	}
	return ino
}

func (h *harness) snap(ino uint64) *snapshot { return h.c.shadowGet(ino, nil).snap }

// checkSnapshotFresh requires ino's kept snapshot to equal one parsed
// from the device now.
func (h *harness) checkSnapshotFresh(ino uint64, when string) {
	h.t.Helper()
	se := h.c.shadowGet(ino, nil)
	if se.snap == nil {
		h.t.Fatalf("%s: inode %d has no snapshot", when, ino)
	}
	fresh, err := h.c.buildSnapshot(se)
	if err != nil {
		h.t.Fatalf("%s: %v", when, err)
	}
	if !reflect.DeepEqual(se.snap.fileOld, fresh.fileOld) || !reflect.DeepEqual(se.snap.dirOld, fresh.dirOld) {
		h.t.Fatalf("%s: baseline %+v %+v, parsed %+v %+v", when, se.snap.fileOld, se.snap.dirOld, fresh.fileOld, fresh.dirOld)
	}
	if !reflect.DeepEqual(se.snap.pages, fresh.pages) || !bytes.Equal(se.snap.pageData, fresh.pageData) {
		h.t.Fatalf("%s: rollback pages %v, parsed %v (data equal: %v)", when, se.snap.pages, fresh.pages, bytes.Equal(se.snap.pageData, fresh.pageData))
	}
	if se.snap.inodeRec != fresh.inodeRec {
		h.t.Fatalf("%s: inode record differs from the device", when)
	}
}

// TestVerifiedViewSnapshotMatchesParse: the baseline a kept hold gets
// from the verified view equals a fresh parse, and costs no second parse.
func TestVerifiedViewSnapshotMatchesParse(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	app := h.c.RegisterApp(0, 0)
	h.c.Acquire(app, layout.RootIno, true)
	ino := h.mkfile(app, layout.RootIno, "f")
	h.mkdir(app, layout.RootIno, "d")
	if err := h.c.Commit(app, layout.RootIno); err != nil {
		t.Fatal(err)
	}
	h.checkSnapshotFresh(layout.RootIno, "directory commit")
	if err := h.c.Commit(app, ino); err != nil {
		t.Fatal(err)
	}
	h.fill(app, ino, 4)
	pages := h.c.VerifierStats().Pages.Load()
	if err := h.c.Commit(app, ino); err != nil {
		t.Fatal(err)
	}
	if got := h.c.VerifierStats().Pages.Load() - pages; got != 1 {
		t.Fatalf("commit of a one-map-page file parsed %d pages, want 1", got)
	}
	h.checkSnapshotFresh(ino, "file commit")

	h.fill(app, ino, 6)
	pages = h.c.VerifierStats().Pages.Load()
	if _, err := h.c.ReleaseLeased(app, ino); err != nil {
		t.Fatal(err)
	}
	if got := h.c.VerifierStats().Pages.Load() - pages; got != 1 {
		t.Fatalf("leased release parsed %d pages, want 1", got)
	}
	h.checkSnapshotFresh(ino, "leased release")
	if old := h.snap(ino).fileOld; len(old.Blocks) != 6 || len(old.MapPages) != 1 || old.Size != 6*layout.PageSize {
		t.Fatalf("baseline after leased release: %+v", old)
	}
}

// TestDormantHandoffRollsBackToVerifiedBytes: an acquire that reclaims a
// dormant hold reuses the release-time snapshot, and a failed
// verification by the new holder restores exactly the bytes the first
// holder had verified.
func TestDormantHandoffRollsBackToVerifiedBytes(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	a := h.c.RegisterApp(0, 0)
	b := h.c.RegisterApp(0, 0)
	ino := sharedFile(h, a, 3)
	kept := h.snap(ino)
	in, _, _ := layout.ReadInode(h.dev, h.g, ino)
	mp := in.DataRoot
	rec := make([]byte, layout.InodeSize)
	h.dev.Read(layout.InodeOff(h.g, ino), rec)
	mapBytes := make([]byte, layout.PageSize)
	h.dev.Read(int64(mp*layout.PageSize), mapBytes)

	pages := h.c.VerifierStats().Pages.Load()
	if _, err := h.c.Acquire(b, ino, true); err != nil {
		t.Fatal(err)
	}
	if h.snap(ino) != kept {
		t.Fatal("dormant hand-off rebuilt the snapshot")
	}
	if got := h.c.VerifierStats().Pages.Load(); got != pages {
		t.Fatalf("dormant hand-off parsed %d pages", got-pages)
	}

	// b grows the file onto a page it was never granted.
	stolen := h.g.PageCount - 2
	bad := in
	bad.Size += layout.PageSize
	layout.WriteInode(h.dev, h.g, ino, &bad)
	layout.SetMapEntry(h.dev, mp, 3, stolen)
	err := h.c.Release(b, ino)
	if !IsVerificationError(err) {
		t.Fatalf("release onto an ungranted page: %v, want verification failure", err)
	}
	got := make([]byte, layout.InodeSize)
	h.dev.Read(layout.InodeOff(h.g, ino), got)
	if !bytes.Equal(got, rec) {
		t.Fatal("rollback did not restore the verified inode record")
	}
	gotMap := make([]byte, layout.PageSize)
	h.dev.Read(int64(mp*layout.PageSize), gotMap)
	if !bytes.Equal(gotMap, mapBytes) {
		t.Fatal("rollback did not restore the verified map page")
	}
	// The restored state verifies again.
	if _, err := h.c.Acquire(a, ino, true); err != nil {
		t.Fatal(err)
	}
	if err := h.c.Release(a, ino); err != nil {
		t.Fatalf("release of the rolled-back file: %v", err)
	}
}

// TestRelocateInDropsKeptSnapshot: relocating a dormant file moves its
// verified parent, so the release-time snapshot (which records the old
// parent) must not survive; the next acquire parses afresh, and a
// rollback keeps the new parent.
func TestRelocateInDropsKeptSnapshot(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	a := h.c.RegisterApp(0, 0)
	b := h.c.RegisterApp(0, 0)
	h.c.Acquire(a, layout.RootIno, true)
	d1 := h.mkdir(a, layout.RootIno, "d1")
	d2 := h.mkdir(a, layout.RootIno, "d2")
	ino := h.mkfile(a, d1, "f")
	for _, i := range []uint64{layout.RootIno, d1, d2, ino} {
		if err := h.c.Commit(a, i); err != nil {
			t.Fatal(err)
		}
	}
	h.fill(a, ino, 2)
	if _, err := h.c.ReleaseLeased(a, ino); err != nil {
		t.Fatal(err)
	}
	old := h.snap(ino)

	h.rename(a, d1, d2, ino, "f")
	if err := h.c.Commit(a, d2); err != nil {
		t.Fatalf("new parent commit: %v", err)
	}
	if h.snap(ino) != nil || h.c.OwnerOf(ino) != 0 {
		t.Fatal("relocation kept the dormant hold or its snapshot")
	}
	if _, err := h.c.Acquire(b, ino, true); err != nil {
		t.Fatal(err)
	}
	if h.snap(ino) == old {
		t.Fatal("acquire after relocation reused the pre-relocation snapshot")
	}
	h.checkSnapshotFresh(ino, "acquire after relocation")

	// A rollback now restores the relocated parent, not d1.
	in, _, _ := layout.ReadInode(h.dev, h.g, ino)
	in.Perm = 0
	layout.WriteInode(h.dev, h.g, ino, &in)
	if err := h.c.Release(b, ino); !IsVerificationError(err) {
		t.Fatalf("release with changed permissions: %v, want verification failure", err)
	}
	if in, _, _ := layout.ReadInode(h.dev, h.g, ino); in.Parent != d2 || in.Perm == 0 {
		t.Fatalf("rolled back to parent %d perm %#o, want parent %d", in.Parent, in.Perm, d2)
	}
}

// TestRefusedAcquireErrorAllocsNothing: a refused acquire of a held
// inode is answered with a cached error that still matches
// fsapi.ErrBusy, and the crossing's trace event goes into a preallocated
// ring slot, so the refusal allocates nothing.
func TestRefusedAcquireErrorAllocsNothing(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	a := h.c.RegisterApp(0, 0)
	b := h.c.RegisterApp(0, 0)
	if _, err := h.c.Acquire(a, layout.RootIno, true); err != nil {
		t.Fatal(err)
	}
	_, err := h.c.Acquire(b, layout.RootIno, false)
	if !errors.Is(err, fsapi.ErrBusy) {
		t.Fatalf("acquire of a held inode: %v, want ErrBusy", err)
	}
	if want := "inode 1 held by app 1: " + fsapi.ErrBusy.Error(); err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		h.c.Acquire(b, layout.RootIno, false)
	})
	if allocs > 0 {
		t.Fatalf("refused acquire: %v allocs, want 0", allocs)
	}
}

// TestFileHandoffAllocs pins the allocations of a steady two-app file
// hand-off: each acquire reclaims the other app's dormant hold, each
// leased release verifies the file once. Trace events and the
// verifier's kernel view allocate nothing.
func TestFileHandoffAllocs(t *testing.T) {
	h := newHarness(t, verifier.Enhanced)
	a := h.c.RegisterApp(0, 0)
	b := h.c.RegisterApp(0, 0)
	ino := sharedFile(h, a, 16)
	var err error
	handoff := func(app AppID) {
		if err == nil {
			_, err = h.c.Acquire(app, ino, true)
		}
		if err == nil {
			_, err = h.c.ReleaseLeased(app, ino)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		handoff(b)
		handoff(a)
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = 18
	if allocs > want {
		t.Fatalf("two file hand-offs: %v allocs, want <= %d", allocs, want)
	}
}
