// Package verifier implements Trio's trusted userspace integrity
// verifier: when inode ownership moves between applications, it inspects
// the inode's core state in persistent memory and decides whether the
// releasing LibFS's modifications are legitimate.
//
// Two modes reproduce the paper:
//
//   - Original is the verifier as shipped in the Trio artifact. It cannot
//     distinguish a child that was renamed away from one that was deleted,
//     so a legitimate cross-directory rename of a non-empty directory
//     fails invariant I3 on the old parent (§4.1's observed bug).
//   - Enhanced is the ArckFS+ verifier: shadow inodes carry a parent
//     pointer, relocations into a new parent are verified per-operation
//     (old parent held, no descendant cycles, global rename lock held for
//     directories), and the parent pointer is advanced only when the new
//     parent's verification passes.
//
// The verifier never mutates anything: it returns a Result describing the
// shadow-state and allocation updates the kernel should apply.
package verifier

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"arckfs/internal/costmodel"
	"arckfs/internal/layout"
	"arckfs/internal/pmem"
)

// Mode selects the artifact or the patched verifier.
type Mode int

const (
	// Original is the Trio-artifact verifier (exhibits §4.1).
	Original Mode = iota
	// Enhanced is the ArckFS+ verifier.
	Enhanced
)

// ShadowInfo is the kernel's ground truth about one inode, as the
// verifier is allowed to see it.
type ShadowInfo struct {
	Ino        uint64
	Type       uint16
	Perm       uint16
	UID, GID   uint32
	Parent     uint64
	ChildCount uint32
	Committed  bool
	DataRoot   uint64
	NTails     uint16
}

// KernelView is the verifier's read-only window into kernel state.
type KernelView interface {
	// Shadow returns the shadow record of a committed or pending inode.
	Shadow(ino uint64) (ShadowInfo, bool)
	// InodeGrantedTo reports whether ino is a fresh inode number granted
	// to app and not yet committed.
	InodeGrantedTo(app int64, ino uint64) bool
	// PageUsableBy reports whether app may introduce page into inode
	// ino's structure: the page is granted to app, or already owned by
	// ino.
	PageUsableBy(app int64, ino, page uint64) bool
	// OwnedBy reports whether app currently holds ino.
	OwnedBy(app int64, ino uint64) bool
	// OwnedByOther reports whether some application other than app
	// currently holds ino.
	OwnedByOther(app int64, ino uint64) bool
	// HoldsRenameLock reports whether app holds the global rename lease.
	HoldsRenameLock(app int64) bool
	// IsDescendant reports whether node is anc itself or lies below anc
	// in the verified tree.
	IsDescendant(node, anc uint64) bool
}

// Stats counts the verifier's work units: dentry records and pages
// scanned during core-state parsing. Telemetry-only; the simulated
// verification latency is charged through Cost.
type Stats struct {
	Dentries atomic.Int64
	Pages    atomic.Int64
}

// V is a verifier instance.
type V struct {
	Mode  Mode
	Dev   *pmem.Device
	Geo   layout.Geometry
	Cost  *costmodel.Model
	Stats Stats
}

// --- Core-state parsing ----------------------------------------------------

// DirView is the parsed core state of a directory.
type DirView struct {
	Inode   layout.Inode
	Entries map[string]layout.Dentry
	// Pages are the dentry log pages (excluding the tail-set page).
	Pages []uint64
	// Records counts every record slot scanned (live and dead), the
	// verifier's work unit.
	Records int
}

// ParseDir reads and structurally validates directory ino's core state.
func (v *V) ParseDir(ino uint64) (*DirView, error) {
	in, ok, corrupt := layout.ReadInode(v.Dev, v.Geo, ino)
	if corrupt {
		return nil, fmt.Errorf("inode %d: corrupt record", ino)
	}
	if !ok || in.Type != layout.TypeDir {
		return nil, fmt.Errorf("inode %d: not a directory", ino)
	}
	if in.DataRoot == 0 || in.DataRoot >= v.Geo.PageCount {
		return nil, fmt.Errorf("inode %d: tail-set page %d out of range", ino, in.DataRoot)
	}
	nt := layout.TailCount(v.Dev, in.DataRoot)
	if nt != int(in.NTails) || nt <= 0 || nt > layout.MaxTails {
		return nil, fmt.Errorf("inode %d: tail count %d disagrees with inode (%d)", ino, nt, in.NTails)
	}
	dv := &DirView{Inode: in, Entries: make(map[string]layout.Dentry)}
	seenPages := map[uint64]bool{}
	inoSeen := map[uint64]string{}
	for t := 0; t < nt; t++ {
		head := layout.TailHead(v.Dev, in.DataRoot, t)
		// Bounded walk: detect page cycles and out-of-range pages.
		for p := head; p != 0; p = layout.NextPage(v.Dev, p) {
			if p < v.Geo.DataStart || p >= v.Geo.PageCount {
				return nil, fmt.Errorf("inode %d: log page %d out of range", ino, p)
			}
			if seenPages[p] {
				return nil, fmt.Errorf("inode %d: log page %d linked twice", ino, p)
			}
			seenPages[p] = true
			dv.Pages = append(dv.Pages, p)
		}
		if head == 0 {
			continue
		}
		var scanErr error
		_, _, corrupt := layout.ScanTail(v.Dev, head, func(d layout.Dentry) bool {
			dv.Records++
			if !d.Live {
				return true
			}
			if !layout.ValidName(d.Name) {
				scanErr = fmt.Errorf("inode %d: invalid name %q", ino, d.Name)
				return false
			}
			if _, dup := dv.Entries[d.Name]; dup {
				scanErr = fmt.Errorf("inode %d: duplicate name %q", ino, d.Name)
				return false
			}
			if prev, dup := inoSeen[d.Ino]; dup {
				scanErr = fmt.Errorf("inode %d: inode %d linked as both %q and %q", ino, d.Ino, prev, d.Name)
				return false
			}
			inoSeen[d.Ino] = d.Name
			dv.Entries[d.Name] = d
			return true
		})
		if scanErr != nil {
			return nil, scanErr
		}
		if corrupt {
			return nil, fmt.Errorf("inode %d: corrupt dentry record (torn commit?)", ino)
		}
	}
	v.Cost.VerifyDentries(dv.Records)
	v.Cost.VerifyPages(len(dv.Pages) + 1)
	v.Stats.Dentries.Add(int64(dv.Records))
	v.Stats.Pages.Add(int64(len(dv.Pages) + 1))
	return dv, nil
}

// FileView is the parsed core state of a regular file.
type FileView struct {
	Inode layout.Inode
	// Blocks holds one entry per block the size implies; zero = hole.
	Blocks []uint64
	// MapPages lists the map pages in chain order.
	MapPages []uint64
	// old holds MapPages and the nonzero Blocks in ascending order: the
	// view as a verification baseline, and its membership sets.
	old FileOld
}

// Old returns the view as a verification baseline. Neither the view nor
// the baseline is modified after parsing.
func (fv *FileView) Old() *FileOld { return &fv.old }

// uses reports whether page is one of the view's map pages or blocks.
func (fv *FileView) uses(page uint64) bool {
	return contains(fv.old.MapPages, page) || contains(fv.old.Blocks, page)
}

func contains(sorted []uint64, page uint64) bool {
	_, ok := slices.BinarySearch(sorted, page)
	return ok
}

// ParseFile reads and structurally validates file ino's core state.
//
// The map chain walk stops at the first map page it meets twice, so it
// visits at most one map page per data page. A page referenced twice in
// any other way (a block listed twice, or a page that is both a map page
// and a block) is found after the walk by sorting the blocks; the error
// then names the repeat the walk reached first, as a walk that tracked
// every page it saw would have.
func (v *V) ParseFile(ino uint64) (*FileView, error) {
	in, ok, corrupt := layout.ReadInode(v.Dev, v.Geo, ino)
	if corrupt {
		return nil, fmt.Errorf("inode %d: corrupt record", ino)
	}
	if !ok || in.Type != layout.TypeFile {
		return nil, fmt.Errorf("inode %d: not a regular file", ino)
	}
	need := layout.BlocksForSize(in.Size)
	// The size is not trusted yet: a corrupt one must not size the
	// allocation.
	fv := &FileView{Inode: in, Blocks: make([]uint64, 0, min(need, layout.MapEntriesPerPage))}
	fv.old.Size = in.Size
	var walkErr error
	page := in.DataRoot
	idx := 0
walk:
	for page != 0 {
		if page < v.Geo.DataStart || page >= v.Geo.PageCount {
			walkErr = fmt.Errorf("inode %d: map page %d out of range", ino, page)
			break
		}
		at, seen := slices.BinarySearch(fv.old.MapPages, page)
		if seen {
			walkErr = fmt.Errorf("inode %d: map chain cycle at page %d", ino, page)
			break
		}
		fv.old.MapPages = slices.Insert(fv.old.MapPages, at, page)
		fv.MapPages = append(fv.MapPages, page)
		for i := 0; i < layout.MapEntriesPerPage; i++ {
			b := layout.MapEntry(v.Dev, page, i)
			if idx < need {
				if b != 0 && (b < v.Geo.DataStart || b >= v.Geo.PageCount) {
					walkErr = fmt.Errorf("inode %d: block %d out of range", ino, b)
					break walk
				}
				fv.Blocks = append(fv.Blocks, b)
			} else if b != 0 {
				walkErr = fmt.Errorf("inode %d: block pointer beyond size at index %d", ino, idx)
				break walk
			}
			idx++
		}
		page = layout.NextPage(v.Dev, page)
	}
	fv.old.Blocks = make([]uint64, 0, len(fv.Blocks))
	for _, b := range fv.Blocks {
		if b != 0 {
			fv.old.Blocks = append(fv.old.Blocks, b)
		}
	}
	slices.Sort(fv.old.Blocks)
	// Every page collected lies before the walk's stopping point, so a
	// repeat among them is the earlier error.
	if fv.hasRepeat() {
		return nil, fv.firstRepeat(ino)
	}
	if walkErr != nil {
		return nil, walkErr
	}
	if len(fv.Blocks) < need {
		return nil, fmt.Errorf("inode %d: map chain too short for size %d", ino, in.Size)
	}
	v.Cost.VerifyPages(len(fv.MapPages))
	v.Stats.Pages.Add(int64(len(fv.MapPages)))
	return fv, nil
}

// hasRepeat reports whether a block is listed twice or is also a map
// page (map pages are distinct: the walk stops at a repeated one).
func (fv *FileView) hasRepeat() bool {
	for i := 1; i < len(fv.old.Blocks); i++ {
		if fv.old.Blocks[i] == fv.old.Blocks[i-1] {
			return true
		}
	}
	for _, p := range fv.old.MapPages {
		if contains(fv.old.Blocks, p) {
			return true
		}
	}
	return false
}

// firstRepeat names the repeated page a chain-order walk meets first: a
// map page seen before closes a cycle, a block seen before is referenced
// twice. Only rejected files reach it.
func (fv *FileView) firstRepeat(ino uint64) error {
	type visit struct {
		page    uint64
		at      int
		mapPage bool
	}
	var seq []visit
	for k, mp := range fv.MapPages {
		seq = append(seq, visit{mp, len(seq), true})
		lo := min(k*layout.MapEntriesPerPage, len(fv.Blocks))
		hi := min(lo+layout.MapEntriesPerPage, len(fv.Blocks))
		for _, b := range fv.Blocks[lo:hi] {
			if b != 0 {
				seq = append(seq, visit{b, len(seq), false})
			}
		}
	}
	slices.SortFunc(seq, func(a, b visit) int {
		return cmp.Or(cmp.Compare(a.page, b.page), cmp.Compare(a.at, b.at))
	})
	first := visit{at: len(seq)}
	for i := 1; i < len(seq); i++ {
		if seq[i].page == seq[i-1].page && seq[i].at < first.at {
			first = seq[i]
		}
	}
	if first.mapPage {
		return fmt.Errorf("inode %d: map chain cycle at page %d", ino, first.page)
	}
	return fmt.Errorf("inode %d: block %d referenced twice", ino, first.page)
}
