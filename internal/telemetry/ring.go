package telemetry

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// EventKind classifies trace events.
type EventKind uint8

// Trace event kinds. The A/B payload fields are kind-specific and
// documented per constant.
const (
	// EvAcquire: a LibFS acquired an inode. A = 1 for write intent.
	EvAcquire EventKind = iota + 1
	// EvRelease: an inode was returned to the kernel.
	EvRelease
	// EvCommit: an inode was verified in place (ownership retained).
	EvCommit
	// EvMap: the kernel mapped an inode's core state into a LibFS.
	EvMap
	// EvUnmap: the kernel tore a mapping down.
	EvUnmap
	// EvVerifyOK: a verification passed. A = dentry records scanned
	// (directories), B = pages walked.
	EvVerifyOK
	// EvVerifyFail: a verification failed and the corruption policy ran.
	EvVerifyFail
	// EvLeaseExpire: a holder's lease expired and the kernel reclaimed
	// the inode involuntarily. App is the expired holder.
	EvLeaseExpire
	// EvTrustTransfer: ownership moved inside a trust group without
	// verification (§5.4).
	EvTrustTransfer
	// EvRenameLockAcquire / EvRenameLockRelease: the global rename lease
	// (§4.6). On release, A = 0 if the lease had been stolen.
	EvRenameLockAcquire
	EvRenameLockRelease
	// EvCrashSnapshot: a crash image was materialized. A = crash policy.
	EvCrashSnapshot
	// EvGrantInodes / EvGrantPages: the kernel granted fresh inode
	// numbers / pages to an application. A = count requested.
	EvGrantInodes
	EvGrantPages
	// EvReturnPages: an application returned granted pages. A = count.
	EvReturnPages
	// EvSetACL: a per-app permission override was installed. A = perm.
	EvSetACL
	// EvUnregisterApp: an application identity was retired; held inodes
	// were force-released and granted resources reclaimed.
	EvUnregisterApp
	// EvSetQuota: an application's resource quota changed. A = max pages,
	// B = max inodes.
	EvSetQuota
)

var eventKindNames = map[EventKind]string{
	EvAcquire:           "acquire",
	EvRelease:           "release",
	EvCommit:            "commit",
	EvMap:               "map",
	EvUnmap:             "unmap",
	EvVerifyOK:          "verify-ok",
	EvVerifyFail:        "verify-fail",
	EvLeaseExpire:       "lease-expire",
	EvTrustTransfer:     "trust-transfer",
	EvRenameLockAcquire: "rename-lock-acquire",
	EvRenameLockRelease: "rename-lock-release",
	EvCrashSnapshot:     "crash-snapshot",
	EvGrantInodes:       "grant-inodes",
	EvGrantPages:        "grant-pages",
	EvReturnPages:       "return-pages",
	EvSetACL:            "set-acl",
	EvUnregisterApp:     "unregister-app",
	EvSetQuota:          "set-quota",
}

func (k EventKind) String() string {
	if s, ok := eventKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// MarshalJSON renders the kind by name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", k.String())), nil
}

// Event is one structured trace record.
type Event struct {
	Seq   uint64    `json:"seq"`
	Nanos int64     `json:"t_ns"` // since ring creation
	Kind  EventKind `json:"kind"`
	App   int64     `json:"app,omitempty"`
	Ino   uint64    `json:"ino,omitempty"`
	A     int64     `json:"a,omitempty"`
	B     int64     `json:"b,omitempty"`
}

func (e Event) String() string {
	return fmt.Sprintf("#%d +%.3fms %-19s app=%d ino=%d a=%d b=%d",
		e.Seq, float64(e.Nanos)/1e6, e.Kind, e.App, e.Ino, e.A, e.B)
}

// Ring is a bounded trace buffer. Recording is one atomic sequence
// increment plus a store into a preallocated slot, so it allocates
// nothing and is cheap enough to stay enabled during benchmarks; when
// full it overwrites the oldest events. All methods are safe on a nil
// *Ring (they become no-ops), so call sites do not need to guard a
// disabled trace.
type Ring struct {
	slots []slot
	seq   atomic.Uint64
	start time.Time
}

// slot holds one event. ver is (Seq+1)<<1 of the event it holds, with
// bit 0 set while a writer fills it, and 0 while the slot is empty. The
// payload words are atomics so a Snapshot racing a writer is well
// defined; it keeps a slot only if ver read the same, and even, on both
// sides of the payload.
type slot struct {
	ver   atomic.Uint64
	nanos atomic.Int64
	kind  atomic.Uint32
	app   atomic.Int64
	ino   atomic.Uint64
	a, b  atomic.Int64
}

// NewRing creates a ring holding up to capacity events (minimum 16).
func NewRing(capacity int) *Ring {
	if capacity < 16 {
		capacity = 16
	}
	return &Ring{slots: make([]slot, capacity), start: time.Now()}
}

// Record appends one event.
func (r *Ring) Record(kind EventKind, app int64, ino uint64, a, b int64) {
	if r == nil {
		return
	}
	seq := r.seq.Add(1) - 1
	sl := &r.slots[seq%uint64(len(r.slots))]
	ver := (seq + 1) << 1
	for {
		cur := sl.ver.Load()
		if cur&^1 > ver {
			return // a newer event already took the slot
		}
		if cur&1 == 0 && sl.ver.CompareAndSwap(cur, ver|1) {
			break
		}
		runtime.Gosched() // an older event's writer is mid-store
	}
	sl.nanos.Store(time.Since(r.start).Nanoseconds())
	sl.kind.Store(uint32(kind))
	sl.app.Store(app)
	sl.ino.Store(ino)
	sl.a.Store(a)
	sl.b.Store(b)
	sl.ver.Store(ver)
}

// Total returns how many events were ever recorded (including
// overwritten ones).
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Cap returns the ring capacity.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Snapshot returns the buffered events oldest-first. Under concurrent
// recording the snapshot is a best-effort consistent view: it skips
// slots a writer is filling.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		sl := &r.slots[i]
		ver := sl.ver.Load()
		if ver == 0 || ver&1 == 1 {
			continue // empty, or mid-write
		}
		ev := Event{
			Seq:   ver>>1 - 1,
			Nanos: sl.nanos.Load(),
			Kind:  EventKind(sl.kind.Load()),
			App:   sl.app.Load(),
			Ino:   sl.ino.Load(),
			A:     sl.a.Load(),
			B:     sl.b.Load(),
		}
		if sl.ver.Load() == ver {
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
