package pmem

import (
	"fmt"
	"slices"

	"arckfs/internal/telemetry"
)

// Batch is a per-thread write-combining persist queue over one Device.
//
// Real PM file systems do not issue a clwb at every call site that
// dirties a line: within one operation they queue line-granular flush
// requests, dedupe lines already queued, and issue the write-backs in one
// burst at the next ordering point. Batch implements that discipline for
// the LibFS hot paths:
//
//   - Flush(off, n) enqueues the cache lines overlapping [off, off+n).
//     A line already queued since the last barrier is absorbed (counted
//     in Stats.BatchDedup) — this is what coalesces the adjacent 8-byte
//     block-map entry flushes of writeAt/Truncate into single-line
//     flushes. A repeat of the most recently queued line is absorbed at
//     once; any other repeat is absorbed when the barrier sorts the
//     queue, so the count per epoch is the same either way.
//   - Barrier() drains the queue (one clwb per unique line, adjacent
//     lines merged into ranged flushes) and issues one fence. A Barrier
//     is an ordering-epoch boundary: content queued before it is durable
//     before anything queued after it can persist.
//   - WriteStream/ZeroStream write full cache lines with non-temporal
//     stores, skipping the clwb entirely; the data is durable at the
//     next Barrier.
//
// Correctness of deferring the clwb to the barrier: in the persistency
// model (and on real hardware) an unfenced clwb guarantees nothing — a
// crash before the fence may persist any per-line prefix of the store
// history whether or not write-back was initiated. Crash states therefore
// depend only on where the fences are, and Batch preserves exactly the
// fence placement of the unbatched code. The one rule a caller must keep
// is the §4.2 ordering-epoch rule: a commit marker must be queued only
// AFTER the Barrier that persists its body — the marker line must never
// merge into the body epoch. The crash-enumeration tests in libfs prove
// the batched protocol admits no new crash states.
//
// A Batch is owned by a single thread and is not safe for concurrent
// use. The degenerate eager mode (NewEagerBatch) reproduces the
// pre-batching behavior — one clwb per call site, no streaming stores —
// and exists so benchmarks can A/B the optimization.
type Batch struct {
	dev   *Device
	eager bool

	// pending lists the line offsets queued in the current epoch in
	// Flush order, with no two neighbours equal; Barrier sorts and
	// dedupes it, then truncates it for reuse, so its backing array is
	// allocated by the first Flush and then only grows. A slice rather
	// than a set: clearing a map costs time proportional to the largest
	// epoch it ever held, a slice reset is free. A thread that only ever
	// streams (or never writes) allocates nothing, which matters when
	// thousands of idle tenants each hold a Batch.
	pending []int64
	// sink, when set, receives one span event per Flush/stream/Barrier so
	// a sampled operation's span carries its persist history. The sink is
	// the owning thread (which no-ops when no span is open), so the
	// disabled cost is one nil check.
	sink telemetry.SpanSink
}

// SetSink attaches a span-event sink to the batch. Pass nil to detach.
func (b *Batch) SetSink(s telemetry.SpanSink) { b.sink = s }

// NewBatch creates a write-combining persist queue for the device.
func (d *Device) NewBatch() *Batch {
	return &Batch{dev: d}
}

// NewEagerBatch creates a pass-through queue: every Flush issues its clwb
// immediately, Barrier only fences, and streaming writes degrade to
// store+clwb. This is the pre-batching persist behavior.
func (d *Device) NewEagerBatch() *Batch {
	return &Batch{dev: d, eager: true}
}

// Eager reports whether the batch is in pass-through mode.
func (b *Batch) Eager() bool { return b.eager }

// Device returns the underlying device.
func (b *Batch) Device() *Device { return b.dev }

// Flush queues a clwb for every cache line overlapping [off, off+n).
// Lines already queued in this epoch are absorbed.
func (b *Batch) Flush(off, n int64) {
	if n <= 0 {
		return
	}
	first := off / LineSize * LineSize
	last := (off + n - 1) / LineSize * LineSize
	if b.sink != nil {
		b.sink.SpanEvent(telemetry.SpanEvFlush, first, (last-first)/LineSize+1)
	}
	if b.eager {
		b.dev.Flush(off, n)
		return
	}
	b.dev.check(off, n)
	if k := len(b.pending); k > 0 && b.pending[k-1] == first {
		b.dev.Stats.BatchDedup.Add(1)
		first += LineSize
	}
	for l := first; l <= last; l += LineSize {
		b.pending = append(b.pending, l)
	}
}

// WriteStream writes p (line-aligned, whole lines) with non-temporal
// stores: no clwb is queued, and the content is durable at the next
// Barrier. In eager mode it degrades to a store plus immediate clwbs.
func (b *Batch) WriteStream(off int64, p []byte) {
	if b.sink != nil {
		b.sink.SpanEvent(telemetry.SpanEvNTStore, off, int64(len(p)))
	}
	if b.eager {
		b.dev.Write(off, p)
		b.dev.Flush(off, int64(len(p)))
		return
	}
	b.dev.WriteNT(off, p)
}

// ZeroStream zeroes [off, off+n) (line-aligned) with non-temporal stores.
func (b *Batch) ZeroStream(off, n int64) {
	if b.sink != nil {
		b.sink.SpanEvent(telemetry.SpanEvNTStore, off, n)
	}
	if b.eager {
		b.dev.Zero(off, n)
		b.dev.Flush(off, n)
		return
	}
	b.dev.ZeroNT(off, n)
}

// Pending returns the number of queued (not yet written back) line
// flush requests. A line queued twice, not back to back, counts twice
// until the Barrier merges the two.
func (b *Batch) Pending() int { return len(b.pending) }

// Barrier ends the current ordering epoch: it drains the queue — one
// clwb per unique line, adjacent lines merged into ranged flushes — and
// issues one fence. Everything flushed or streamed before the Barrier is
// durable when it returns.
func (b *Batch) Barrier() {
	Killpoint("pmem.batch.barrier")
	var drained int64
	if !b.eager && len(b.pending) > 0 {
		queued := len(b.pending)
		slices.Sort(b.pending)
		lines := slices.Compact(b.pending)
		drained = int64(len(lines))
		if dups := int64(queued) - drained; dups > 0 {
			b.dev.Stats.BatchDedup.Add(dups)
		}
		runStart, runEnd := lines[0], lines[0]+LineSize
		for _, l := range lines[1:] {
			if l == runEnd {
				runEnd += LineSize
				continue
			}
			b.dev.Flush(runStart, runEnd-runStart)
			runStart, runEnd = l, l+LineSize
		}
		b.dev.Flush(runStart, runEnd-runStart)
		b.pending = b.pending[:0]
	}
	b.dev.Fence()
	if b.sink != nil {
		b.sink.SpanEvent(telemetry.SpanEvFence, drained, 0)
	}
}

// Drain issues a Barrier only if lines are queued. Call sites that must
// guarantee "nothing in flight" (ownership transfer to the kernel) use it
// to avoid paying a fence in the common already-drained case.
func (b *Batch) Drain() {
	if len(b.pending) > 0 {
		Killpoint("pmem.batch.drain")
		b.Barrier()
	}
}

// AssertEmpty panics if lines are queued; operations must end on an epoch
// boundary, so the queue is empty between operations. Tests use it to pin
// the invariant.
func (b *Batch) AssertEmpty() {
	if len(b.pending) > 0 {
		panic(fmt.Sprintf("pmem: batch holds %d undrained lines across an operation boundary", len(b.pending)))
	}
}
