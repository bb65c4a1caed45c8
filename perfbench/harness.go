package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"arckfs"
	"arckfs/internal/fsapi"
)

// epoch anchors every timestamp the harness takes; time.Since reads the
// monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// errOracle marks an operation whose result disagreed with the
// benchmark's model of what the file system must hold.
var errOracle = errors.New("oracle mismatch")

// call indexes the per-call latency buffers of the LibFS layer.
type call uint8

const (
	cCreate call = iota
	cStat
	cOpen
	cWrite
	cRead
	cRename
	cUnlink
	cClose
	cFsync
	nCalls
)

var callNames = [nCalls]string{"create", "stat", "open", "write", "read", "rename", "unlink", "close", "fsync"}

// layer names a span's owner in the traced run.
type layer uint8

const (
	lBench  layer = iota // the benchmark's own loop around one op
	lKV                  // kv.DB.Put / Get
	lLibFS               // one fsapi.Thread method
	lKernel              // arckfs.App.Release
	nLayers
)

var layerNames = [nLayers]string{"bench", "kv", "libfs", "kernel"}

// Buffer capacities, sized so that a 30 s run at 250k ops/s per client
// does not grow a buffer inside the timed loop; if one grows anyway, the
// copy is charged to that op.
const (
	opBufCap   = 1 << 23
	callBufCap = 1 << 22
	keptSpans  = 1 << 15
)

// recorder collects one client's samples. It belongs to that client's
// goroutine alone.
type recorder struct {
	ops    []uint32         // whole-op latency, ns
	calls  [nCalls][]uint32 // nil unless perCall
	kv     [2][]uint32      // put, get
	rel    []uint32         // App.Release
	marks  []int            // index in ops where each window after the first starts
	ran    []float64        // per window, process CPU time ÷ wall time
	failed int64
	errs   []error // first few failures, for the report
	tr     *tracer // nil in an untraced run
}

// Recorder modes. Timing every LibFS call costs two clock reads per
// call (about 60 ns each on a KVM guest), so the end-to-end run times
// whole ops only.
const (
	opsOnly = iota // whole ops, kv calls and App.Release
	perCall        // also every fsapi.Thread call
	traced         // also spans around every call
)

func newRecorder(mode int) *recorder {
	r := &recorder{ops: make([]uint32, 0, opBufCap), rel: make([]uint32, 0, callBufCap)}
	for i := range r.kv {
		r.kv[i] = make([]uint32, 0, callBufCap)
	}
	if mode >= perCall {
		for i := range r.calls {
			r.calls[i] = make([]uint32, 0, callBufCap)
		}
	}
	if mode == traced {
		r.tr = &tracer{kept: make([]spanRec, 0, keptSpans)}
	}
	return r
}

// thread returns t wrapped so that its calls are timed, when r times
// calls.
func (r *recorder) thread(t fsapi.Thread) fsapi.Thread {
	if r.calls[0] == nil {
		return t
	}
	return &timedThread{t: t, r: r}
}

// fs returns app as the fsapi.FS kv runs on, with timed threads when r
// times calls.
func (r *recorder) fs(app *arckfs.App) fsapi.FS {
	if r.calls[0] == nil {
		return app
	}
	return &timedFS{app: app, r: r}
}

// reset empties the buffers for the next run.
func (r *recorder) reset() {
	r.ops = r.ops[:0]
	for i := range r.calls {
		if r.calls[i] != nil {
			r.calls[i] = r.calls[i][:0]
		}
	}
	for i := range r.kv {
		r.kv[i] = r.kv[i][:0]
	}
	r.rel = r.rel[:0]
	r.marks = r.marks[:0]
	r.ran = r.ran[:0]
	r.failed, r.errs = 0, nil
	if r.tr != nil {
		*r.tr = tracer{kept: r.tr.kept[:0]}
	}
}

// window returns the latencies of the ops that completed in window k.
func (r *recorder) window(k int) []uint32 {
	lo, hi := 0, len(r.ops)
	if k > 0 && k-1 < len(r.marks) {
		lo = r.marks[k-1]
	}
	if k < len(r.marks) {
		hi = r.marks[k]
	}
	if k > len(r.marks) {
		lo = hi
	}
	return r.ops[lo:hi]
}

// closeWindow records the running share of the window that began at
// wall time t0 and process CPU time c0, and returns the next window's
// start.
func (r *recorder) closeWindow(t0 int64, c0 time.Duration) (int64, time.Duration) {
	t, c := now(), processCPU()
	ran := 0.0
	if t > t0 {
		ran = float64(c-c0) / float64(t-t0)
	}
	r.ran = append(r.ran, ran)
	return t, c
}

// begin opens a timed interval (and a span when tracing).
func (r *recorder) begin() int64 {
	if r.tr != nil {
		r.tr.push()
	}
	return now()
}

// end closes the interval opened by begin and returns its length.
func (r *recorder) end(l layer, start int64) uint32 {
	d := now() - start
	if r.tr != nil {
		r.tr.pop(l, start, d)
	}
	return sat(d)
}

func (r *recorder) fail(err error) {
	r.failed++
	if len(r.errs) < 4 {
		r.errs = append(r.errs, err)
	}
}

func sat(d int64) uint32 {
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// timedThread times every call into the LibFS from outside, through the
// public fsapi.Thread interface.
type timedThread struct {
	t fsapi.Thread
	r *recorder
}

func (x *timedThread) rec(c call, s int64) {
	x.r.calls[c] = append(x.r.calls[c], x.r.end(lLibFS, s))
}

func (x *timedThread) Create(p string) error {
	s := x.r.begin()
	err := x.t.Create(p)
	x.rec(cCreate, s)
	return err
}

func (x *timedThread) Mkdir(p string) error {
	s := x.r.begin()
	err := x.t.Mkdir(p)
	x.r.end(lLibFS, s)
	return err
}

func (x *timedThread) Open(p string) (fsapi.FD, error) {
	s := x.r.begin()
	fd, err := x.t.Open(p)
	x.rec(cOpen, s)
	return fd, err
}

func (x *timedThread) Close(fd fsapi.FD) error {
	s := x.r.begin()
	err := x.t.Close(fd)
	x.rec(cClose, s)
	return err
}

func (x *timedThread) ReadAt(fd fsapi.FD, p []byte, off int64) (int, error) {
	s := x.r.begin()
	n, err := x.t.ReadAt(fd, p, off)
	x.rec(cRead, s)
	return n, err
}

func (x *timedThread) WriteAt(fd fsapi.FD, p []byte, off int64) (int, error) {
	s := x.r.begin()
	n, err := x.t.WriteAt(fd, p, off)
	x.rec(cWrite, s)
	return n, err
}

func (x *timedThread) Fsync(fd fsapi.FD) error {
	s := x.r.begin()
	err := x.t.Fsync(fd)
	x.rec(cFsync, s)
	return err
}

func (x *timedThread) Unlink(p string) error {
	s := x.r.begin()
	err := x.t.Unlink(p)
	x.rec(cUnlink, s)
	return err
}

func (x *timedThread) Rmdir(p string) error {
	s := x.r.begin()
	err := x.t.Rmdir(p)
	x.r.end(lLibFS, s)
	return err
}

func (x *timedThread) Rename(o, n string) error {
	s := x.r.begin()
	err := x.t.Rename(o, n)
	x.rec(cRename, s)
	return err
}

func (x *timedThread) Stat(p string) (fsapi.Stat, error) {
	s := x.r.begin()
	st, err := x.t.Stat(p)
	x.rec(cStat, s)
	return st, err
}

func (x *timedThread) Readdir(p string) ([]string, error) {
	s := x.r.begin()
	names, err := x.t.Readdir(p)
	x.r.end(lLibFS, s)
	return names, err
}

func (x *timedThread) Truncate(p string, size uint64) error {
	s := x.r.begin()
	err := x.t.Truncate(p, size)
	x.r.end(lLibFS, s)
	return err
}

// timedFS hands out timed threads, so the LibFS calls kv makes
// internally are timed and traced like the benchmark's own.
type timedFS struct {
	app *arckfs.App
	r   *recorder
}

func (f *timedFS) Name() string { return f.app.Name() }

func (f *timedFS) NewThread(cpu int) fsapi.Thread {
	return &timedThread{t: f.app.NewThread(cpu), r: f.r}
}

// spanRec is one recorded span. Spans of one op share Op; Parent is the
// ID of the enclosing span, 0 for an op's root.
type spanRec struct {
	Op     uint64 `json:"op"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

type frame struct {
	id    uint32
	child int64 // time covered by closed child spans
}

// tracer records nested spans for one client and accumulates each
// layer's self time (span duration minus the time its children cover)
// as spans close, so per-layer totals cover every span even though only
// the first keptSpans are retained for the dump.
type tracer struct {
	op    uint64
	ids   uint32
	stack [8]frame
	depth int
	self  [nLayers]int64
	kept  []spanRec
}

func (t *tracer) push() {
	if t.depth == 0 {
		t.op++
	}
	t.ids++
	t.stack[t.depth] = frame{id: t.ids}
	t.depth++
}

func (t *tracer) pop(l layer, start, d int64) {
	t.depth--
	f := t.stack[t.depth]
	t.self[l] += d - f.child
	var parent uint32
	if t.depth > 0 {
		t.stack[t.depth-1].child += d
		parent = t.stack[t.depth-1].id
	}
	if len(t.kept) < cap(t.kept) {
		t.kept = append(t.kept, spanRec{Op: t.op, ID: f.id, Parent: parent, Layer: layerNames[l], Start: start, Dur: d})
	}
}

// writeSpans dumps the retained spans as JSON lines.
func writeSpans(w io.Writer, client int, t *tracer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.kept {
		if err := enc.Encode(struct {
			Client int `json:"client"`
			spanRec
		}{client, s}); err != nil {
			return err
		}
	}
	return nil
}

// pct returns the q-quantile (nearest rank) of samples in microseconds,
// or 0 for no samples. It sorts a copy.
func pct(samples []uint32, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(samples) == 0 {
		return out
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	for i, q := range qs {
		k := int(math.Ceil(q*float64(len(s)))) - 1
		k = max(0, min(k, len(s)-1))
		out[i] = float64(s[k]) / 1e3
	}
	return out
}

// emptyOp is the op the harness-cost loop runs. It is a package
// variable so the call stays an indirect call, as in a real run.
var emptyOp = func() error { return nil }

// harnessNSPerOp times the harness's own per-op work in the end-to-end
// run: the client loop around an op that does nothing.
func harnessNSPerOp() float64 {
	r := newRecorder(opsOnly)
	start := now()
	end := start + int64(200*time.Millisecond)
	clientLoop(emptyOp, r, start, end, end-start, 1)
	return float64(now()-start) / float64(len(r.ops))
}

func mismatch(format string, a ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errOracle}, a...)...)
}
