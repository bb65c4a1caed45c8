// Command perfbench is the repository benchmark: three closed-loop
// ArckFS+ workloads, each checked against a model of what the file
// system must hold, timed from outside through the public API with the
// cost model off, with the Optane/syscall cost the paper's model would
// add reported separately as a ledger of counter deltas times prices.
//
//	perfbench --workload meta-mix|share-pingpong|kv-zipf --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics, from one untraced run plus one traced run. The last
// line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"arckfs"
	"arckfs/internal/telemetry"
)

// workload is one benchmark input: a formatted and populated system, a
// closed-loop op per client, and a model the outputs are checked against.
type workload interface {
	// setup formats a fresh system and populates it from the seed.
	// Client threads record into recs.
	setup(recs []*recorder) error
	clients() int
	// op returns client c's next-op function; it runs on one goroutine.
	op(c int) func() error
	system() *arckfs.System
	// check compares the live system with the model.
	check() error
	// shutdown, called after check, releases everything to the kernel
	// and returns the image
	// of the cleanly stopped device. It drops the live system, so that
	// recovery does not hold two devices at once.
	shutdown() ([]byte, error)
	// checkRecovered compares a system recovered from that image with
	// the model.
	checkRecovered(sys *arckfs.System) error
	// corrupt changes one expected value of the model.
	corrupt()
}

var workloads = map[string]func(seed uint64) workload{
	"meta-mix":       func(s uint64) workload { return newMetaMix(s) },
	"share-pingpong": func(s uint64) workload { return newSharePingPong(s) },
	"kv-zipf":        func(s uint64) workload { return newKVZipf(s) },
}

// The untimed phases run at least minReps times and until they have
// taken minPhase in total (at most maxReps times). A timed run is split
// into windows of winLen.
const (
	minReps  = 5
	maxReps  = 30
	minPhase = time.Second
	winLen   = 250 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "meta-mix, share-pingpong or kv-zipf")
	seed := flag.Uint64("seed", 1, "input seed")
	secs := flag.Int("seconds", 10, "timed seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a traced run")
	out := flag.String("out", ".bench_build/perfbench", "directory for span dumps")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload meta-mix|share-pingpong|kv-zipf --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	printEnv(*name, *seed)
	b := &bench{mk: mk, seed: *seed, dur: time.Duration(*secs) * time.Second, res: result{Correct: true, Metrics: map[string]metric{}}}
	var err error
	if *trace == 0 {
		err = b.endToEnd()
	} else {
		err = b.perLayer(filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b.printMetrics()
	line, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !b.res.Correct {
		os.Exit(1)
	}
}

type bench struct {
	mk   func(uint64) workload
	seed uint64
	dur  time.Duration
	res  result
	info []string // lines printed before the metrics
}

func (b *bench) set(name string, v float64, unit string) {
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// note records a correctness failure found outside the timed ops.
func (b *bench) note(what string, err error) {
	if err == nil {
		return
	}
	b.res.Correct = false
	b.res.Failed++
	b.info = append(b.info, fmt.Sprintf("FAIL %s: %v", what, err))
}

func (b *bench) infof(format string, a ...any) {
	b.info = append(b.info, fmt.Sprintf(format, a...))
}

func newRecorders(n, mode int) []*recorder {
	recs := make([]*recorder, n)
	for i := range recs {
		recs[i] = newRecorder(mode)
	}
	return recs
}

// freshSetup builds a new workload instance and returns it with its
// set-up time. The previous instance must already be unreachable.
//
// The heap the previous instance freed is reused rather than returned
// to the OS: faulting in a fresh device costs about 0.8 ms per MiB on a
// KVM guest, and that cost varies with the host's memory state.
func (b *bench) freshSetup(recs []*recorder) (workload, float64, error) {
	runtime.GC()
	w := b.mk(b.seed)
	start := time.Now()
	err := w.setup(recs)
	d := time.Since(start).Seconds()
	for _, r := range recs {
		r.reset()
	}
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return w, d, nil
}

type runResult struct {
	ops, failed int64
	secs        float64
	nWin        int
	winSecs     float64
	cpuSecs     float64
	delta       map[string]int64
	mem         [2]runtime.MemStats
	recs        []*recorder
}

func (r runResult) opsPerS() float64 { return float64(r.ops) / r.secs }

// windowStats summarises a timed run window by window (an op belongs
// to the window it completed in).
type windowStats struct {
	rate, p50, p99 float64 // medians over the least-stolen windows
	ran, ranAll    float64 // median running share: those windows, all windows
	used, minN     int     // windows used; fewest samples in one
}

// windowed picks the quarter of the run's windows in which the process
// was running on a CPU for the largest share of the window, and returns
// the median throughput, p50 and p99 over them.
//
// On a shared host the hypervisor takes vCPUs away for stretches of a
// second or more: on a 2-vCPU KVM guest, steal ran between 3% and 30%
// per second, and a CPU-bound loop's throughput swung by 40% within a
// minute while its throughput per CPU-second stayed within 7%. Stolen
// time does not advance the process's CPU time, so the running share
// (process CPU time ÷ wall time) ranks windows by how little they were
// disturbed, and the figures repeat from run to run. Pinning each
// client to its own thread would measure per client, but cost meta-mix
// about 10% of its throughput.
func (r runResult) windowed() windowStats {
	type window struct{ rate, p50, p99, ran float64 }
	ws := make([]window, r.nWin)
	var all []float64
	st := windowStats{minN: -1}
	for k := range ws {
		var bufs [][]uint32
		ran := math.Inf(1)
		for _, rec := range r.recs {
			bufs = append(bufs, rec.window(k))
			if k < len(rec.ran) {
				ran = min(ran, rec.ran[k])
			}
		}
		w := slices.Concat(bufs...)
		q := pct(w, 0.5, 0.99)
		ws[k] = window{float64(len(w)) / r.winSecs, q[0], q[1], ran}
		all = append(all, ran)
		if st.minN < 0 || len(w) < st.minN {
			st.minN = len(w)
		}
	}
	slices.SortStableFunc(ws, func(a, b window) int { return cmp.Compare(b.ran, a.ran) })
	ws = ws[:max(1, len(ws)/4)]
	var rate, p50, p99, ran []float64
	for _, w := range ws {
		rate, p50, p99, ran = append(rate, w.rate), append(p50, w.p50), append(p99, w.p99), append(ran, w.ran)
	}
	st.rate, st.p50, st.p99 = median(rate), median(p50), median(p99)
	st.ran, st.ranAll, st.used = median(ran), median(all), len(ws)
	return st
}

func (r runResult) merged(pick func(*recorder) []uint32) []uint32 {
	bufs := make([][]uint32, len(r.recs))
	for i, rec := range r.recs {
		bufs[i] = pick(rec)
	}
	return slices.Concat(bufs...)
}

// timed runs every client's closed loop for dur.
func (b *bench) timed(w workload, recs []*recorder, dur time.Duration) runResult {
	// Return freed heap to the OS now, so the runtime's background
	// scavenger has nothing left to release during the run.
	debug.FreeOSMemory()
	res := runResult{recs: recs}
	runtime.ReadMemStats(&res.mem[0])
	before := w.system().Telemetry().Snapshot()
	cpu0 := cpuSecs()
	start := now()
	deadline := start + int64(dur)
	res.nWin = max(1, int(dur/winLen))
	win := int64(dur) / int64(res.nWin)
	res.winSecs = float64(win) / 1e9
	var wg sync.WaitGroup
	for c, r := range recs {
		op := w.op(c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			clientLoop(op, r, start, deadline, win, res.nWin)
		}()
	}
	wg.Wait()
	res.secs = float64(now()-start) / 1e9
	res.cpuSecs = cpuSecs() - cpu0
	res.delta = telemetry.Delta(before, w.system().Telemetry().Snapshot())
	runtime.ReadMemStats(&res.mem[1])
	for _, r := range recs {
		res.ops += int64(len(r.ops))
		res.failed += r.failed
	}
	return res
}

// clientLoop runs op back to back until an op ends after deadline,
// recording each op's latency, where each window of win ns begins, and
// each window's running share.
func clientLoop(op func() error, r *recorder, start, deadline, win int64, nWin int) {
	next := start + win
	t0, c0 := start, processCPU()
	for done := int64(0); done < deadline; {
		s := r.begin()
		err := op()
		d := r.end(lBench, s)
		r.ops = append(r.ops, d)
		done = s + int64(d)
		if err != nil {
			r.fail(err)
		}
		for done >= next && len(r.marks) < nWin-1 {
			r.marks = append(r.marks, len(r.ops))
			t0, c0 = r.closeWindow(t0, c0)
			next += win
		}
	}
	r.closeWindow(t0, c0)
}

// account adds a run's ops to the result and reports its failures.
func (b *bench) account(what string, run runResult) {
	b.res.Attempted += run.ops
	b.res.Failed += run.failed
	if run.failed > 0 {
		b.res.Correct = false
		for _, r := range run.recs {
			for _, err := range r.errs {
				b.infof("FAIL %s op: %v", what, err)
			}
		}
	}
}

// finish checks the live system, stops it cleanly, checks the image
// with Fsck, and recovers it repeatedly, checking the first recovered
// system against the model. It returns the shortest recovery time: the
// repetitions do identical work, so the shortest is the one a stolen
// vCPU (see windowed) disturbed least.
func (b *bench) finish(w workload) float64 {
	b.note("live oracle", w.check())
	img, err := w.shutdown()
	if err != nil {
		b.note("shutdown", err)
		return 0
	}
	rep, err := arckfs.Fsck(img)
	if err == nil && !rep.Clean() {
		err = fmt.Errorf("fsck reports repairs: %v", rep)
	}
	b.note("fsck", err)
	first := true
	times, err := repeat(func() (float64, error) {
		runtime.GC()
		start := time.Now()
		sys, rep, err := arckfs.Recover(img, arckfs.Options{})
		d := time.Since(start).Seconds()
		if err != nil {
			return 0, err
		}
		if first {
			first = false
			if !rep.Clean() {
				b.note("recover", fmt.Errorf("recovery repaired: %v", rep))
			}
			b.note("recovered oracle", w.checkRecovered(sys))
		}
		return d, nil
	})
	b.note("recover", err)
	b.infof("recover_s runs: %s", fmtF(times))
	if len(times) == 0 {
		return 0
	}
	return slices.Min(times)
}

// endToEnd measures the metrics a user of the file system sees.
func (b *bench) endToEnd() error {
	recs := newRecorders(b.mk(b.seed).clients(), opsOnly)
	var w workload
	setups, err := repeat(func() (float64, error) {
		w = nil
		nw, d, err := b.freshSetup(recs)
		w = nw
		return d, err
	})
	if err != nil {
		return err
	}
	run := b.timed(w, recs, b.dur)
	b.account("timed", run)
	ops := run.merged(func(r *recorder) []uint32 { return r.ops })
	q := pct(ops, 0.5, 0.99)
	ws := run.windowed()
	lg := buildLedger(run.delta, run.ops)
	b.set("ops_per_s", ws.rate, "1/s")
	b.set("p50_us", ws.p50, "us")
	b.set("p99_us", ws.p99, "us")
	b.set("setup_s", median(setups), "s")
	b.set("model_us_per_op", lg.totalUS, "us")
	b.set("recover_s", b.finish(w), "s")
	b.infof("ops %d in %.3f s, failed %d, fail_ratio %g", run.ops, run.secs, run.failed, float64(run.failed)/float64(run.ops))
	b.infof("ops_per_s, p50_us, p99_us: medians over the %d of %d windows (>= %d samples each) with the highest running share (median %.3f; all windows %.3f); whole run: %.1f ops/s, p50 %.3f us, p99 %.3f us over %d samples",
		ws.used, run.nWin, ws.minN, ws.ran, ws.ranAll, run.opsPerS(), q[0], q[1], len(ops))
	b.infof("setup_s runs: %s", fmtF(setups))
	b.infof("model ledger (ns/op): %v; unmeasured: %v", lg.terms, lg.unmeasured)
	return nil
}

// perLayer measures one untraced run for counts and per-call latency,
// then a traced run of half the length for per-layer self time.
func (b *bench) perLayer(spanPath string) error {
	harness := harnessNSPerOp()
	recs := newRecorders(b.mk(b.seed).clients(), perCall)
	w, _, err := b.freshSetup(recs)
	if err != nil {
		return err
	}
	run := b.timed(w, recs, b.dur)
	b.account("timed", run)
	b.layerMetrics(w, run, harness)
	b.finish(w)
	w = nil

	trecs := newRecorders(len(recs), traced)
	tw, _, err := b.freshSetup(trecs)
	if err != nil {
		return err
	}
	trun := b.timed(tw, trecs, b.dur/2)
	b.account("traced", trun)
	b.note("traced live oracle", tw.check())
	var self [nLayers]int64
	for _, r := range trecs {
		for l := range self {
			self[l] += r.tr.self[l]
		}
	}
	for l := lBench; l < nLayers; l++ {
		b.set("trace."+layerNames[l]+".self_us_per_op", float64(self[l])/1e3/float64(trun.ops), "us")
	}
	b.set("trace.overhead_ratio", trun.opsPerS()/run.opsPerS(), "ratio")
	return dumpSpans(spanPath, trecs)
}

func dumpSpans(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for c, r := range recs {
		if err := writeSpans(f, c, r.tr); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

var pmemCounters = []string{"flushes", "fences", "ntstores", "stores", "bytes", "batch_dedup"}

func (b *bench) layerMetrics(w workload, run runResult, harnessNS float64) {
	d, ops := run.delta, float64(run.ops)
	per := func(name string) float64 { return float64(d[name]) / ops }
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	lat := func(prefix string, samples []uint32) {
		q := pct(samples, 0.5, 0.99)
		b.set(prefix+".p50_us", q[0], "us")
		b.set(prefix+".p99_us", q[1], "us")
	}
	for c := cCreate; c < nCalls; c++ {
		lat("libfs."+callNames[c], run.merged(func(r *recorder) []uint32 { return r.calls[c] }))
	}
	b.set("libfs.remaps_per_op", per("libfs.remaps"), "1/op")
	b.set("libfs.reacquires_per_op", per("libfs.reacquires"), "1/op")
	b.set("htable.read_locks_per_op", per("htable.read_locks"), "1/op")
	for _, c := range pmemCounters {
		unit := "1/op"
		if c == "bytes" {
			unit = "B/op"
		}
		b.set("pmem."+c+"_per_op", per("pmem."+c), unit)
	}
	b.set("pmalloc.steals_per_op", float64(d["pmalloc.steals.local"]+d["pmalloc.steals.remote"])/ops, "1/op")
	b.set("kernel.syscalls_per_op", per("kernel.syscalls"), "1/op")
	b.set("kernel.acquires_per_op", per("kernel.acquires"), "1/op")
	b.set("kernel.releases_per_op", per("kernel.releases"), "1/op")
	b.set("kernel.syscalls_avoided_per_op", per("syscalls.avoided"), "1/op")
	b.set("kernel.lease_hit_ratio", ratio(d["leases.hit"], d["leases.hit"]+d["leases.miss"]), "ratio")
	b.set("kernel.shard_contended_ratio", ratio(d["kernel.shard.contended"], d["kernel.shard.acquisitions"]), "ratio")
	lat("kernel.release", run.merged(func(r *recorder) []uint32 { return r.rel }))
	b.set("verifier.verifications_per_op", per("kernel.verifications"), "1/op")
	b.set("verifier.pages_per_op", per("verifier.pages"), "1/op")
	b.set("verifier.dentries_per_op", per("verifier.dentries"), "1/op")
	b.set("verifier.failures", float64(d["kernel.verify_failures"]), "count")
	if d["kernel.verify_failures"] != 0 {
		b.note("verifier", fmt.Errorf("%d verification failures", d["kernel.verify_failures"]))
	}
	lat("kv.put", run.merged(func(r *recorder) []uint32 { return r.kv[0] }))
	lat("kv.get", run.merged(func(r *recorder) []uint32 { return r.kv[1] }))
	var amp, tables float64
	if kw, ok := w.(*kvZipf); ok {
		amp, tables = ratio(d["pmem.bytes"], kw.user), float64(kw.tables())
	}
	b.set("kv.write_amp", amp, "ratio")
	b.set("kv.tables", tables, "count")
	lg := buildLedger(d, run.ops)
	for name, ns := range lg.terms {
		b.set("model."+name+"_ns_per_op", ns, "ns/op")
	}
	m0, m1 := run.mem[0], run.mem[1]
	b.set("go.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/ops, "1/op")
	b.set("go.bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/ops, "B/op")
	b.set("go.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")
	b.set("go.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	b.set("go.cpu_us_per_op", run.cpuSecs*1e6/ops, "us")
	b.set("bench.harness_ns_per_op", harnessNS, "ns/op")
	all := run.merged(func(r *recorder) []uint32 { return r.ops })
	b.set("tail.p999_us", pct(all, 0.999)[0], "us")
	b.infof("untraced: ops %d in %.3f s (%.0f ops/s), failed %d; model_us_per_op %.4f = sum of model.* terms; unmeasured primitives %v",
		run.ops, run.secs, run.opsPerS(), run.failed, lg.totalUS, lg.unmeasured)
	b.infof("tail.p999_us over %d samples", len(all))
}

// printEnv records what the numbers were measured on.
func printEnv(name string, seed uint64) {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	env, _ := json.Marshal(map[string]any{
		"workload":         name,
		"seed":             seed,
		"commit":           commit,
		"go":               runtime.Version(),
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"cost_model":       "off",
		"persist_schedule": "batched",
	})
	fmt.Println("env", string(env))
}

func (b *bench) printMetrics() {
	for _, l := range b.info {
		fmt.Println(l)
	}
	names := make([]string, 0, len(b.res.Metrics))
	for n := range b.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.res.Metrics[n]
		fmt.Printf("%-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

func fmtF(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(s, " ")
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	return (s[(n-1)/2] + s[n/2]) / 2
}

// repeat runs f at least minReps times and until the runs have taken
// minPhase, at most maxReps times, and returns its values.
func repeat(f func() (float64, error)) ([]float64, error) {
	var vals []float64
	start := time.Now()
	for len(vals) < minReps || (time.Since(start) < minPhase && len(vals) < maxReps) {
		v, err := f()
		if err != nil {
			return vals, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// cpuSecs returns the CPU time the process has used.
func cpuSecs() float64 { return processCPU().Seconds() }

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
