package main

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"arckfs"
)

// small returns each workload shrunk so a test runs in well under a
// second; the op paths and the oracles are the benchmark's own.
func small(name string) workload {
	switch name {
	case "meta-mix":
		w := newMetaMix(7)
		w.slots = 256
		return w
	case "share-pingpong":
		w := newSharePingPong(7)
		w.files = 8
		return w
	default:
		w := newKVZipf(7)
		w.keys = 2048
		return w
	}
}

func names() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

func runSmall(t *testing.T, name string, mode int) (workload, *bench) {
	t.Helper()
	w := small(name)
	recs := newRecorders(w.clients(), mode)
	if err := w.setup(recs); err != nil {
		t.Fatalf("setup: %v", err)
	}
	for _, r := range recs {
		r.reset()
	}
	b := &bench{dur: 100 * time.Millisecond}
	run := b.timed(w, recs, b.dur)
	if run.ops == 0 || run.failed != 0 {
		t.Fatalf("timed run: %d ops, %d failed: %v", run.ops, run.failed, recs[0].errs)
	}
	return w, b
}

// TestOracleTrips checks that each workload's live and recovered checks
// pass on an honest run and fail once one expected value is corrupted.
func TestOracleTrips(t *testing.T) {
	for _, name := range names() {
		t.Run(name+"/live", func(t *testing.T) {
			w, _ := runSmall(t, name, perCall)
			if err := w.check(); err != nil {
				t.Fatalf("honest live check: %v", err)
			}
			w.corrupt()
			if err := w.check(); !errors.Is(err, errOracle) {
				t.Fatalf("corrupted live check returned %v, want an oracle mismatch", err)
			}
		})
		t.Run(name+"/recovered", func(t *testing.T) {
			w, _ := runSmall(t, name, traced)
			if err := w.check(); err != nil {
				t.Fatalf("honest live check: %v", err)
			}
			img, err := w.shutdown()
			if err != nil {
				t.Fatal(err)
			}
			sys, rep, err := arckfs.Recover(img, arckfs.Options{})
			if err != nil || !rep.Clean() {
				t.Fatalf("recover: %v %v", rep, err)
			}
			if err := w.checkRecovered(sys); err != nil {
				t.Fatalf("honest recovered check: %v", err)
			}
			w.corrupt()
			if err := w.checkRecovered(sys); !errors.Is(err, errOracle) {
				t.Fatalf("corrupted recovered check returned %v, want an oracle mismatch", err)
			}
		})
	}
}

// TestLedgerSums checks that the model terms add up to the total and
// that primitives without a counter are listed, not priced.
func TestLedgerSums(t *testing.T) {
	d := map[string]int64{
		"kernel.syscalls": 7, "pmem.flushes": 30, "pmem.fences": 11, "pmem.bytes": 9000,
		"pmem.ntstores": 40, "verifier.dentries": 5, "verifier.pages": 3, "pmalloc.steals.remote": 2,
	}
	l := buildLedger(d, 10)
	sum := 0.0
	for _, ns := range l.terms {
		sum += ns
	}
	if math.Abs(sum/1e3-l.totalUS) > 1e-9 || l.totalUS == 0 {
		t.Fatalf("terms sum to %v ns, total %v us", sum, l.totalUS)
	}
	for _, f := range []string{"MapNS", "UnmapNS"} {
		if !slices.Contains(l.unmeasured, f) {
			t.Errorf("%s not listed as unmeasured: %v", f, l.unmeasured)
		}
	}
}
