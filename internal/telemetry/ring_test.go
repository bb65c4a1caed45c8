package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestRingWraparound(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 40; i++ {
		r.Record(EvAcquire, int64(i), uint64(i), 0, 0)
	}
	if r.Total() != 40 {
		t.Fatalf("Total = %d", r.Total())
	}
	evs := r.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("Snapshot holds %d events, want capacity 16", len(evs))
	}
	// The survivors are exactly the newest 16, oldest-first.
	for i, ev := range evs {
		if want := uint64(40 - 16 + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	if evs[0].Kind != EvAcquire || evs[0].App != int64(evs[0].Seq) {
		t.Fatalf("payload mangled: %+v", evs[0])
	}
}

func TestRingMinCapacityAndNil(t *testing.T) {
	r := NewRing(0)
	if r.Cap() < 16 {
		t.Fatalf("Cap = %d", r.Cap())
	}
	var nilRing *Ring
	nilRing.Record(EvRelease, 1, 2, 3, 4) // must not panic
	if nilRing.Snapshot() != nil || nilRing.Total() != 0 || nilRing.Cap() != 0 {
		t.Fatal("nil ring must read empty")
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(EvVerifyOK, int64(w), uint64(i), 1, 2)
			}
		}(w)
	}
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for i := 0; i < 200; i++ {
			for _, ev := range r.Snapshot() {
				_ = ev.String()
			}
		}
	}()
	wg.Wait()
	<-stop
	if r.Total() != 8000 {
		t.Fatalf("Total = %d", r.Total())
	}
	evs := r.Snapshot()
	if len(evs) != 64 {
		t.Fatalf("len = %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("snapshot not ordered: %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
}

// TestRingWraparoundConcurrentWriters drives many writers through
// several full wraps of a small ring, then settles it with a quiescent
// pass. During the storm every observed event must be internally
// consistent (no torn payloads — Snapshot skips a slot whose version
// word moved while it read the payload);
// after the settle pass the ring must hold exactly the newest window.
func TestRingWraparoundConcurrentWriters(t *testing.T) {
	const (
		capacity  = 32
		writers   = 16
		perWriter = 2000
	)
	r := NewRing(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Payload rule: Ino == uint64(A) + 1, B == A * 2. A torn
				// event would break it.
				a := int64(w*perWriter + i)
				r.Record(EvGrantPages, int64(w), uint64(a)+1, a, a*2)
			}
		}(w)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; i < 500; i++ {
			for _, ev := range r.Snapshot() {
				if ev.Ino != uint64(ev.A)+1 || ev.B != ev.A*2 {
					t.Errorf("torn event observed mid-storm: %+v", ev)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-readerDone
	if r.Total() != writers*perWriter {
		t.Fatalf("Total = %d, want %d", r.Total(), writers*perWriter)
	}

	// Quiescent settle: one writer records a full window. With no
	// concurrent claims in flight, the survivors must be exactly these.
	base := r.Total()
	for i := 0; i < capacity; i++ {
		a := int64(1 << 40)
		r.Record(EvReturnPages, 99, uint64(a)+1, a, a*2)
	}
	evs := r.Snapshot()
	if len(evs) != capacity {
		t.Fatalf("settled ring holds %d events, want %d", len(evs), capacity)
	}
	for i, ev := range evs {
		if want := base + uint64(i); ev.Seq != want {
			t.Fatalf("settled event %d has seq %d, want %d", i, ev.Seq, want)
		}
		if ev.App != 99 || ev.Kind != EvReturnPages {
			t.Fatalf("settled ring retained stale event: %+v", ev)
		}
	}
}

func TestRingRecordAllocsNothing(t *testing.T) {
	r := NewRing(16)
	allocs := testing.AllocsPerRun(100, func() {
		r.Record(EvAcquire, 1, 2, 3, 4)
	})
	if allocs != 0 {
		t.Fatalf("Record: %v allocs, want 0", allocs)
	}
}

func TestEventString(t *testing.T) {
	ev := Event{Seq: 3, Nanos: 1500000, Kind: EvLeaseExpire, App: 2, Ino: 7}
	if s := ev.String(); !strings.Contains(s, "lease-expire") || !strings.Contains(s, "ino=7") {
		t.Fatalf("String() = %q", s)
	}
	if EventKind(200).String() == "" {
		t.Fatal("unknown kind must render")
	}
}
