package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"arckfs"
	"arckfs/internal/kv"
)

const kvValue = 1 << 10

// kvZipf runs the LSM store on one app with one client. The store is
// driven by a single goroutine on purpose: kv.DB funnels every Get
// through its one maintenance Thread, so concurrent clients break the
// one-goroutine-per-Thread contract (see README.md).
type kvZipf struct {
	seed  uint64
	keys  int
	sys   *arckfs.System
	app   *arckfs.App
	db    *kv.DB
	r     *recorder
	names [][]byte
	ver   []uint32
	ops   []kvOp
	next  int
	val   []byte
	want  []byte
	user  int64 // key+value bytes put in the timed phase
}

type kvOp struct {
	key uint32
	put bool
}

func newKVZipf(seed uint64) *kvZipf { return &kvZipf{seed: seed, keys: 32 << 10} }

func (w *kvZipf) clients() int { return 1 }

func (w *kvZipf) system() *arckfs.System { return w.sys }

// value fills b with key k's version v: a stamp, then bytes derived from
// both, so a stale or mixed-up value cannot pass for the right one.
func value(b []byte, k int, v uint32) {
	binary.LittleEndian.PutUint32(b, uint32(k))
	binary.LittleEndian.PutUint32(b[4:], v)
	x := byte(k*31) ^ byte(v*7)
	for i := 8; i < len(b); i++ {
		b[i] = x + byte(i)
	}
}

func (w *kvZipf) checkValue(k int, got []byte) error {
	value(w.want, k, w.ver[k])
	if !bytes.Equal(got, w.want) {
		var gk, gv uint32
		if len(got) >= 8 {
			gk, gv = binary.LittleEndian.Uint32(got), binary.LittleEndian.Uint32(got[4:])
		}
		return mismatch("key %d: got (%d,v%d) len %d, model v%d", k, gk, gv, len(got), w.ver[k])
	}
	return nil
}

func (w *kvZipf) setup(recs []*recorder) error {
	sys, err := arckfs.New(arckfs.Options{DevSize: 256 << 20})
	if err != nil {
		return err
	}
	w.sys, w.app, w.r = sys, sys.NewApp(), recs[0]
	w.db, err = kv.Open(w.r.fs(w.app), kv.Options{Dir: "/db"})
	if err != nil {
		return err
	}
	w.val, w.want = make([]byte, kvValue), make([]byte, kvValue)
	w.names = make([][]byte, w.keys)
	w.ver = make([]uint32, w.keys)
	for k := range w.names {
		w.names[k] = []byte(fmt.Sprintf("key%08d", k))
	}
	rng := rand.New(rand.NewPCG(w.seed, 0x6b767a66))
	for _, k := range rng.Perm(w.keys) {
		value(w.val, k, 0)
		if err := w.db.Put(w.names[k], w.val); err != nil {
			return fmt.Errorf("load key %d: %w", k, err)
		}
	}
	// Zipf ranks map to keys through a permutation, so hot keys are
	// spread over the key space (and over SSTables) rather than
	// clustered at its start.
	rank := rng.Perm(w.keys)
	z := rand.NewZipf(rng, 1.1, 1, uint64(w.keys-1))
	w.ops = make([]kvOp, opStreamLen)
	for i := range w.ops {
		w.ops[i] = kvOp{key: uint32(rank[z.Uint64()]), put: rng.IntN(2) == 0}
	}
	return nil
}

func (w *kvZipf) op(int) func() error {
	return func() error {
		o := w.ops[w.next%len(w.ops)]
		w.next++
		k := int(o.key)
		if o.put {
			value(w.val, k, w.ver[k]+1)
			s := w.r.begin()
			err := w.db.Put(w.names[k], w.val)
			w.r.kv[0] = append(w.r.kv[0], w.r.end(lKV, s))
			if err != nil {
				return err
			}
			w.ver[k]++
			w.user += int64(len(w.names[k]) + len(w.val))
			return nil
		}
		s := w.r.begin()
		got, err := w.db.Get(w.names[k])
		w.r.kv[1] = append(w.r.kv[1], w.r.end(lKV, s))
		if err != nil {
			return err
		}
		return w.checkValue(k, got)
	}
}

func (w *kvZipf) checkDB(db *kv.DB) error {
	for k, name := range w.names {
		got, err := db.Get(name)
		if err != nil {
			return mismatch("get key %d: %v", k, err)
		}
		if err := w.checkValue(k, got); err != nil {
			return err
		}
	}
	return nil
}

func (w *kvZipf) check() error { return w.checkDB(w.db) }

func (w *kvZipf) tables() int {
	n := 0
	for _, t := range w.db.Stats() {
		n += t
	}
	return n
}

func (w *kvZipf) shutdown() ([]byte, error) {
	if err := w.db.Close(); err != nil {
		return nil, err
	}
	if err := w.app.ReleaseAll(); err != nil {
		return nil, err
	}
	img := w.sys.Image()
	w.sys, w.app, w.db = nil, nil, nil
	return img, nil
}

// checkRecovered reopens the store on the recovered system, which
// replays its manifest and WAL, and reads every key back.
func (w *kvZipf) checkRecovered(sys *arckfs.System) error {
	app := sys.NewApp()
	db, err := kv.Open(app, kv.Options{Dir: "/db"})
	if err != nil {
		return mismatch("reopen: %v", err)
	}
	if err := w.checkDB(db); err != nil {
		return err
	}
	return db.Close()
}

func (w *kvZipf) corrupt() { w.ver[0]++ }
