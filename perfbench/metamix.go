package main

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"arckfs"
	"arckfs/internal/fsapi"
)

// metaMix drives the LibFS metadata path: two clients, each a Thread of
// one app, each owning name slots in a private directory and in one
// shared directory. No slot is touched by two clients, so each client's
// slot model is exact without synchronisation.
type metaMix struct {
	seed    uint64
	slots   int // per client per directory
	sys     *arckfs.System
	app     *arckfs.App
	cl      [2]*mmClient
	payload []byte
}

// mmDir is one client's slots in one directory.
type mmDir struct {
	path  string
	names []string // base names
	paths []string // full paths
	live  []bool
	size  []uint64
	empty []uint32 // slots not live, for O(1) random choice
	pos   []int32  // index of a slot in empty, -1 when live
}

func (d *mmDir) fill(s uint32) {
	i := d.pos[s]
	last := d.empty[len(d.empty)-1]
	d.empty[i] = last
	d.pos[last] = i
	d.empty = d.empty[:len(d.empty)-1]
	d.pos[s] = -1
	d.live[s] = true
}

func (d *mmDir) drain(s uint32) {
	d.pos[s] = int32(len(d.empty))
	d.empty = append(d.empty, s)
	d.live[s] = false
	d.size[s] = 0
}

type mmOp struct {
	slot uint32
	pick uint32 // chooses the rename target among empty slots
	dir  uint8  // 0 private, 1 shared
	roll uint8  // 0..99
}

type mmClient struct {
	t    fsapi.Thread
	dirs [2]*mmDir
	ops  []mmOp
	next int
}

// opStreamLen is the length of each pregenerated op stream; a run that
// outlasts it wraps around. Slot state differs on the second pass, so
// the ops issued differ too.
const opStreamLen = 1 << 20

func newMetaMix(seed uint64) *metaMix { return &metaMix{seed: seed, slots: 16 << 10} }

func (w *metaMix) clients() int { return 2 }

func (w *metaMix) system() *arckfs.System { return w.sys }

func (w *metaMix) setup(recs []*recorder) error {
	// Slots drift to ~87% live (an empty slot is always created, a live
	// one is unlinked 15% of the time), and a written file holds a map
	// page and a data page.
	sys, err := arckfs.New(arckfs.Options{DevSize: 512 << 20, InodeCap: 1 << 17})
	if err != nil {
		return err
	}
	w.sys, w.app = sys, sys.NewApp()
	w.payload = make([]byte, 64)
	t := w.app.NewThread(0)
	for _, d := range []string{"/shared", "/p0", "/p1"} {
		if err := t.Mkdir(d); err != nil {
			return fmt.Errorf("mkdir %s: %w", d, err)
		}
	}
	rng := rand.New(rand.NewPCG(w.seed, 0x6d657461))
	for c := range w.cl {
		cl := &mmClient{t: recs[c].thread(w.app.NewThread(c))}
		for k, dir := range [2]string{fmt.Sprintf("/p%d", c), "/shared"} {
			d := &mmDir{
				path:  dir,
				names: make([]string, w.slots),
				paths: make([]string, w.slots),
				live:  make([]bool, w.slots),
				size:  make([]uint64, w.slots),
				empty: make([]uint32, 0, w.slots),
				pos:   make([]int32, w.slots),
			}
			for s := range d.names {
				d.names[s] = fmt.Sprintf("c%d-%05d", c, s)
				d.paths[s] = dir + "/" + d.names[s]
				d.drain(uint32(s))
			}
			for s := 0; s < w.slots; s++ {
				if rng.IntN(2) == 0 {
					continue
				}
				if err := t.Create(d.paths[s]); err != nil {
					return fmt.Errorf("populate %s: %w", d.paths[s], err)
				}
				d.fill(uint32(s))
			}
			cl.dirs[k] = d
		}
		cl.ops = make([]mmOp, opStreamLen)
		for i := range cl.ops {
			dir := uint8(0)
			if rng.IntN(4) == 0 {
				dir = 1
			}
			cl.ops[i] = mmOp{slot: uint32(rng.IntN(w.slots)), pick: rng.Uint32(), dir: dir, roll: uint8(rng.IntN(100))}
		}
		w.cl[c] = cl
	}
	return nil
}

func (w *metaMix) op(c int) func() error {
	cl := w.cl[c]
	return func() error {
		o := cl.ops[cl.next%len(cl.ops)]
		cl.next++
		d := cl.dirs[o.dir]
		s := o.slot
		path := d.paths[s]
		if !d.live[s] {
			if err := cl.t.Create(path); err != nil {
				return err
			}
			d.fill(s)
			return nil
		}
		switch {
		case o.roll < 40:
			st, err := cl.t.Stat(path)
			if err != nil {
				return err
			}
			if st.Size != d.size[s] {
				return mismatch("stat %s: size %d, model %d", path, st.Size, d.size[s])
			}
		case o.roll < 70:
			fd, err := cl.t.Open(path)
			if err != nil {
				return err
			}
			_, err = cl.t.WriteAt(fd, w.payload, 0)
			if cerr := cl.t.Close(fd); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			d.size[s] = uint64(len(w.payload))
		case o.roll < 85:
			// At the steady-state fill there are thousands of empty
			// slots; the list is never empty in practice.
			dst := d.empty[int(o.pick%uint32(len(d.empty)))]
			if err := cl.t.Rename(path, d.paths[dst]); err != nil {
				return err
			}
			size := d.size[s]
			d.drain(s)
			d.fill(dst)
			d.size[dst] = size
		default:
			if err := cl.t.Unlink(path); err != nil {
				return err
			}
			d.drain(s)
		}
		return nil
	}
}

// checkNS compares the namespace seen through t with the slot model:
// the same names in every directory and the same file sizes.
func (w *metaMix) checkNS(t fsapi.Thread) error {
	want := map[string][]string{}
	for _, cl := range w.cl {
		for _, d := range cl.dirs {
			for s, live := range d.live {
				if !live {
					continue
				}
				want[d.path] = append(want[d.path], d.names[s])
				st, err := t.Stat(d.paths[s])
				if err != nil {
					return mismatch("stat %s: %v", d.paths[s], err)
				}
				if st.Size != d.size[s] {
					return mismatch("%s: size %d, model %d", d.paths[s], st.Size, d.size[s])
				}
			}
		}
	}
	for dir, names := range want {
		got, err := t.Readdir(dir)
		if err != nil {
			return mismatch("readdir %s: %v", dir, err)
		}
		slices.Sort(got)
		slices.Sort(names)
		if !slices.Equal(got, names) {
			return mismatch("%s: %d entries, model %d", dir, len(got), len(names))
		}
	}
	return nil
}

func (w *metaMix) check() error { return w.checkNS(w.app.NewThread(0)) }

func (w *metaMix) shutdown() ([]byte, error) {
	if err := w.app.ReleaseAll(); err != nil {
		return nil, err
	}
	img := w.sys.Image()
	w.sys, w.app, w.cl[0].t, w.cl[1].t = nil, nil, nil, nil
	return img, nil
}

func (w *metaMix) checkRecovered(sys *arckfs.System) error {
	return w.checkNS(sys.NewApp().NewThread(0))
}

// corrupt flips one expected value of the model (used by the self-test).
func (w *metaMix) corrupt() {
	d := w.cl[0].dirs[0]
	d.live[0] = !d.live[0]
}
