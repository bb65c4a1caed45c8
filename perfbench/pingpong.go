package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"time"

	"arckfs"
	"arckfs/internal/fsapi"
)

const (
	ppBlock  = 4 << 10
	ppBlocks = 16 // 64 KiB files
)

// sharePingPong makes every op an ownership transfer: one client
// alternates between two apps, and each op ends by releasing the file
// to the kernel, so the other app's next touch of it acquires it back
// through verification.
type sharePingPong struct {
	seed   uint64
	files  int
	sys    *arckfs.System
	apps   [2]*arckfs.App
	t      [2]fsapi.Thread
	reader *arckfs.App // reads the data back after the run
	r      *recorder
	paths  []string
	ver    [][ppBlocks]uint32 // last stamp written per block
	ops    []ppOp
	next   int
	buf    []byte
}

type ppOp struct {
	file  uint16
	block uint8
	write bool
}

func newSharePingPong(seed uint64) *sharePingPong {
	return &sharePingPong{seed: seed, files: 256}
}

func (w *sharePingPong) clients() int { return 1 }

func (w *sharePingPong) system() *arckfs.System { return w.sys }

// stamp fills a block with its identity and version at both ends, so a
// torn or misdirected write shows.
func stamp(b []byte, file, block int, ver uint32) {
	for _, off := range [2]int{0, len(b) - 12} {
		binary.LittleEndian.PutUint32(b[off:], uint32(file))
		binary.LittleEndian.PutUint32(b[off+4:], uint32(block))
		binary.LittleEndian.PutUint32(b[off+8:], ver)
	}
}

func checkStamp(b []byte, file, block int, ver uint32) error {
	for _, off := range [2]int{0, len(b) - 12} {
		f := binary.LittleEndian.Uint32(b[off:])
		k := binary.LittleEndian.Uint32(b[off+4:])
		v := binary.LittleEndian.Uint32(b[off+8:])
		if f != uint32(file) || k != uint32(block) || v != ver {
			return mismatch("file %d block %d @%d: read (%d,%d,v%d), model v%d", file, block, off, f, k, v, ver)
		}
	}
	return nil
}

func (w *sharePingPong) setup(recs []*recorder) error {
	// No lease may lapse within a run: a lapse would add an involuntary
	// transfer at a point set by --seconds rather than by the inputs,
	// and App.ReleaseAll fails after one (README.md, Known defects).
	sys, err := arckfs.New(arckfs.Options{DevSize: 128 << 20, LeaseTTL: time.Hour})
	if err != nil {
		return err
	}
	w.sys = sys
	w.r = recs[0]
	for i := range w.apps {
		w.apps[i] = sys.NewApp()
		w.t[i] = w.r.thread(w.apps[i].NewThread(0))
	}
	w.buf = make([]byte, ppBlock)
	t := w.apps[0].NewThread(0)
	if err := t.Mkdir("/shared"); err != nil {
		return err
	}
	w.paths = make([]string, w.files)
	w.ver = make([][ppBlocks]uint32, w.files)
	for f := range w.paths {
		w.paths[f] = fmt.Sprintf("/shared/f%03d", f)
		if err := t.Create(w.paths[f]); err != nil {
			return err
		}
		fd, err := t.Open(w.paths[f])
		if err != nil {
			return err
		}
		for b := 0; b < ppBlocks; b++ {
			stamp(w.buf, f, b, 0)
			if _, err := t.WriteAt(fd, w.buf, int64(b*ppBlock)); err != nil {
				return err
			}
		}
		if err := t.Close(fd); err != nil {
			return err
		}
	}
	if err := w.apps[0].ReleaseAll(); err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(w.seed, 0x70696e67))
	w.ops = make([]ppOp, opStreamLen)
	for i := range w.ops {
		w.ops[i] = ppOp{file: uint16(rng.IntN(w.files)), block: uint8(rng.IntN(ppBlocks)), write: rng.IntN(2) == 0}
	}
	return nil
}

func (w *sharePingPong) op(int) func() error {
	return func() error {
		o := w.ops[w.next%len(w.ops)]
		side := w.next & 1
		w.next++
		t, path := w.t[side], w.paths[o.file]
		f, b := int(o.file), int(o.block)
		fd, err := t.Open(path)
		if err != nil {
			return err
		}
		var ioErr error
		if o.write {
			stamp(w.buf, f, b, w.ver[f][b]+1)
			_, ioErr = t.WriteAt(fd, w.buf, int64(b*ppBlock))
			if ioErr == nil {
				w.ver[f][b]++
			}
		} else {
			_, ioErr = t.ReadAt(fd, w.buf, int64(b*ppBlock))
			if ioErr == nil {
				ioErr = checkStamp(w.buf, f, b, w.ver[f][b])
			}
		}
		if err := t.Close(fd); err != nil && ioErr == nil {
			ioErr = err
		}
		s := w.r.begin()
		err = w.apps[side].Release(path)
		w.r.rel = append(w.r.rel, w.r.end(lKernel, s))
		if ioErr != nil {
			return ioErr
		}
		return err
	}
}

// checkData reads every block through t and compares its stamp with the
// model.
func (w *sharePingPong) checkData(t fsapi.Thread) error {
	buf := make([]byte, ppBlock)
	for f, path := range w.paths {
		fd, err := t.Open(path)
		if err != nil {
			return mismatch("open %s: %v", path, err)
		}
		for b := 0; b < ppBlocks; b++ {
			if _, err := t.ReadAt(fd, buf, int64(b*ppBlock)); err != nil {
				return mismatch("read %s: %v", path, err)
			}
			if err := checkStamp(buf, f, b, w.ver[f][b]); err != nil {
				return err
			}
		}
		if err := t.Close(fd); err != nil {
			return err
		}
	}
	return nil
}

// check releases both apps and reads everything back through a third;
// while one app holds the root directory the other cannot acquire it.
func (w *sharePingPong) check() error {
	for _, a := range w.apps {
		if err := a.ReleaseAll(); err != nil {
			return fmt.Errorf("release: %w", err)
		}
	}
	w.reader = w.sys.NewApp()
	return w.checkData(w.reader.NewThread(0))
}

func (w *sharePingPong) shutdown() ([]byte, error) {
	for _, a := range []*arckfs.App{w.apps[0], w.apps[1], w.reader} {
		if a == nil {
			continue
		}
		if err := a.ReleaseAll(); err != nil {
			return nil, err
		}
	}
	img := w.sys.Image()
	w.sys, w.apps, w.t, w.reader = nil, [2]*arckfs.App{}, [2]fsapi.Thread{}, nil
	return img, nil
}

func (w *sharePingPong) checkRecovered(sys *arckfs.System) error {
	return w.checkData(sys.NewApp().NewThread(0))
}

func (w *sharePingPong) corrupt() { w.ver[0][0]++ }
