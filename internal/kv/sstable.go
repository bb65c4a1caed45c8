package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"arckfs/internal/fsapi"
)

// SSTable format (all little-endian):
//
//	entries:  [klen u32][vlen u32][key][value]...   (vlen 0xFFFFFFFF = tombstone)
//	index:    [klen u32][key][offset u64]...        (every indexStride-th entry)
//	footer:   indexOff u64 | indexCount u32 | entryCount u32 | smallest/largest key lens u32 u32 | magic u64
//
// The footer is fixed-size at the end of the file; smallest/largest keys
// directly precede it.
const (
	tombstoneLen = uint32(0xFFFFFFFF)
	indexStride  = 16
	ssMagic      = uint64(0x5353544142663031)
	footerSize   = 8 + 4 + 4 + 4 + 4 + 8
)

// tableMeta describes one on-FS table.
type tableMeta struct {
	file     string
	smallest []byte
	largest  []byte
	entries  int
}

// tableBuilder encodes one table in memory. The DB owns one and reuses
// its buffers for every flush and compaction, so once they have grown
// to the largest table written, building a table allocates nothing.
type tableBuilder struct {
	data []byte // entries, then (after finish) index, trailer and footer
	idx  []byte
	// Offset and length of the first and last key in data.
	firstOff, firstLen int
	lastOff, lastLen   int
	count              int
}

// reset empties b and grows its buffers for about sizeHint bytes of
// entries. An index entry is at most 12/8 of the entry it points at and
// covers 1 in indexStride entries, so sizeHint/8 bounds the index.
func (b *tableBuilder) reset(sizeHint int) {
	*b = tableBuilder{
		data: slices.Grow(b.data[:0], sizeHint+sizeHint/8+footerSize),
		idx:  slices.Grow(b.idx[:0], sizeHint/8),
	}
}

// add appends one entry. Keys must arrive in strictly increasing order.
func (b *tableBuilder) add(key, val []byte, del bool) {
	if b.count%indexStride == 0 {
		b.idx = binary.LittleEndian.AppendUint32(b.idx, uint32(len(key)))
		b.idx = append(b.idx, key...)
		b.idx = binary.LittleEndian.AppendUint64(b.idx, uint64(len(b.data)))
	}
	vlen := uint32(len(val))
	if del {
		vlen = tombstoneLen
	}
	b.data = binary.LittleEndian.AppendUint32(b.data, uint32(len(key)))
	b.data = binary.LittleEndian.AppendUint32(b.data, vlen)
	if b.count == 0 {
		b.firstOff, b.firstLen = len(b.data), len(key)
	}
	b.lastOff, b.lastLen = len(b.data), len(key)
	b.data = append(b.data, key...)
	if !del {
		b.data = append(b.data, val...)
	}
	b.count++
}

// finish appends the index, trailer and footer to the entries and
// returns the whole file image, which stays valid until the next reset.
func (b *tableBuilder) finish() []byte {
	indexOff := len(b.data)
	indexCount := (b.count + indexStride - 1) / indexStride
	b.data = append(b.data, b.idx...)
	// Trailer: smallest key, largest key, footer.
	b.data = append(b.data, b.smallest()...)
	b.data = append(b.data, b.largest()...)
	b.data = binary.LittleEndian.AppendUint64(b.data, uint64(indexOff))
	b.data = binary.LittleEndian.AppendUint32(b.data, uint32(indexCount))
	b.data = binary.LittleEndian.AppendUint32(b.data, uint32(b.count))
	b.data = binary.LittleEndian.AppendUint32(b.data, uint32(b.firstLen))
	b.data = binary.LittleEndian.AppendUint32(b.data, uint32(b.lastLen))
	b.data = binary.LittleEndian.AppendUint64(b.data, ssMagic)
	return b.data
}

func (b *tableBuilder) smallest() []byte { return b.data[b.firstOff : b.firstOff+b.firstLen] }
func (b *tableBuilder) largest() []byte  { return b.data[b.lastOff : b.lastOff+b.lastLen] }

// writeTable writes the table b holds to path via t, with one WriteAt
// and one Fsync, and returns its meta.
func writeTable(t fsapi.Thread, path string, b *tableBuilder) (*tableMeta, error) {
	if err := t.Create(path); err != nil {
		return nil, err
	}
	fd, err := t.Open(path)
	if err != nil {
		return nil, err
	}
	defer t.Close(fd)
	img := b.finish()
	if _, err := t.WriteAt(fd, img, 0); err != nil {
		return nil, err
	}
	if err := t.Fsync(fd); err != nil {
		return nil, err
	}
	return &tableMeta{file: path, smallest: bytes.Clone(b.smallest()), largest: bytes.Clone(b.largest()), entries: b.count}, nil
}

// cursor walks the entries of a table's data section (or of one index
// block of it) in key order. key and val alias the walked buffer.
type cursor struct {
	data []byte
	pos  int
	key  []byte
	val  []byte
	del  bool
}

// next advances to the next entry and reports whether there is one.
func (c *cursor) next() bool {
	if c.pos+8 > len(c.data) {
		return false
	}
	kl := int(binary.LittleEndian.Uint32(c.data[c.pos:]))
	vl := binary.LittleEndian.Uint32(c.data[c.pos+4:])
	c.pos += 8
	c.key = c.data[c.pos : c.pos+kl]
	c.pos += kl
	c.del = vl == tombstoneLen
	c.val = nil
	if !c.del {
		c.val = c.data[c.pos : c.pos+int(vl)]
		c.pos += int(vl)
	}
	return true
}

// tableReader serves point lookups and scans from one table. It keeps
// the sparse index in memory, as LevelDB keeps index blocks cached.
type tableReader struct {
	t        fsapi.Thread
	fd       fsapi.FD
	meta     *tableMeta
	idxKeys  [][]byte
	idxOffs  []uint64
	dataSize int64
}

func openTable(t fsapi.Thread, meta *tableMeta) (*tableReader, error) {
	fd, err := t.Open(meta.file)
	if err != nil {
		return nil, err
	}
	st, err := t.Stat(meta.file)
	if err != nil {
		return nil, err
	}
	if st.Size < footerSize {
		return nil, fmt.Errorf("kv: table %s too short", meta.file)
	}
	foot := make([]byte, footerSize)
	if _, err := t.ReadAt(fd, foot, int64(st.Size)-footerSize); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(foot[24:]) != ssMagic {
		return nil, fmt.Errorf("kv: table %s bad magic", meta.file)
	}
	indexOff := int64(binary.LittleEndian.Uint64(foot[0:]))
	indexCount := int(binary.LittleEndian.Uint32(foot[8:]))
	smallLen := int64(binary.LittleEndian.Uint32(foot[16:]))
	largeLen := int64(binary.LittleEndian.Uint32(foot[20:]))
	idxLen := int64(st.Size) - footerSize - smallLen - largeLen - indexOff
	idxBuf := make([]byte, idxLen)
	if _, err := t.ReadAt(fd, idxBuf, indexOff); err != nil {
		return nil, err
	}
	r := &tableReader{t: t, fd: fd, meta: meta, dataSize: indexOff}
	pos := 0
	for i := 0; i < indexCount; i++ {
		if pos+4 > len(idxBuf) {
			return nil, fmt.Errorf("kv: table %s truncated index", meta.file)
		}
		kl := int(binary.LittleEndian.Uint32(idxBuf[pos:]))
		pos += 4
		key := append([]byte(nil), idxBuf[pos:pos+kl]...)
		pos += kl
		off := binary.LittleEndian.Uint64(idxBuf[pos:])
		pos += 8
		r.idxKeys = append(r.idxKeys, key)
		r.idxOffs = append(r.idxOffs, off)
	}
	return r, nil
}

func (r *tableReader) close() { r.t.Close(r.fd) }

// get performs a point lookup. It reads the index block that may hold
// key into *blk, growing it as needed, and copies out only the value it
// returns.
func (r *tableReader) get(key []byte, blk *[]byte) (val []byte, del, found bool, err error) {
	if len(r.idxKeys) == 0 {
		return nil, false, false, nil
	}
	if bytes.Compare(key, r.meta.smallest) < 0 || bytes.Compare(key, r.meta.largest) > 0 {
		return nil, false, false, nil
	}
	// Find the index block whose first key <= key.
	i := sort.Search(len(r.idxKeys), func(i int) bool {
		return bytes.Compare(r.idxKeys[i], key) > 0
	}) - 1
	if i < 0 {
		return nil, false, false, nil
	}
	start := int64(r.idxOffs[i])
	end := r.dataSize
	if i+1 < len(r.idxOffs) {
		end = int64(r.idxOffs[i+1])
	}
	*blk = slices.Grow((*blk)[:0], int(end-start))[:end-start]
	if _, err := r.t.ReadAt(r.fd, *blk, start); err != nil {
		return nil, false, false, err
	}
	c := cursor{data: *blk}
	for c.next() {
		switch bytes.Compare(c.key, key) {
		case 0:
			if c.del {
				return nil, true, true, nil
			}
			return append([]byte(nil), c.val...), false, true, nil
		case 1:
			return nil, false, false, nil
		}
	}
	return nil, false, false, nil
}

// readData reads the table's data section into buf, growing it as
// needed, and returns a cursor over it.
func (r *tableReader) readData(buf []byte) (cursor, error) {
	buf = slices.Grow(buf[:0], int(r.dataSize))[:r.dataSize]
	if _, err := r.t.ReadAt(r.fd, buf, 0); err != nil {
		return cursor{}, err
	}
	return cursor{data: buf}, nil
}
