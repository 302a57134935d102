package colstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"unsafe"
)

// mappedBytes is one live column-page mapping (or heap buffer on platforms
// without mmap; those are never unmapped).
type mappedBytes = []byte

// hostLittleEndian gates the zero-copy typed views: the on-disk format is
// little-endian, so only a little-endian host may alias file pages
// directly. Big-endian hosts decode into heap slices instead.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// writeFloatRows writes rows [from, len(vals)) at their fixed offsets
// (8 bytes per row, little-endian float64 bit patterns).
func writeFloatRows(f *os.File, vals []float64, from int) error {
	n := len(vals) - from
	if n <= 0 {
		return nil
	}
	buf := make([]byte, n*8)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(vals[from+i]))
	}
	_, err := f.WriteAt(buf, int64(from)*8)
	return err
}

// writeCodeRows writes rows [from, len(codes)) at their fixed offsets
// (4 bytes per row, little-endian int32 dictionary codes; -1 = NULL).
func writeCodeRows(f *os.File, codes []int32, from int) error {
	n := len(codes) - from
	if n <= 0 {
		return nil
	}
	buf := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(codes[from+i]))
	}
	_, err := f.WriteAt(buf, int64(from)*4)
	return err
}

// appendDictEntries appends dictionary entries at off — each uvarint
// length-prefixed, in code order — and returns the new end offset.
func appendDictEntries(f *os.File, off int64, entries []string) (int64, error) {
	if len(entries) == 0 {
		return off, nil
	}
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	for _, s := range entries {
		n := binary.PutUvarint(tmp[:], uint64(len(s)))
		buf = append(buf, tmp[:n]...)
		buf = append(buf, s...)
	}
	if _, err := f.WriteAt(buf, off); err != nil {
		return off, err
	}
	return off + int64(len(buf)), nil
}

// readDictEntries decodes exactly n entries from the first size bytes of
// the dictionary page file. Every entry takes at least its one-byte length
// prefix, so a count above size is corrupt and rejected before anything is
// sized from it.
func readDictEntries(f *os.File, size int64, n int) ([]string, error) {
	if n < 0 || int64(n) > size {
		return nil, fmt.Errorf("dictionary of %d bytes cannot hold %d entries", size, n)
	}
	if n == 0 {
		return nil, nil
	}
	raw := make([]byte, size)
	if _, err := f.ReadAt(raw, 0); err != nil {
		return nil, fmt.Errorf("dictionary read: %w", err)
	}
	out := make([]string, 0, n)
	off := 0
	for i := 0; i < n; i++ {
		l, w := binary.Uvarint(raw[off:])
		if w <= 0 || off+w+int(l) > len(raw) {
			return nil, fmt.Errorf("corrupt dictionary entry %d", i)
		}
		out = append(out, string(raw[off+w:off+w+int(l)]))
		off += w + int(l)
	}
	if off != len(raw) {
		return nil, fmt.Errorf("dictionary has %d trailing bytes", len(raw)-off)
	}
	return out, nil
}

// viewFloats interprets a column page as float64 rows: a zero-copy alias
// on little-endian hosts (mmap'd pages are paged in only when touched), a
// decoded heap copy otherwise.
func viewFloats(b []byte, rows int) []float64 {
	if rows == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), rows)
	}
	out := make([]float64, rows)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// viewCodes interprets a column page as int32 dictionary codes; same
// aliasing rules as viewFloats.
func viewCodes(b []byte, rows int) []int32 {
	if rows == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), rows)
	}
	out := make([]int32, rows)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}
