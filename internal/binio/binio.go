// Package binio is the little-endian framing shared by the repository's
// binary formats (FORMATS.md): the "CLTS" lattice dump, which is only
// written, and the "CSNP" session snapshot and "CWAL" action log, which
// cabled reads back at boot.
//
// A Writer appends fields to a byte slice; Seal appends a CRC32 trailer.
// A Reader decodes fields from a byte slice and keeps its first failure,
// so a decoder reads a run of fields and checks Err once. Unseal checks a
// trailer before anything is decoded. Input that ends early fails with
// ErrTruncated, which wraps io.ErrUnexpectedEOF, and a trailer that does
// not match fails with ErrChecksum.
package binio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

var (
	// ErrTruncated reports input that ends inside a field, or a count
	// whose elements cannot fit in the bytes left.
	ErrTruncated = fmt.Errorf("binio: truncated input: %w", io.ErrUnexpectedEOF)
	// ErrChecksum reports a CRC32 trailer that does not match the bytes
	// it covers.
	ErrChecksum = errors.New("binio: checksum mismatch")
)

// Writer appends little-endian fields to a byte slice. Strings and word
// lists carry a u32 length prefix.
type Writer []byte

// U8 appends one byte.
func (w *Writer) U8(v byte) { *w = append(*w, v) }

// Bool appends 1 for true and 0 for false.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends v in four bytes.
func (w *Writer) U32(v uint32) { *w = binary.LittleEndian.AppendUint32(*w, v) }

// U64 appends v in eight bytes.
func (w *Writer) U64(v uint64) { *w = binary.LittleEndian.AppendUint64(*w, v) }

// Str appends s with its u32 length.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	*w = append(*w, s...)
}

// Words appends ws with its u32 length.
func (w *Writer) Words(ws []uint64) {
	w.U32(uint32(len(ws)))
	for _, v := range ws {
		w.U64(v)
	}
}

// Mark appends a u32 placeholder and returns its offset, for a length
// that is known only once the bytes after it are appended.
func (w *Writer) Mark() int {
	at := len(*w)
	w.U32(0)
	return at
}

// Fill sets the placeholder at offset at to the number of bytes appended
// after it.
func (w *Writer) Fill(at int) {
	binary.LittleEndian.PutUint32((*w)[at:], uint32(len(*w)-at-4))
}

// Seal appends the CRC32 (IEEE) of the bytes from offset from on.
func (w *Writer) Seal(from int) { w.U32(crc32.ChecksumIEEE((*w)[from:])) }

// Unseal checks the u32 CRC32 (IEEE) trailer that ends b against the
// bytes before it and returns those bytes.
func Unseal(b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, ErrTruncated
	}
	body := b[:len(b)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[len(body):]) {
		return nil, ErrChecksum
	}
	return body, nil
}

// Reader decodes little-endian fields from a byte slice. The first
// failure sticks: every later read returns a zero value, and Err reports
// the failure.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err unless a failure is recorded already.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Len returns the number of bytes left.
func (r *Reader) Len() int { return len(r.b) }

// Bytes returns the next n bytes, which alias the input, or nil.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.Fail(ErrTruncated)
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// zeros stands in for a fixed-size field after a failure.
var zeros [8]byte

// fixed returns the next n ≤ 8 bytes, or n zero bytes after a failure.
func (r *Reader) fixed(n int) []byte {
	if p := r.Bytes(n); p != nil {
		return p
	}
	return zeros[:n]
}

// U8 reads one byte.
func (r *Reader) U8() byte { return r.fixed(1)[0] }

// Bool reads a byte Writer.Bool wrote; any byte but 0 or 1 fails.
func (r *Reader) Bool() bool {
	switch v := r.U8(); v {
	case 0, 1:
		return v == 1
	default:
		r.Fail(fmt.Errorf("binio: bool byte %d", v))
		return false
	}
}

// U32 reads four bytes.
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }

// U64 reads eight bytes.
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// Count reads a u32 count of elements that each take at least size
// bytes. A count above max fails, and so, with ErrTruncated, does one
// whose elements cannot fit in the bytes left. A caller may allocate for
// the count it returns: the input's length bounds it.
func (r *Reader) Count(size, max int) int {
	n := r.U32()
	if uint64(n) > uint64(max) {
		r.Fail(fmt.Errorf("binio: count %d exceeds the cap %d", n, max))
	} else if uint64(n)*uint64(size) > uint64(len(r.b)) {
		r.Fail(ErrTruncated)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Str reads a string with its u32 length, failing on a length above max.
func (r *Reader) Str(max int) string {
	n := r.U32()
	if uint64(n) > uint64(max) {
		r.Fail(fmt.Errorf("binio: string of %d bytes exceeds the %d-byte cap", n, max))
	}
	return string(r.Bytes(int(n)))
}
