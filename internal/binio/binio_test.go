package binio

import (
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// record is one value of every field type, as the decoders read them.
type record struct {
	u8    byte
	b     bool
	u32   uint32
	u64   uint64
	str   string
	words []uint64
	count int
}

func (rec record) append(w *Writer) {
	w.U8(rec.u8)
	w.Bool(rec.b)
	w.U32(rec.u32)
	w.U64(rec.u64)
	w.Str(rec.str)
	w.Words(rec.words)
	w.U32(uint32(rec.count))
	for i := 0; i < rec.count; i++ {
		w.U32(uint32(i))
	}
}

func readRecord(r *Reader) record {
	var rec record
	rec.u8 = r.U8()
	rec.b = r.Bool()
	rec.u32 = r.U32()
	rec.u64 = r.U64()
	rec.str = r.Str(64)
	// A word list, as the lattice dump writes it: a count, then the words.
	if n := r.Count(8, 3); n > 0 {
		rec.words = make([]uint64, n)
		for i := range rec.words {
			rec.words[i] = r.U64()
		}
	}
	rec.count = r.Count(4, 8)
	for i := 0; i < rec.count; i++ {
		r.U32()
	}
	return rec
}

var sample = record{u8: 7, b: true, u32: 0xdeadbeef, u64: 1<<63 | 5, str: "X = fopen()", words: []uint64{1, 0, 3}, count: 3}

func TestRoundTrip(t *testing.T) {
	var w Writer
	sample.append(&w)
	r := NewReader(w)
	got := readRecord(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left", r.Len())
	}
	if !reflect.DeepEqual(got, sample) {
		t.Fatalf("read %+v, wrote %+v", got, sample)
	}
}

// TestTruncationAtEachField cuts the encoding at every byte: the decoder
// must fail with ErrTruncated, which is an io.ErrUnexpectedEOF, and every
// read after the failure must return a zero value.
func TestTruncationAtEachField(t *testing.T) {
	var w Writer
	sample.append(&w)
	for cut := 0; cut < len(w); cut++ {
		r := NewReader(w[:cut])
		readRecord(r)
		if err := r.Err(); !errors.Is(err, ErrTruncated) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
		if r.U8() != 0 || r.Bool() || r.U32() != 0 || r.U64() != 0 || r.Str(64) != "" || r.Count(1, 8) != 0 || r.Bytes(0) != nil {
			t.Fatalf("cut at %d: a read after the failure returned a value", cut)
		}
	}
}

func TestCount(t *testing.T) {
	for _, tc := range []struct {
		count, size, max, left int
		want                   string
	}{
		{0, 8, 0, 0, ""},
		{3, 4, 3, 12, ""},
		{3, 4, 3, 11, "truncated"},
		{3, 4, 2, 12, "count 3 exceeds the cap 2"},
		{1 << 31, 1, 1 << 31, 16, "truncated"},
		{1<<32 - 1, 1 << 20, 1<<32 - 1, 1 << 10, "truncated"}, // count × size overflows 32 bits
	} {
		var w Writer
		w.U32(uint32(tc.count))
		w = append(w, make([]byte, tc.left)...)
		r := NewReader(w)
		n := r.Count(tc.size, tc.max)
		switch err := r.Err(); {
		case tc.want == "" && (err != nil || n != tc.count):
			t.Fatalf("Count(%d, %d) of %d with %d bytes left = %d, %v", tc.size, tc.max, tc.count, tc.left, n, err)
		case tc.want != "" && (n != 0 || err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Fatalf("Count(%d, %d) of %d with %d bytes left = %d, %v; want 0 and %q", tc.size, tc.max, tc.count, tc.left, n, err, tc.want)
		case tc.want == "truncated" && !errors.Is(err, ErrTruncated):
			t.Fatalf("Count(%d, %d) of %d: %v is not ErrTruncated", tc.size, tc.max, tc.count, err)
		}
	}
}

func TestStrAndBoolRejections(t *testing.T) {
	var w Writer
	w.Str("twelve bytes")
	if r := NewReader(w); r.Str(11) != "" || r.Err() == nil || errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("a string over its cap: err = %v", r.Err())
	}
	if r := NewReader([]byte{2}); r.Bool() || r.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

// TestUnseal checks the trailer: a sealed record opens to its payload,
// input shorter than a trailer is truncated, and every single-bit flip is
// a checksum failure.
func TestUnseal(t *testing.T) {
	w := Writer("head")
	sample.append(&w)
	w.Seal(4)
	body, err := Unseal(w[4:])
	if err != nil || string(body) != string(w[4:len(w)-4]) {
		t.Fatalf("Unseal = %q, %v", body, err)
	}
	for n := 0; n < 4; n++ {
		if _, err := Unseal(w[4 : 4+n]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("%d bytes: err = %v, want ErrTruncated", n, err)
		}
	}
	for bit := 0; bit < 8*len(w[4:]); bit++ {
		mut := append([]byte(nil), w[4:]...)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, err := Unseal(mut); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip of bit %d: err = %v, want ErrChecksum", bit, err)
		}
	}
}

// TestMarkFill pins the length backfill the WAL's records use.
func TestMarkFill(t *testing.T) {
	var w Writer
	w.U8(1)
	at := w.Mark()
	w = append(w, "payload"...)
	w.Fill(at)
	r := NewReader(w)
	if r.U8() != 1 || r.Str(64) != "payload" || r.Err() != nil || r.Len() != 0 {
		t.Fatalf("Mark/Fill wrote %q", []byte(w))
	}
}
