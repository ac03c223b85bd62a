// Package snap is the serialization substrate for deterministic
// full-system snapshots (DESIGN.md §11). It provides a tiny
// little-endian binary codec: fixed-width scalars, length-prefixed
// strings, and named section tags that make a corrupted or mismatched
// stream fail loudly at the section where it diverged instead of
// decoding garbage.
//
// The codec is deliberately dumb: no varints, no reflection, no
// schema. Every component writes its state in a fixed field order and
// reads it back in the same order; the format version lives in the
// container header (core.System.Snapshot), not here.
package snap

import (
	"encoding/binary"
	"fmt"
)

// Writer accumulates a snapshot stream. The zero value is ready to
// use. Writers never fail: validation belongs to the component
// deciding whether its state is snapshottable, not to the encoder.
type Writer struct {
	buf []byte
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a byte holding 0 or 1.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends a little-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// String appends a u32 length prefix followed by the raw bytes.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// tagMark precedes every section tag so a reader that falls out of
// sync hits a mark mismatch instead of misreading a length.
const tagMark = 0xD5

// Tag opens a named section. Readers verify tags in order, so a
// component that writes more or fewer fields than its reader expects
// is caught at the next section boundary.
func (w *Writer) Tag(name string) {
	w.U8(tagMark)
	w.String(name)
}

// Reset empties the stream and keeps its buffer for the next one.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Bytes returns the accumulated stream.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the current stream length.
func (w *Writer) Len() int { return len(w.buf) }

// Reader decodes a snapshot stream. Errors are sticky: after the
// first failure every read returns a zero value and Err reports the
// original cause, so component restore code can decode straight-line
// and check once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a snapshot stream.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Failf records a validation error (state mismatch, unsupported
// section, capacity disagreement) with the same sticky semantics as
// a decode error.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("snap: truncated stream at offset %d (want %d bytes, have %d)", r.off, n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a byte and rejects values other than 0 and 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Failf("snap: invalid bool byte %d at offset %d", v, r.off-1)
		return false
	}
	return v == 1
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.U32()
	if r.err != nil {
		return ""
	}
	b := r.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

// Tag consumes a section tag and verifies its name, anchoring any
// earlier field-count drift to a section boundary.
func (r *Reader) Tag(name string) {
	if r.err != nil {
		return
	}
	at := r.off
	if m := r.U8(); r.err == nil && m != tagMark {
		r.Failf("snap: expected section %q at offset %d, found no tag mark (byte %#x)", name, at, m)
		return
	}
	got := r.String()
	if r.err == nil && got != name {
		r.Failf("snap: expected section %q at offset %d, found %q", name, at, got)
	}
}

// Done verifies the stream was fully consumed and returns the first
// error, if any.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("snap: %d trailing bytes after snapshot", len(r.buf)-r.off)
	}
	return nil
}
