package checkpoint

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// Writer appends a JSON document to a byte slice, value by value, in the
// exact bytes encoding/json's Marshal writes for the same Go values. It is
// how the state payloads are encoded without reflection: each state type
// writes its fields in struct order, each key with its punctuation as one
// literal (Raw), and each omitempty field through the Omit methods, which
// skip the zero values encoding/json skips. The first error, a NaN or an
// infinity as in encoding/json, sticks, and Bytes reports it.
type Writer struct {
	buf []byte
	err error
}

// NewWriter returns a Writer that appends to dst.
func NewWriter(dst []byte) Writer { return Writer{buf: dst} }

// Bytes returns the appended-to slice and the first error.
func (w *Writer) Bytes() ([]byte, error) { return w.buf, w.err }

// Raw appends s verbatim: object and array punctuation, and keys.
func (w *Writer) Raw(s string) { w.buf = append(w.buf, s...) }

// Int appends v.
func (w *Writer) Int(v int) { w.buf = strconv.AppendInt(w.buf, int64(v), 10) }

// Uint appends v.
func (w *Writer) Uint(v uint64) { w.buf = strconv.AppendUint(w.buf, v, 10) }

// Bool appends v.
func (w *Writer) Bool(v bool) { w.buf = strconv.AppendBool(w.buf, v) }

// Float appends v as encoding/json writes a float64: the shortest decimal
// that round-trips, in exponent form only for magnitudes below 1e-6 or at
// or above 1e21, with a one-digit negative exponent left unpadded. NaN and
// the infinities have no JSON form; they set the error and append nothing.
func (w *Writer) Float(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		w.Fail(&json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)})
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.buf, v, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	w.buf = b
}

// String appends s as a JSON string. Printable ASCII that needs no escape
// is copied as is; any other string goes through encoding/json, so its
// escapes (control bytes, HTML characters, U+2028 and U+2029, invalid
// UTF-8) are exactly encoding/json's.
func (w *Writer) String(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			w.Marshal(s)
			return
		}
	}
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '"')
}

// Ints appends v as a JSON array, or null when v is nil.
func (w *Writer) Ints(v []int) {
	if v == nil {
		w.Raw("null")
		return
	}
	w.buf = append(w.buf, '[')
	for i, x := range v {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		w.Int(x)
	}
	w.buf = append(w.buf, ']')
}

// Uints appends v as a JSON array, or null when v is nil.
func (w *Writer) Uints(v []uint64) {
	if v == nil {
		w.Raw("null")
		return
	}
	w.buf = append(w.buf, '[')
	for i, x := range v {
		if i > 0 {
			w.buf = append(w.buf, ',')
		}
		w.Uint(x)
	}
	w.buf = append(w.buf, ']')
}

// RawMessage appends m as encoding/json writes a json.RawMessage: null
// when m is nil, otherwise m compacted and validated, with the HTML
// characters and U+2028 and U+2029 escaped.
func (w *Writer) RawMessage(m json.RawMessage) {
	if m == nil {
		w.Raw("null")
		return
	}
	start := len(w.buf)
	out := bytes.NewBuffer(w.buf)
	if err := json.Compact(out, m); err != nil {
		w.Fail(err)
		return
	}
	w.buf = out.Bytes()
	if tail := w.buf[start:]; bytes.ContainsAny(tail, "<>&\u2028\u2029") {
		var esc bytes.Buffer
		json.HTMLEscape(&esc, tail)
		w.buf = append(w.buf[:start], esc.Bytes()...)
	}
}

// Marshal appends encoding/json's encoding of v. The state types use it
// only for parts that are off by default.
func (w *Writer) Marshal(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		w.Fail(err)
		return
	}
	w.buf = append(w.buf, b...)
}

// OmitInt appends key and v unless v is zero (an omitempty field).
func (w *Writer) OmitInt(key string, v int) {
	if v != 0 {
		w.Raw(key)
		w.Int(v)
	}
}

// OmitUint appends key and v unless v is zero.
func (w *Writer) OmitUint(key string, v uint64) {
	if v != 0 {
		w.Raw(key)
		w.Uint(v)
	}
}

// OmitFloat appends key and v unless v is zero; -0 is zero too.
func (w *Writer) OmitFloat(key string, v float64) {
	if v != 0 {
		w.Raw(key)
		w.Float(v)
	}
}

// OmitBool appends key and true when v is true.
func (w *Writer) OmitBool(key string, v bool) {
	if v {
		w.Raw(key)
		w.Raw("true")
	}
}

// OmitString appends key and v unless v is empty.
func (w *Writer) OmitString(key, v string) {
	if v != "" {
		w.Raw(key)
		w.String(v)
	}
}

// Fail records err unless an error is already recorded: for a value an
// encoder finds has no encoding.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}
