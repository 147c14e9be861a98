// Package checkpointtest holds what the array's and the fleet's checkpoint
// tests share. Its Filler fills checkpoint wire structs with awkward values
// for the tests that hold the hand-written state encoders to encoding/json.
// The filler walks a value by reflection and sets every exported field, the
// promoted fields of embedded structs included, so a field an encoder
// forgets shows up as a byte difference without any list of fields to keep.
package checkpointtest

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
)

// Filler sets fields from a seeded source.
type Filler struct {
	// Rand draws every choice.
	Rand *rand.Rand
	// NonFinite lets floats be NaN or ±Inf, which have no JSON encoding.
	NonFinite bool
	// Custom, when set, is offered each value first; it returns true when
	// it filled the value itself (for types with unexported state).
	Custom func(f *Filler, v reflect.Value) bool
}

// floats are the float64 values the filler draws from, with a random one
// added: zero and negative zero, the smallest subnormal, both sides of
// encoding/json's switch to exponent form (1e-6 and 1e21), and ordinary
// values.
var floats = []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 9.999999e-7, 1e21, 9.99999e20, 1e20,
	123.456, -2.5, 0.1, 1e300, -1e-300, math.MaxFloat64, 1}

// texts are the strings the filler draws from: plain ASCII, and text
// that encoding/json escapes (quotes, backslashes, HTML characters, control
// bytes, U+2028 and U+2029, invalid UTF-8).
var texts = []string{"", "read", "epoch", `<>&"\` + "\u2028\u2029", "tab\tnew\nline\x01", "\xff\xfe", "\u00e9 \u00fc", "\x7f~", "a b"}

// rawMessages are the JSON texts the filler draws from for a
// json.RawMessage: whitespace to compact and characters to escape.
var rawMessages = []json.RawMessage{
	json.RawMessage(`{}`),
	json.RawMessage(` { "theta" : 0.5 , "popular" : [ 1 , 2 ] } `),
	json.RawMessage("{\"s\":\"<a href=\\\"x\\\">&amp;\u2028</a>\"}"),
	json.RawMessage(`[1e-7, 2.5E+3, -0, null, true]`),
	json.RawMessage(`"x"`),
}

// Fill sets every exported field of the value ptr points to.
func (f *Filler) Fill(ptr any) { f.value(reflect.ValueOf(ptr).Elem()) }

// value fills v, which must be settable.
func (f *Filler) value(v reflect.Value) {
	if f.Custom != nil && f.Custom(f, v) {
		return
	}
	r := f.Rand
	if v.Type() == reflect.TypeOf(json.RawMessage(nil)) {
		if r.Intn(4) == 0 {
			v.SetZero()
		} else {
			v.Set(reflect.ValueOf(rawMessages[r.Intn(len(rawMessages))]))
		}
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(r.Intn(2) == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(f.int(v.Type().Bits()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(f.uint(v.Type().Bits()))
	case reflect.Float64:
		v.SetFloat(f.float())
	case reflect.String:
		v.SetString(texts[r.Intn(len(texts))])
	case reflect.Pointer:
		if r.Intn(3) == 0 {
			v.SetZero()
			return
		}
		p := reflect.New(v.Type().Elem())
		f.value(p.Elem())
		v.Set(p)
	case reflect.Slice:
		switch n := r.Intn(5); n {
		case 0:
			v.SetZero()
		default:
			s := reflect.MakeSlice(v.Type(), n-1, n-1)
			for i := 0; i < s.Len(); i++ {
				f.value(s.Index(i))
			}
			v.Set(s)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.value(v.Index(i))
		}
	case reflect.Map:
		if r.Intn(3) == 0 {
			v.SetZero()
			return
		}
		m := reflect.MakeMap(v.Type())
		for n := r.Intn(4); n > 0; n-- {
			k := reflect.New(v.Type().Key()).Elem()
			f.value(k)
			e := reflect.New(v.Type().Elem()).Elem()
			f.value(e)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			// An embedded struct's exported fields are promoted into the
			// encoding even when the embedded type itself is unexported.
			if sf := t.Field(i); sf.IsExported() || sf.Anonymous {
				f.value(v.Field(i))
			}
		}
	default:
		panic("checkpointtest: cannot fill a " + v.Type().String())
	}
}

// float draws a float64.
func (f *Filler) float() float64 {
	r := f.Rand
	if f.NonFinite && r.Intn(8) == 0 {
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
	}
	if r.Intn(3) == 0 {
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30))
	}
	return floats[r.Intn(len(floats))]
}

func (f *Filler) int(bits int) int64 {
	r := f.Rand
	switch r.Intn(5) {
	case 0:
		return 0
	case 1:
		return -1 << (bits - 1)
	case 2:
		return 1<<(bits-1) - 1
	default:
		return int64(r.Intn(2000) - 1000)
	}
}

func (f *Filler) uint(bits int) uint64 {
	r := f.Rand
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return math.MaxUint64 >> (64 - bits)
	default:
		return uint64(r.Intn(2000))
	}
}
