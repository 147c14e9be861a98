package array

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"

	"repro/internal/checkpoint/checkpointtest"
)

// legacyJSON encodes st as the encoder before fileMap did: every field of
// simState through encoding/json, the file-keyed maps as plain
// map[int]int. It is the oracle the state encoder must match byte for
// byte.
func legacyJSON(st *simState) ([]byte, error) {
	// A struct type with simState's fields and tags, in the same order,
	// each fileMap retyped as the map[int]int it wraps.
	v := reflect.ValueOf(st).Elem()
	fields := make([]reflect.StructField, v.NumField())
	for i := range fields {
		fields[i] = v.Type().Field(i)
		switch fields[i].Type {
		case reflect.TypeOf(fileMap{}), reflect.TypeOf(&fileMap{}):
			fields[i].Type = reflect.TypeOf(map[int]int(nil))
		}
	}
	out := reflect.New(reflect.StructOf(fields)).Elem()
	for i := range fields {
		switch f := v.Field(i).Interface().(type) {
		case fileMap:
			out.Field(i).Set(reflect.ValueOf(f.m))
		case *fileMap:
			if f != nil {
				out.Field(i).Set(reflect.ValueOf(f.m))
			}
		default:
			out.Field(i).Set(v.Field(i))
		}
	}
	return json.Marshal(out.Interface())
}

// LegacyState encodes the live state of the run behind ctx with
// legacyJSON.
func LegacyState(ctx *Context) ([]byte, error) {
	st, err := ctx.s.buildState()
	if err != nil {
		return nil, err
	}
	return legacyJSON(st)
}

// ReencodeState parses a checkpoint payload and encodes it again, the
// file-keyed maps in the wire order of cfg's files.
func ReencodeState(cfg Config, state []byte) ([]byte, error) {
	s, err := newSim(cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	var st simState
	if err := json.Unmarshal(state, &st); err != nil {
		return nil, err
	}
	st.Place.order = s.fileOrder()
	if st.Counts != nil {
		st.Counts.order = s.fileOrder()
	}
	return st.appendJSON(nil)
}

// DecodedStateEncodings parses a checkpoint payload and encodes it twice:
// with the state encoder, the file-keyed maps in their keys' wire order,
// and with legacyJSON.
func DecodedStateEncodings(state []byte) (got, want []byte, err error) {
	var st simState
	if err := json.Unmarshal(state, &st); err != nil {
		return nil, nil, err
	}
	st.Place.order = mapOrder(st.Place.m)
	if st.Counts != nil {
		st.Counts.order = mapOrder(st.Counts.m)
	}
	if got, err = st.appendJSON(nil); err != nil {
		return nil, nil, err
	}
	want, err = legacyJSON(&st)
	return got, want, err
}

// mapOrder returns m's keys in wire order.
func mapOrder(m map[int]int) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, compareDecimal)
	return ids
}

// FilledStateEncodings fills a simState by reflection from seed, every
// exported field of every wire type in it, and encodes it with the state
// encoder and with legacyJSON. With nonFinite, floats may be NaN or ±Inf,
// which both encoders must refuse.
func FilledStateEncodings(seed int64, nonFinite bool) (got []byte, gotErr error, want []byte, wantErr error) {
	// File IDs the maps draw keys from, and their wire order.
	ids := []int{-10, -1, 0, 1, 2, 9, 10, 11, 100, 4078}
	order := slices.Clone(ids)
	slices.SortFunc(order, compareDecimal)
	fillMap := func(f *checkpointtest.Filler, empty bool) fileMap {
		r := f.Rand
		if empty {
			switch r.Intn(4) {
			case 0:
				return fileMap{order: order}
			case 1:
				return fileMap{m: map[int]int{}, order: order}
			}
		}
		m := map[int]int{}
		for _, id := range ids {
			if r.Intn(2) == 0 || len(m) == 0 {
				m[id] = r.Intn(2000) - 1000
			}
		}
		return fileMap{m: m, order: order}
	}
	f := checkpointtest.Filler{
		Rand:      rand.New(rand.NewSource(seed)),
		NonFinite: nonFinite,
		Custom: func(f *checkpointtest.Filler, v reflect.Value) bool {
			switch v.Type() {
			case reflect.TypeOf(fileMap{}):
				v.Set(reflect.ValueOf(fillMap(f, true)))
			case reflect.TypeOf(&fileMap{}):
				// buildState writes counts only when there are some.
				if f.Rand.Intn(3) == 0 {
					v.SetZero()
				} else {
					m := fillMap(f, false)
					v.Set(reflect.ValueOf(&m))
				}
			default:
				return false
			}
			return true
		},
	}
	var st simState
	f.Fill(&st)
	got, gotErr = st.appendJSON(nil)
	want, wantErr = legacyJSON(&st)
	return got, gotErr, want, wantErr
}

// SnapshotWriter restores a checkpoint payload under cfg, as Resume does,
// without running it, and returns a function that writes one snapshot of
// the restored run to cfg.Checkpoint, as the checkpoint tick does.
func SnapshotWriter(cfg Config, state []byte) (func() error, error) {
	s, err := resume(cfg, state)
	if err != nil {
		return nil, err
	}
	return s.writeCheckpoint, nil
}

// ParseState parses a checkpoint payload as Resume does before restoring
// it.
func ParseState(state []byte) error {
	var st simState
	return json.Unmarshal(state, &st)
}

// ValidateState parses a checkpoint payload and validates it under cfg, as
// Resume does before it rebuilds anything.
func ValidateState(cfg Config, state []byte) error {
	cfg.setDefaults()
	_, err := decodeState(&cfg, state, false)
	return err
}
