package array

import (
	"encoding/json"
	"reflect"
)

// LegacyState encodes the live state of the run behind ctx as the encoder
// before fileMap did: every field of simState through encoding/json, the
// file-keyed maps as plain map[int]int. It is the oracle the wire-order
// encoder must match byte for byte.
func LegacyState(ctx *Context) ([]byte, error) {
	st, err := ctx.s.buildState()
	if err != nil {
		return nil, err
	}
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

// ReencodeState parses a checkpoint payload and encodes it again, the
// file-keyed maps in the wire order of cfg's files.
func ReencodeState(cfg Config, state []byte) ([]byte, error) {
	s, err := newSim(cfg)
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
	return json.Marshal(&st)
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
