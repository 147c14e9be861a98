package runstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// CanonicalJSON encodes v in a canonical form: object keys sorted, no
// insignificant whitespace, and numbers kept as the literal tokens Go's
// encoder produced for them. Two configurations digest equal if and only if
// they encode to the same canonical bytes, regardless of field declaration
// order in the originating struct or map iteration order.
func CanonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("runstore: canonicalize: %w", err)
	}
	// Round-trip through an untyped document: maps re-marshal with sorted
	// keys, and UseNumber preserves numeric literals exactly so the digest
	// does not depend on float re-formatting.
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("runstore: canonicalize: %w", err)
	}
	out, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("runstore: canonicalize: %w", err)
	}
	return out, nil
}

// Digest returns the hex SHA-256 of v's canonical JSON — the identity of a
// run configuration.
func Digest(v any) (string, error) {
	b, err := CanonicalJSON(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
