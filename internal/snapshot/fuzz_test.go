package snapshot

import (
	"bytes"
	"sort"
	"testing"
)

// FuzzDecodeSnapshot hammers the decoder with arbitrary bytes: corrupt,
// truncated and version-skewed inputs must return an error, never panic,
// and anything that does decode must re-encode canonically (encode ∘
// decode is a fixed point). It seeds from every stack-table row.
func FuzzDecodeSnapshot(f *testing.F) {
	protos := make([]string, 0, len(stackTable))
	for proto := range stackTable {
		protos = append(protos, proto)
	}
	sort.Strings(protos)
	for _, proto := range protos {
		synth, ok := synths[proto]
		if !ok {
			f.Fatalf("no synthetic %s snapshot to seed the fuzzer from", proto)
		}
		b, err := Encode(synth())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
		mut := append([]byte(nil), b...)
		mut[len(mut)/3] ^= 0xFF
		f.Add(mut)
	}
	f.Add([]byte(magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		b2, err := Encode(s)
		if err != nil {
			t.Fatalf("decoded snapshot fails to encode: %v", err)
		}
		s2, err := Decode(b2)
		if err != nil {
			t.Fatalf("re-encoded snapshot fails to decode: %v", err)
		}
		b3, err := Encode(s2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(b2, b3) {
			t.Fatal("encode∘decode is not a fixed point")
		}
	})
}
