package core

import (
	"bytes"
	"testing"
)

// FuzzDecodePayload hardens the payload decoder: no panic on arbitrary
// bytes, and accepted payloads re-encode/decode stably. Stability is
// judged on the encodings, not field by field: a float section may hold
// any bit pattern, and a NaN never equals itself.
func FuzzDecodePayload(f *testing.F) {
	f.Add(samplePayload().Encode())
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePayload(data)
		if err != nil {
			return
		}
		out := p.Encode()
		q, err := DecodePayload(out)
		if err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", err)
		}
		if !bytes.Equal(q.Encode(), out) {
			t.Fatal("payload re-encode round trip diverged")
		}
	})
}
