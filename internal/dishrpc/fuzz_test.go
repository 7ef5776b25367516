package dishrpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// frameBytes prefixes body with a big-endian length header claiming n
// bytes.
func frameBytes(n uint32, body string) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], n)
	return append(hdr[:], body...)
}

// FuzzFrame drives the frame codec with arbitrary bytes from a peer.
// Decoding must never panic, any header over MaxFrame must be rejected
// as a protocol error, and whatever decodes must re-encode to a frame
// that decodes and re-encodes to the same bytes.
func FuzzFrame(f *testing.F) {
	for _, req := range []string{
		`{"id":7,"method":"get_status"}`,
		`{"id":1,"method":"m","params":{"a": [1, 2]}}`,
	} {
		f.Add(frameBytes(uint32(len(req)), req))
	}
	f.Add(frameBytes(3, "{{{"))
	f.Add(frameBytes(MaxFrame, "0123456789"))
	f.Add(frameBytes(MaxFrame+1, ""))
	f.Add(frameBytes(0, ""))
	f.Add([]byte{0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		var in request
		err := readFrame(bytes.NewReader(data), &in)
		if len(data) >= 4 && binary.BigEndian.Uint32(data) > MaxFrame {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("oversize header: err = %v, want ErrProtocol", err)
			}
			return
		}
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := writeFrame(&first, &in); err != nil {
			if errors.Is(err, ErrProtocol) {
				return // re-encoding escapes grew the frame past MaxFrame
			}
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		encoded := append([]byte(nil), first.Bytes()...)
		var back request
		if err := readFrame(&first, &back); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		var second bytes.Buffer
		if err := writeFrame(&second, &back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encoded, second.Bytes()) {
			t.Fatalf("round trip not stable:\n%q\n%q", encoded, second.Bytes())
		}
	})
}
