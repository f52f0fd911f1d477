package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"jrs/internal/harness"
)

func mustFrame(t *testing.T, typ MsgType, payload []byte) []byte {
	t.Helper()
	b, err := EncodeFrame(typ, payload)
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	return b
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte(`{"seq":7,"worker":"w1"}`)
	frame := mustFrame(t, MsgLeaseReq, payload)
	typ, got, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if typ != MsgLeaseReq || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: got type %s payload %q", typ, got)
	}
	// Two frames back to back, then a clean EOF.
	r := bytes.NewReader(append(append([]byte{}, frame...), frame...))
	for i := 0; i < 2; i++ {
		if _, _, err := ReadFrame(r); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if _, _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("after last frame: want io.EOF, got %v", err)
	}
}

// TestFrameViolations drives every corruption class through the decoder
// and demands an ErrFrame (connection-fatal), never a panic or a
// misparsed frame.
func TestFrameViolations(t *testing.T) {
	valid := mustFrame(t, MsgResult, []byte(`{"seq":1}`))

	truncBody := append([]byte{}, valid[:len(valid)-2]...)

	crcFlip := append([]byte{}, valid...)
	crcFlip[len(crcFlip)-1] ^= 0xff // flip payload byte: CRC mismatch

	verSkew := append([]byte{}, valid...)
	verSkew[4] = ProtoVersion + 1

	oversize := make([]byte, 4)
	binary.BigEndian.PutUint32(oversize, MaxFrame+1)

	undersize := make([]byte, 4)
	binary.BigEndian.PutUint32(undersize, 3) // below header size

	cases := map[string][]byte{
		"truncated length": valid[:2],
		"truncated body":   truncBody,
		"crc mismatch":     crcFlip,
		"version skew":     verSkew,
		"oversized length": oversize,
		"undersize length": undersize,
	}
	for name, data := range cases {
		if _, _, err := ReadFrame(bytes.NewReader(data)); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: want ErrFrame, got %v", name, err)
		}
	}

	// Oversized payload is refused at encode time too.
	if _, err := EncodeFrame(MsgResult, make([]byte, MaxFrame)); !errors.Is(err, ErrFrame) {
		t.Errorf("encode oversized: want ErrFrame, got %v", err)
	}
}

func TestOptionsSpecRoundTrip(t *testing.T) {
	o := harness.Options{Scale: 7, Quick: true, CheckPipe: true}
	spec := SpecOf(o)
	back, err := spec.Options()
	if err != nil {
		t.Fatalf("Options: %v", err)
	}
	if back.Scale != 7 || !back.Quick || !back.CheckPipe || len(back.Workloads) != 0 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if _, err := (OptionsSpec{Workloads: []string{"no-such-workload"}}).Options(); err == nil {
		t.Fatal("unknown workload: want error")
	}
	g1 := GridSpec{Experiments: []string{"fig9"}, Opts: spec}
	g2 := GridSpec{Experiments: []string{"fig9"}, Opts: spec}
	if g1.Canonical() != g2.Canonical() {
		t.Fatal("equal grids must share a canonical identity")
	}
}

// FuzzDistFrameDecode feeds arbitrary byte streams to the frame decoder.
// The invariant under fuzzing: no panic, no unbounded allocation (the
// length guard runs before make), and every malformed stream ends in an
// error, never a silently misread frame.
func FuzzDistFrameDecode(f *testing.F) {
	valid := func(typ MsgType, payload []byte) []byte {
		b, err := EncodeFrame(typ, payload)
		if err != nil {
			f.Fatalf("seed: %v", err)
		}
		return b
	}
	lease := valid(MsgLease, []byte(`{"seq":1,"leaseID":2,"ttlMillis":1000}`))

	f.Add([]byte{})
	f.Add(lease)
	f.Add(valid(MsgRefused, []byte(`{"reason":"lease request without an accepted hello"}`)))
	f.Add(lease[:5])                                  // truncated inside the header
	f.Add(lease[:len(lease)-1])                       // truncated inside the payload
	f.Add(append(lease, lease...))                    // two frames
	f.Add(append(lease, lease[:7]...))                // frame then torn frame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // hostile length

	crc := append([]byte{}, lease...)
	crc[6] ^= 0x01
	f.Add(crc) // corrupted CRC field

	ver := append([]byte{}, lease...)
	ver[4] = 0x7f
	f.Add(ver) // version skew

	over := make([]byte, 8)
	binary.BigEndian.PutUint32(over, MaxFrame+7)
	f.Add(over) // oversized declared length

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for i := 0; i < 64; i++ { // bounded: each frame consumes ≥ 4 bytes
			typ, payload, err := ReadFrame(r)
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrFrame) {
					t.Fatalf("non-frame error class: %v", err)
				}
				return
			}
			// A frame that decoded must re-encode to a valid frame.
			if _, err := EncodeFrame(typ, payload); err != nil {
				t.Fatalf("decoded frame does not re-encode: %v", err)
			}
		}
	})
}
