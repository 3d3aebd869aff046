package serve

import (
	"bufio"
	"bytes"
	"testing"

	otrace "repro/internal/obs/trace"
)

// FuzzEventsFrame drives the server's network-facing decoder — readFrame,
// then decodeEventsFrame's type check, trace header and events body — on
// arbitrary bytes. It must never panic, and any input it accepts must be
// the exact encoding the client writes for what it decoded: the frame
// re-encodes byte-identically.
func FuzzEventsFrame(f *testing.F) {
	valid := wireFrame(f, []Event{{PC: 0x400, Value: 42}, {PC: 1 << 62, Value: ^uint64(0)}, {PC: 0, Value: 300}},
		otrace.Context{TraceID: 0xdeadbeef, SpanID: 7, Flags: otrace.FlagSampled})
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n])
	}
	f.Add(wireFrame(f, nil, otrace.Context{}))
	f.Add(wireFrame(f, []Event{{PC: 1, Value: 2}}, otrace.Context{}))
	// The retired header-less type-2 frame: [len=2][type 2][count 0].
	f.Add([]byte{2, 0, 0, 0, 2, 0})

	f.Fuzz(func(t *testing.T, in []byte) {
		p, err := readFrame(bufio.NewReader(bytes.NewReader(in)), nil)
		if err != nil {
			return
		}
		ctx, evs, err := decodeEventsFrame(p, nil)
		if err != nil {
			return
		}
		if got, want := wireFrame(t, evs, ctx), in[:4+len(p)]; !bytes.Equal(got, want) {
			t.Fatalf("accepted frame re-encodes differently:\n in  %x\n out %x", want, got)
		}
	})
}

// wireFrame is the client's on-wire encoding of one events request:
// length prefix, type byte, trace header and events body.
func wireFrame(tb testing.TB, evs []Event, ctx otrace.Context) []byte {
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	if err := writeFrame(w, appendEventsTraced(nil, evs, ctx)); err != nil {
		tb.Fatal(err)
	}
	w.Flush()
	return b.Bytes()
}
