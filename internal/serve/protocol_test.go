package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	otrace "repro/internal/obs/trace"
)

func TestHelloRoundTrip(t *testing.T) {
	buf := appendHello(nil, 7, 123456, []string{"l", "s2", "fcm3"})
	if buf[0] != msgHello {
		t.Fatalf("type byte = %d", buf[0])
	}
	shards, prior, preds, err := decodeHello(buf[1:])
	if err != nil {
		t.Fatal(err)
	}
	if shards != 7 || prior != 123456 || len(preds) != 3 || preds[2] != "fcm3" {
		t.Fatalf("decoded shards=%d prior=%d preds=%v", shards, prior, preds)
	}
}

func TestEventsRoundTrip(t *testing.T) {
	in := []Event{{PC: 0x400, Value: 42}, {PC: 1 << 62, Value: ^uint64(0)}, {PC: 0, Value: 0}}
	buf := appendEventsTraced(nil, in, otrace.Context{})
	ctx, body, err := decodeTraceHeader(buf[1:])
	if err != nil || ctx.Valid() {
		t.Fatalf("untraced header: ctx=%+v err=%v", ctx, err)
	}
	out, err := decodeEvents(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("event %d = %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestEventsTracedRoundTrip(t *testing.T) {
	in := []Event{{PC: 0x400, Value: 42}, {PC: 1 << 62, Value: ^uint64(0)}}
	ctx := otrace.Context{TraceID: 0xdeadbeef12345678, SpanID: 0xabc, Flags: otrace.FlagSampled}
	buf := appendEventsTraced(nil, in, ctx)
	if buf[0] != msgEventsTraced {
		t.Fatalf("type byte = %d", buf[0])
	}
	got, body, err := decodeTraceHeader(buf[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got != ctx {
		t.Fatalf("context = %+v, want %+v", got, ctx)
	}
	out, err := decodeEvents(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("events = %+v, want %+v", out, in)
	}
	// The body past the header does not depend on the trace context:
	// traced and untraced requests share one events codec.
	untraced := appendEventsTraced(nil, in, otrace.Context{})
	if !bytes.Equal(body, untraced[1+traceHeaderLen:]) {
		t.Fatal("traced body diverges from untraced encoding")
	}
}

func TestDecodeTraceHeaderMalformed(t *testing.T) {
	// Header shorter than the fixed 17 bytes.
	for n := 0; n < traceHeaderLen; n++ {
		if _, _, err := decodeTraceHeader(make([]byte, n)); err == nil {
			t.Fatalf("truncated trace header (%d bytes) accepted", n)
		}
	}
	// Valid header, corrupt body.
	ctx := otrace.Context{TraceID: 1, SpanID: 2}
	buf := appendEventsTraced(nil, []Event{{PC: 1, Value: 2}}, ctx)
	_, body, err := decodeTraceHeader(buf[1:])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeEvents(append(body[:len(body):len(body)], 0xFF)); err == nil {
		t.Fatal("trailing bytes in traced body accepted")
	}
}

func TestHelloRejectsV1(t *testing.T) {
	// Only a protoVersion hello is accepted. The same check in an
	// older client rejects this server's v3 hello, so a v2 client,
	// whose Send writes the retired header-less type-2 frame, fails
	// at connect rather than on its first untraced frame.
	buf := appendHello(nil, 3, 9, []string{"l"})
	for _, version := range []byte{1, 2, 9} {
		hello := append([]byte{}, buf[1:]...)
		hello[0] = version
		if _, _, _, err := decodeHello(hello); err == nil {
			t.Fatalf("protocol version %d hello accepted", version)
		}
	}
	if _, _, _, err := decodeHello(buf[1:]); err != nil {
		t.Fatalf("current-version hello rejected: %v", err)
	}
}

func TestResultRoundTrip(t *testing.T) {
	buf := appendResult(nil, 1000, []uint64{5, 0, 999})
	events, correct, err := decodeResult(buf[1:], 3)
	if err != nil {
		t.Fatal(err)
	}
	if events != 1000 || correct[0] != 5 || correct[2] != 999 {
		t.Fatalf("decoded events=%d correct=%v", events, correct)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	if _, err := decodeEvents([]byte{}); err == nil {
		t.Error("empty events payload accepted")
	}
	// Count says 2 events but only one follows.
	if _, err := decodeEvents([]byte{2, 0x10, 0x20}); err == nil {
		t.Error("short events payload accepted")
	}
	// Trailing garbage after a well-formed event.
	buf := appendEventsTraced(nil, []Event{{PC: 1, Value: 2}}, otrace.Context{})
	if _, err := decodeEvents(append(buf[1+traceHeaderLen:], 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// A padded varint (0x81 0x00 also decodes as 1) would give one
	// frame two encodings.
	if _, err := decodeEvents([]byte{1, 0x81, 0x00, 0x02}); err == nil {
		t.Error("non-minimal varint accepted")
	}
	// The header-less type-2 events frame was retired in protocol v3.
	if _, _, err := decodeEventsFrame([]byte{2, 0}, nil); err == nil {
		t.Error("type-2 events frame accepted")
	}
	if _, _, _, err := decodeHello([]byte{99}); err == nil {
		t.Error("wrong protocol version accepted")
	}
	// Event count claiming more events than the frame could hold must be
	// rejected before allocation.
	if _, err := decodeEvents(binary.AppendUvarint(nil, 1<<20)); err == nil {
		t.Error("oversized event count accepted")
	}
	if _, _, err := decodeResult([]byte{10}, 3); err == nil {
		t.Error("short result accepted")
	}
}

func TestFrameRoundTripAndLimits(t *testing.T) {
	var nw bytes.Buffer
	bw := bufio.NewWriter(&nw)
	payload := appendEventsTraced(nil, nil, otrace.Context{})
	if err := writeFrame(bw, payload); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	got, err := readFrame(bufio.NewReader(&nw), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %v", got)
	}

	// Absurd length prefix must be rejected, not allocated.
	bad := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(bad)), nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Truncated payload must surface ErrUnexpectedEOF, not clean EOF.
	trunc := []byte{8, 0, 0, 0, 1, 2}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(trunc)), nil); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestShardOfStableAndInRange(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8} {
		counts := make([]int, shards)
		for pc := uint64(0); pc < 4096; pc += 4 {
			s := ShardOf(pc, shards)
			if s < 0 || s >= shards {
				t.Fatalf("ShardOf(%d, %d) = %d", pc, shards, s)
			}
			if s != ShardOf(pc, shards) {
				t.Fatal("ShardOf not deterministic")
			}
			counts[s]++
		}
		// Consecutive PCs should spread: no shard may own everything.
		for s, c := range counts {
			if shards > 1 && c == 1024 {
				t.Fatalf("shard %d of %d owns all PCs", s, shards)
			}
		}
	}
}
