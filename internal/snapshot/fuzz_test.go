package snapshot

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
)

// fuzzPredictorNames is the name pool snapshotFromBytes draws banks from;
// fcm8 puts the high-order slab-backed FCM tables in the fuzzed loop.
var fuzzPredictorNames = []string{"l", "s2", "fcm3", "hyb", "fcm8"}

// fuzzConstructors builds a fresh predictor for each pool name, so the
// fuzz can push every State blob through the real LoadState (fcm8 is not
// a registry spelling, hence no FactoryByName here).
var fuzzConstructors = map[string]func() core.Predictor{
	"l":    func() core.Predictor { return core.NewLastValue() },
	"s2":   func() core.Predictor { return core.NewStride2Delta() },
	"fcm3": func() core.Predictor { return core.NewFCM(3) },
	"hyb":  func() core.Predictor { return core.NewStrideFCMHybrid(3) },
	"fcm8": func() core.Predictor { return core.NewFCM(8) },
}

// snapshotFromBytes derives a deterministic, always-valid snapshot from
// fuzz input so the round-trip property gets exercised over arbitrary
// shard counts, PC sets and blob contents. Layout consumed per field is
// intentionally simple: the fuzzer mutates structure and content alike.
// State blob lengths are 16-bit so seed blobs can hold complete predictor
// states (an order-8 FCM image runs to a few KiB).
func snapshotFromBytes(data []byte) *Snapshot {
	take := func(n int) []byte {
		if n > len(data) {
			n = len(data)
		}
		out := data[:n]
		data = data[n:]
		return out
	}
	byteAt := func() byte {
		b := take(1)
		if len(b) == 0 {
			return 0
		}
		return b[0]
	}

	nshards := int(byteAt()%4) + 1
	npred := int(byteAt()) % len(fuzzPredictorNames)
	names := fuzzPredictorNames[:npred+1]

	s := &Snapshot{Meta: Meta{
		CreatedUnixNano: int64(binary.LittleEndian.Uint32(append(take(4), 0, 0, 0, 0))),
		Predictors:      names,
	}}
	for i := 0; i < nshards; i++ {
		sh := ShardState{Shard: i, Events: uint64(byteAt()) * 17}
		npc := int(byteAt() % 8)
		pc := uint64(0)
		for j := 0; j < npc; j++ {
			pc += uint64(byteAt()) + 1 // strictly ascending
			sh.PCs = append(sh.PCs, pc)
		}
		for _, name := range names {
			stateLen := int(binary.LittleEndian.Uint16(append(take(2), 0, 0)))
			ps := PredState{
				Name:    name,
				Correct: uint64(byteAt()),
				Total:   uint64(byteAt()) + 1,
				State:   append([]byte(nil), take(stateLen)...),
			}
			sh.Preds = append(sh.Preds, ps)
		}
		s.Shards = append(s.Shards, sh)
	}
	return s
}

// trainedStateSeed builds fuzz input whose State blobs are genuine
// SaveState images of every pool predictor — including an order-8 FCM at
// a realistic table shape — laid out exactly as snapshotFromBytes
// consumes it, so the seed corpus starts from states the slab-backed
// LoadState accepts and the mutator works outward from there.
func trainedStateSeed(events int) []byte {
	rng := rand.New(rand.NewSource(99))
	preds := make([]core.Predictor, len(fuzzPredictorNames))
	for i, name := range fuzzPredictorNames {
		preds[i] = fuzzConstructors[name]()
	}
	for i := 0; i < events; i++ {
		pc := uint64(rng.Intn(12)) * 4
		var v uint64
		switch pc % 12 {
		case 0:
			v = uint64(i) * 8
		case 4:
			v = uint64(rng.Intn(3))
		default:
			v = []uint64{3, 1, 4, 7}[i%4]
		}
		for _, p := range preds {
			p.Update(pc, v)
		}
	}
	b := []byte{0 /* 1 shard */, byte(len(fuzzPredictorNames) - 1)}
	b = append(b, 1, 2, 3, 4) // created
	b = append(b, 9 /* events */, 2 /* npc */, 5, 7)
	for _, p := range preds {
		var st bytes.Buffer
		if err := p.(core.Stateful).SaveState(&st); err != nil {
			panic(err)
		}
		b = append(b, byte(st.Len()), byte(st.Len()>>8)) // 16-bit state length
		b = append(b, 1, 2)                              // correct, total
		b = append(b, st.Bytes()...)
	}
	return b
}

// FuzzSnapshotRoundTrip: any structurally valid snapshot, laid out as a
// chain root and written as a .vpdelta file, must resolve back to an
// equal value and re-encode canonically; every State blob the matching
// predictor's LoadState accepts must restore to a state whose save is a
// canonical fixed point.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(bytes.Repeat([]byte{0xFF}, 200))
	// Genuine trained states — order-8 FCM included — at two table
	// shapes, so the slab-backed LoadState is fuzzed from realistic
	// corpora rather than only from garbage.
	f.Add(trainedStateSeed(120))
	f.Add(trainedStateSeed(400))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := snapshotFromBytes(data)
		root := rootOf(in)
		path, err := WriteDeltaFileAtomic(t.TempDir(), root)
		if err != nil {
			t.Fatalf("writing the root of a valid snapshot: %v", err)
		}
		out, info, err := ResolveChain(path)
		if err != nil {
			t.Fatalf("resolving a just-written root: %v", err)
		}
		var events uint64
		for _, sh := range in.Shards {
			events += sh.Events
		}
		if info.Depth != 0 || len(info.Files) != 1 || out.Meta.ID != root.Meta.ID ||
			out.Meta.Events != events || out.Meta.Shards != len(in.Shards) {
			t.Fatalf("meta mismatch: %+v (chain %+v), want %d events over %d shards",
				out.Meta, info, events, len(in.Shards))
		}
		for si := range out.Shards {
			for pi := range out.Shards[si].Preds {
				checkPredStateLoad(t, &out.Shards[si].Preds[pi])
			}
		}
		// nil-vs-empty blobs are indistinguishable on disk.
		for _, s := range []*Snapshot{in, out} {
			for si := range s.Shards {
				for pi := range s.Shards[si].Preds {
					if len(s.Shards[si].Preds[pi].State) == 0 {
						s.Shards[si].Preds[pi].State = nil
					}
				}
			}
		}
		if !reflect.DeepEqual(in.Shards, out.Shards) {
			t.Fatalf("shards differ:\n in  %+v\n out %+v", in.Shards, out.Shards)
		}
		d, err := ReadDeltaFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if id, err := EncodeDelta(io.Discard, d); err != nil || id != root.Meta.ID {
			t.Fatalf("re-encode not canonical: id %s (want %s), %v", id, root.Meta.ID, err)
		}
	})
}

// checkPredStateLoad pushes one State blob through the named predictor's
// LoadState. Rejection is fine (the blob is fuzz data); acceptance must
// never panic, and the restored predictor's own save must be a canonical
// fixed point: saving, loading that save into a fresh instance and saving
// again reproduces the same bytes.
func checkPredStateLoad(t *testing.T, ps *PredState) {
	t.Helper()
	ctor, ok := fuzzConstructors[ps.Name]
	if !ok || len(ps.State) == 0 {
		return
	}
	p := ctor()
	st := p.(core.Stateful)
	if err := st.LoadState(bytes.NewReader(ps.State)); err != nil {
		return
	}
	var s1 bytes.Buffer
	if err := st.SaveState(&s1); err != nil {
		t.Fatalf("%s: save after accepted load: %v", ps.Name, err)
	}
	q := ctor().(core.Stateful)
	if err := q.LoadState(bytes.NewReader(s1.Bytes())); err != nil {
		t.Fatalf("%s: canonical save rejected by LoadState: %v", ps.Name, err)
	}
	var s2 bytes.Buffer
	if err := q.SaveState(&s2); err != nil {
		t.Fatalf("%s: re-save: %v", ps.Name, err)
	}
	if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
		t.Fatalf("%s: save/load/save is not a fixed point (%d vs %d bytes)",
			ps.Name, s1.Len(), s2.Len())
	}
}

// FuzzSnapshotDecodeRobustness: arbitrary bytes must never panic the
// legacy decoder or make it allocate past the input it was handed.
func FuzzSnapshotDecodeRobustness(f *testing.F) {
	legacy, err := os.ReadFile(legacyFixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Add([]byte(Magic))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeBytes(data)
		if err == nil {
			// Anything accepted passed the CRC and every structural check,
			// so it is a genuine snapshot image: it must lay out as a
			// chain root the checkpoint encoder accepts.
			if _, err := EncodeDelta(io.Discard, rootOf(snap)); err != nil {
				t.Fatalf("accepted snapshot does not encode as a root: %v", err)
			}
		}
	})
}
